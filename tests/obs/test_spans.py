"""Unit tests for phase/span tracing (repro.obs.spans)."""

import json

import pytest

from repro.obs.spans import SpanTracer
from repro.sim.engine import Simulator


class TestSpanTracer:
    def test_nesting_parent_and_depth(self):
        tr = SpanTracer("t")
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.parent == outer.seq
                assert inner.depth == 1
            assert tr._stack[-1] is outer
        assert not tr._stack
        recs = tr.records
        # Children close (and record) before parents.
        assert [r["name"] for r in recs] == ["inner", "outer"]
        assert recs[1]["parent"] is None
        assert recs[1]["depth"] == 0

    def test_sim_clock_stamps_sim_time(self):
        sim = Simulator()
        tr = SpanTracer("t", sim=sim)
        sim.schedule(1.0, lambda: None)
        with tr.span("run"):
            sim.run(until=1.5)
        rec = tr.records[0]
        assert rec["sim_start"] == 0.0
        assert rec["sim_end"] == pytest.approx(1.5)
        assert rec["wall_ms"] is not None

    def test_no_clock_means_no_sim_time(self):
        tr = SpanTracer("t")
        with tr.span("x"):
            pass
        rec = tr.records[0]
        assert rec["sim_start"] is None
        assert rec["sim_end"] is None

    def test_clock_and_sim_are_exclusive(self):
        with pytest.raises(ValueError):
            SpanTracer("t", clock=lambda: 0.0, sim=Simulator())

    def test_event_attaches_to_current_span(self):
        tr = SpanTracer("t")
        with tr.span("phase") as sp:
            tr.event("fault.link_down", count=1)
        ev = [r for r in tr.records if r["kind"] == "event"][0]
        assert ev["parent"] == sp.seq
        assert ev["attrs"] == {"count": 1}

    def test_record_span_is_retroactive(self):
        tr = SpanTracer("t")
        rec = tr.record_span("item", index=3, ok=True, attempts=1)
        assert rec["kind"] == "span"
        assert rec["attrs"]["index"] == 3
        assert tr.records == [rec]

    def test_exception_still_closes_span(self):
        tr = SpanTracer("t")
        with pytest.raises(RuntimeError):
            with tr.span("broken"):
                raise RuntimeError("boom")
        assert not tr._stack
        assert tr.records[0]["name"] == "broken"

    def test_jsonl_round_trip(self, tmp_path):
        tr = SpanTracer("t")
        with tr.span("a", k="v"):
            tr.event("e")
        path = tr.write_jsonl(tmp_path / "spans.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(l) for l in lines]
        assert {p["kind"] for p in parsed} == {"span", "event"}

    def test_empty_trace_writes_empty_file(self, tmp_path):
        tr = SpanTracer("t")
        path = tr.write_jsonl(tmp_path / "spans.jsonl")
        assert path.read_text() == ""
