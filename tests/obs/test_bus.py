"""Event bus: atomic appends, torn-tail-tolerant tailing, RunLog modes."""

import io
import json
import os
import threading

import pytest

from repro.obs.bus import (
    BUS_FILE,
    BUS_VERSION,
    EventBus,
    RunLog,
    TailState,
    open_bus,
    read_json_tolerant,
    tail_jsonl,
)


class TestEventBus:
    def test_emit_writes_one_schema_versioned_line(self, tmp_path):
        with EventBus(tmp_path, source="test") as bus:
            rec = bus.emit("shard.done", shard=3, paths=10)
        lines = (tmp_path / BUS_FILE).read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed == rec
        assert parsed["v"] == BUS_VERSION
        assert parsed["kind"] == "shard.done"
        assert parsed["src"] == "test"
        assert parsed["seq"] == 1
        assert parsed["shard"] == 3
        assert isinstance(parsed["wall"], float)

    def test_seq_increments_per_writer(self, tmp_path):
        with EventBus(tmp_path) as bus:
            seqs = [bus.emit("tick")["seq"] for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_construction_creates_no_files(self, tmp_path):
        bus = EventBus(tmp_path / "state")
        assert not (tmp_path / "state").exists()
        bus.close()
        assert not (tmp_path / "state").exists()

    def test_concurrent_writers_interleave_whole_records(self, tmp_path):
        n, writers = 200, 4

        def pump(wid):
            with EventBus(tmp_path, source=f"w{wid}") as bus:
                for i in range(n):
                    bus.emit("tick", i=i, pad="x" * 64)

        threads = [
            threading.Thread(target=pump, args=(w,)) for w in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records, st = tail_jsonl(tmp_path / BUS_FILE)
        assert st.torn == 0
        assert len(records) == n * writers
        for src in (f"w{w}" for w in range(writers)):
            seqs = [r["seq"] for r in records if r["src"] == src]
            assert seqs == sorted(seqs)  # kernel append order per writer

    def test_open_bus_none_state_dir(self):
        assert open_bus(None) is None

    def test_close_is_idempotent(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.emit("x")
        bus.close()
        bus.close()


class TestTailJsonl:
    def test_missing_file(self, tmp_path):
        records, st = tail_jsonl(tmp_path / "nope.jsonl")
        assert records == [] and st.offset == 0 and st.torn == 0

    def test_incremental_offsets(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"a":1}\n')
        records, st = tail_jsonl(p)
        assert [r["a"] for r in records] == [1]
        with p.open("a") as fh:
            fh.write('{"a":2}\n{"a":3}\n')
        records, st = tail_jsonl(p, st)
        assert [r["a"] for r in records] == [2, 3]
        records, st = tail_jsonl(p, st)
        assert records == []
        assert st.offset == p.stat().st_size

    def test_unterminated_tail_stays_pending(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"a":1}\n{"a":2')
        records, st = tail_jsonl(p)
        assert [r["a"] for r in records] == [1]
        assert st.torn == 0  # pending, not damage
        with p.open("a") as fh:
            fh.write(',"b":3}\n')
        records, st = tail_jsonl(p, st)
        assert records == [{"a": 2, "b": 3}]

    def test_complete_garbage_line_counted_not_raised(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"a":1}\nnot json at all\n[1,2,3]\n{"a":4}\n')
        records, st = tail_jsonl(p)
        assert [r["a"] for r in records] == [1, 4]
        assert st.torn == 2  # undecodable line + non-object line

    def test_truncated_file_resets_cursor(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"a":1}\n{"a":2}\n')
        _, st = tail_jsonl(p)
        p.write_text('{"a":9}\n')  # shrank underneath the reader
        records, st = tail_jsonl(p, st)
        assert [r["a"] for r in records] == [9]

    def test_fresh_state_replays_from_start(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_text('{"a":1}\n{"a":2}\n')
        tail_jsonl(p, TailState())
        records, _ = tail_jsonl(p)  # new cursor: full replay
        assert len(records) == 2


class TestReadJsonTolerant:
    def test_missing_is_not_torn(self, tmp_path):
        assert read_json_tolerant(tmp_path / "nope.json") == (None, 0)

    def test_partial_write_is_torn(self, tmp_path):
        p = tmp_path / "hb.json"
        p.write_text('{"shard_id":1,"done"')
        assert read_json_tolerant(p) == (None, 1)

    def test_non_object_is_torn(self, tmp_path):
        p = tmp_path / "hb.json"
        p.write_text("[1,2]")
        assert read_json_tolerant(p) == (None, 1)

    def test_whole_record(self, tmp_path):
        p = tmp_path / "hb.json"
        p.write_text('{"shard_id":1,"done":5}')
        assert read_json_tolerant(p) == ({"shard_id": 1, "done": 5}, 0)

    def test_non_utf8_is_torn(self, tmp_path):
        p = tmp_path / "hb.json"
        p.write_bytes(b"\xff\xfe\x00")
        assert read_json_tolerant(p) == (None, 1)


class TestLogMode:
    """The log format is RunLog's ``mode`` argument, nothing else."""

    def test_default_text(self):
        log = RunLog("c", stream=None)
        assert log.mode == "text" and not log.json_mode

    def test_json(self):
        assert RunLog("c", stream=None, mode="json").json_mode

    def test_other_values_are_text(self):
        assert not RunLog("c", stream=None, mode="verbose").json_mode


class TestRunLog:
    def test_text_mode_prints_message_verbatim(self):
        out = io.StringIO()
        log = RunLog("campaign", stream=out, mode="text")
        log.emit("finished", message="[campaign: 1.2s, 50 paths/s]", rate=50)
        assert out.getvalue() == "[campaign: 1.2s, 50 paths/s]\n"

    def test_text_mode_without_message_formats_fields(self):
        out = io.StringIO()
        RunLog("c", stream=out, mode="text").emit("done", a=1, b="x")
        assert out.getvalue() == "[c.done] a=1 b=x\n"

    def test_json_mode_emits_one_record_per_line(self):
        out = io.StringIO()
        log = RunLog("campaign", stream=out, mode="json")
        log.emit("finished", message="[human text]", rate=50)
        rec = json.loads(out.getvalue())
        assert rec["event"] == "campaign.finished"
        assert rec["rate"] == 50
        assert rec["message"] == "[human text]"
        assert "wall" in rec

    def test_mirrors_to_bus_in_both_modes(self, tmp_path):
        for mode in ("text", "json"):
            with EventBus(tmp_path / mode, source="cli") as bus:
                log = RunLog("bench", bus=bus, stream=None, mode=mode)
                log.emit("stage", message="  ignored", stage="event_loop")
            records, st = tail_jsonl(tmp_path / mode / BUS_FILE)
            assert st.torn == 0
            assert records[0]["kind"] == "log"
            assert records[0]["event"] == "bench.stage"
            assert records[0]["stage"] == "event_loop"

    def test_none_stream_never_prints(self, capsys):
        RunLog("c", stream=None, mode="text").emit("e", message="nope")
        RunLog("c", stream=None, mode="json").emit("e", message="nope")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestCliLogJson:
    def test_log_json_flag_restores_env(self, capsys):
        from repro.cli import main

        before = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
        assert main(["table1", "--log-json"]) == 0
        assert {k: v for k, v in os.environ.items()
                if k.startswith("REPRO_")} == before
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        rec = json.loads(first)
        assert rec["event"] == "cli.experiment.start"
        # The result block itself still prints as plain text.
        assert "PlanetLab" in out

    def test_text_mode_output_unchanged(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=== Table 1 ")
        with pytest.raises(ValueError):
            json.loads(out.splitlines()[0])
