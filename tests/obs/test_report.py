"""Unit tests for the run-report generator (repro.obs.report)."""

import json
import re

import pytest

from repro.cli import main
from repro.obs.report import (
    ReportError,
    generate_html_report,
    generate_report,
    sparkline,
    svg_sparkline,
    validate_report,
    write_report,
)


def _make_run_dir(tmp_path, spans=True, telemetry=True, metrics=True):
    (tmp_path / "manifest.json").write_text(json.dumps({
        "name": "demo", "seed": 1, "scale": "fast", "duration": 3.0,
    }))
    if telemetry:
        (tmp_path / "telemetry.json").write_text(json.dumps({
            "stride": 0.05,
            "max_samples": 512,
            "series": {
                "flow.1.cwnd": {"t": [0.0, 0.05, 0.1], "v": [1.0, 2.0, 4.0],
                                "keep_every": 1, "offered": 3, "decimations": 0},
                "queue.q.depth": {"t": [0.0, 0.05], "v": [0.0, 7.0],
                                  "keep_every": 1, "offered": 2, "decimations": 0},
            },
            "raster": {"bins": 4, "bin_width": 0.75,
                       "counts": [5, 0, 0, 1], "total": 6},
            "flows": [
                {"flow_id": 1, "variant": "newreno", "packets_sent": 10,
                 "acked": 9, "retransmissions": 1, "timeouts": 0,
                 "goodput_mbps": 0.024},
            ],
        }))
    if metrics:
        (tmp_path / "metrics.json").write_text(json.dumps({
            "counters": {"sim.events": 123},
            "gauges": {"queue.q.dropped": 6.0},
            "warnings": [],
        }))
    if spans:
        records = [
            {"kind": "span", "name": "setup", "seq": 1, "parent": None,
             "depth": 0, "sim_start": 0.0, "sim_end": 0.0, "wall_ms": 1.5},
            {"kind": "span", "name": "run", "seq": 2, "parent": None,
             "depth": 0, "sim_start": 0.0, "sim_end": 3.0, "wall_ms": 20.0},
            {"kind": "event", "name": "fault.link_down", "seq": 3,
             "parent": 2, "sim_time": 1.0, "attrs": {"count": 1}},
            {"kind": "event", "name": "fault.link_down", "seq": 4,
             "parent": 2, "sim_time": 2.0, "attrs": {"count": 1}},
        ]
        (tmp_path / "spans.jsonl").write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
    return tmp_path


class TestSparkline:
    def test_range_maps_to_blocks(self):
        s = sparkline([0, 1, 2, 3])
        assert s[0] == "▁"
        assert s[-1] == "█"
        assert len(s) == 4

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_rebins_long_series(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_svg_contains_polyline(self):
        svg = svg_sparkline([1, 2, 3])
        assert svg.startswith("<svg")
        assert "polyline" in svg


class TestGenerateReport:
    def test_full_report_sections(self, tmp_path):
        text = generate_report(_make_run_dir(tmp_path))
        validate_report(text)  # raises if any section is missing
        assert "# Flight report: demo" in text
        assert "`flow.1.cwnd`" in text
        assert "fault.link_down" in text
        assert "| `link_down` | 2 |" in text  # events aggregated by kind
        assert "6 drops in 4 bins" in text

    def test_no_wall_clock_values_leak(self, tmp_path):
        text = generate_report(_make_run_dir(tmp_path))
        assert "wall" not in text.lower()
        assert "20.0" not in text  # span wall_ms excluded
        assert "events_per_sec" not in text

    def test_deterministic_across_span_order(self, tmp_path_factory):
        # The same records in a different completion order (as a process
        # pool would produce) must render byte-identically.
        a = _make_run_dir(tmp_path_factory.mktemp("a"))
        b = _make_run_dir(tmp_path_factory.mktemp("b"))
        lines = (b / "spans.jsonl").read_text().splitlines()
        (b / "spans.jsonl").write_text("\n".join(reversed(lines)) + "\n")
        assert generate_report(a) == generate_report(b)

    def test_partial_run_dir_degrades(self, tmp_path):
        d = _make_run_dir(tmp_path, spans=False, telemetry=False, metrics=False)
        text = generate_report(d)
        validate_report(text)
        assert "_No time series recorded._" in text
        assert "_No span trace recorded._" in text

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ReportError, match="manifest"):
            generate_report(tmp_path)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(ReportError, match="does not exist"):
            generate_report(tmp_path / "nope")

    def test_malformed_spans_raise(self, tmp_path):
        d = _make_run_dir(tmp_path)
        (d / "spans.jsonl").write_text("not json\n")
        with pytest.raises(ReportError, match="malformed"):
            generate_report(d)


#: Damaged run-dir files, each of which ``report`` must name, not raise.
_NON_UTF8, _ARRAY = b"\xff\xfe\x00", b"[1, 2]"
_DAMAGE = [
    pytest.param("manifest.json", _NON_UTF8, id="manifest-non-utf8"),
    pytest.param("metrics.json", _NON_UTF8, id="metrics-non-utf8"),
    pytest.param("spans.jsonl", _NON_UTF8 + b"\n", id="spans-non-utf8"),
    pytest.param("manifest.json", _ARRAY, id="manifest-array"),
    pytest.param("metrics.json", _ARRAY, id="metrics-array"),
    pytest.param("telemetry.json", _ARRAY, id="telemetry-array"),
    pytest.param("spans.jsonl", b'{"kind": "span"}\n' + _ARRAY + b"\n",
                 id="spans-array-line"),
    pytest.param("telemetry.json", b'{"series": [1, 2]}',
                 id="telemetry-series-array"),
    pytest.param("metrics.json", b'{"counters": [1]}',
                 id="metrics-counters-array"),
]


@pytest.mark.parametrize("name, raw", _DAMAGE)
def test_damaged_file_is_named_not_raised(tmp_path, capsys, name, raw):
    d = tmp_path / "runs" / "r1"
    d.mkdir(parents=True)
    _make_run_dir(d)
    (d / name).write_bytes(raw)
    with pytest.raises(ReportError, match=re.escape(f"malformed {d / name}")):
        generate_report(d)
    assert main(["report", str(d)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"report: malformed {d / name}"), err
    assert "Traceback" not in err
    # The cross-run timeline skips and counts what report refuses.
    assert main(["history", str(tmp_path)]) == 0


class TestWriteAndValidate:
    def test_write_report_creates_md(self, tmp_path):
        d = _make_run_dir(tmp_path)
        path = write_report(d)
        assert path == d / "report.md"
        validate_report(path.read_text())

    def test_write_report_html(self, tmp_path):
        d = _make_run_dir(tmp_path)
        write_report(d, html=True)
        html = (d / "report.html").read_text()
        assert html.startswith("<!doctype html>")
        assert "svg" in html

    def test_html_report_escapes(self, tmp_path):
        d = _make_run_dir(tmp_path)
        html = generate_html_report(d)
        assert "flow.1.cwnd" in html

    def test_validate_rejects_missing_section(self):
        with pytest.raises(ReportError, match="missing section"):
            validate_report("# Flight report: x\n\n## Run manifest\n")

    def test_validate_rejects_out_of_order(self):
        text = (
            "# Flight report: x\n## Metrics\n## Run manifest\n"
            "## Telemetry timelines\n## Loss-event raster\n"
            "## Per-flow throughput\n## Phase spans\n"
        )
        with pytest.raises(ReportError):
            validate_report(text)
