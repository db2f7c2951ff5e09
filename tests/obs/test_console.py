"""``repro top``: deterministic --once rendering against the fixture."""

import io
import json
import subprocess
import sys
from pathlib import Path

from repro.obs.aggregate import FleetAggregator
from repro.obs.console import _bar, _fmt_duration, render_snapshot, run_top

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "campaign_state.top.txt"


def _once(state_dir) -> tuple[int, str]:
    out = io.StringIO()
    code = run_top(str(state_dir), once=True, stream=out)
    return code, out.getvalue()


class TestHelpers:
    def test_fmt_duration(self):
        assert _fmt_duration(None) == "-"
        assert _fmt_duration(9.4) == "9s"
        assert _fmt_duration(60.0) == "1m00s"
        assert _fmt_duration(3661.0) == "1h01m"

    def test_bar(self):
        assert _bar(0, 10, 10) == "-" * 10
        assert _bar(10, 10, 10) == "#" * 10
        assert _bar(5, 10, 10) == "#####-----"
        assert _bar(0, 0, 10) == "-" * 10


class TestOnceFixture:
    def test_byte_identical_across_runs(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        code1, out1 = _once("campaign_state")
        code2, out2 = _once("campaign_state")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_matches_committed_golden(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        _, out = _once("campaign_state")
        assert out == GOLDEN.read_text()

    def test_golden_via_module_entrypoint(self, monkeypatch):
        """The committed golden also pins ``python -m repro top --once``."""
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "top", "campaign_state",
             "--once"],
            cwd=FIXTURES,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == GOLDEN.read_text()

    def test_no_ansi_in_once_mode(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        _, out = _once("campaign_state")
        assert "\x1b" not in out

    def test_empty_dir_exits_one(self, tmp_path):
        code, out = _once(tmp_path)
        assert code == 1
        assert "EMPTY" in out

    def _state(self, tmp_path, ledger_lines=b"", bus=b""):
        d = tmp_path / "state"
        d.mkdir()
        (d / "shards.jsonl").write_bytes(
            b'{"kind":"sharded-campaign","seed":1,"n_sites":2,"n_paths":4,'
            b'"n_shards":2,"duration":10.0,"version":1}\n' + ledger_lines
        )
        (d / "events.jsonl").write_bytes(bus)
        return d

    def test_non_utf8_bus_line_counts_as_torn(self, tmp_path):
        d = self._state(tmp_path, bus=b"\xff\xfe\x00\n")
        code, out = _once(d)
        assert code == 0, out
        assert "· torn 1" in out

    def test_wrong_schema_records_count_as_torn(self, tmp_path):
        d = self._state(
            tmp_path,
            ledger_lines=b'{"i":"abc","record":{}}\n',
            bus=b'{"kind":"shard.progress","shard":1,"done":"x"}\n'
                b'{"kind":"worker.spawn","shard":"abc"}\n',
        )
        code, out = _once(d)
        assert code == 0, out
        assert "· torn 3" in out


class TestRender:
    def _snap(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        (d / "shards.jsonl").write_text(
            '{"kind":"sharded-campaign","seed":3,"n_sites":4,'
            '"n_paths":100,"n_shards":80,"duration":5.0,"version":1}\n'
        )
        return FleetAggregator(d).poll(now=None)

    def test_max_units_caps_rows(self, tmp_path):
        snap = self._snap(tmp_path)
        out = render_snapshot(snap, max_units=10)
        assert "... 70 more shards not shown" in out
        assert out.count("\n  shard ") == 10

    def test_color_mode_paints_status(self, tmp_path):
        snap = self._snap(tmp_path)
        assert "\x1b[" in render_snapshot(snap, color=True)
        assert "\x1b" not in render_snapshot(snap, color=False)

    def test_live_mode_exits_on_complete(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        (d / "shards.jsonl").write_text(
            '{"kind":"sharded-campaign","seed":1,"n_sites":1,'
            '"n_paths":2,"n_shards":1,"duration":1.0,"version":1}\n'
            '{"i":0,"record":{"status":"done","attempts":1}}\n'
        )
        out = io.StringIO()
        code = run_top(str(d), once=False, interval=0.0, stream=out,
                       color=False, max_polls=5)
        assert code == 0
        assert "COMPLETE" in out.getvalue()


class TestSnapshotJsonParity:
    def test_fixture_snapshot_is_json_ready(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        snap = FleetAggregator("campaign_state").poll(now=None)
        payload = json.loads(json.dumps(snap.to_dict(), sort_keys=True))
        assert payload["status"] == "RUNNING"
        assert payload["paths_done"] == 8
        assert [u["id"] for u in payload["units"]] == [0, 1, 2, 3]
