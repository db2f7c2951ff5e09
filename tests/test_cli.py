"""Tests for the command-line interface."""

import os
import re
from dataclasses import fields

import pytest

from repro.cli import EXPERIMENTS, main
from repro.config import RunConfig

#: The ten RunConfig variables, the only REPRO_* knobs the CLI knows.
CONFIG_VARS = {f.metadata["var"] for f in fields(RunConfig)}


class TestCli:
    def test_list_enumerates_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_every_figure_registered(self):
        for required in ("fig2", "fig3", "fig4", "fig7", "fig8", "table1", "eq12"):
            assert required in EXPERIMENTS

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "planetlab" in out

    def test_eq12_analytic_part(self, capsys):
        # eq12 runs a real simulation; just check the command wiring by
        # running the cheapest one and checking the frame text appears.
        assert main(["table1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "[table1:" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure-nine"])

    @pytest.mark.parametrize("argv", [["bench"], ["fig2", "--smoke"]])
    def test_retired_bench_surface_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_scale_flag_parses(self, capsys):
        assert main(["table1", "--scale", "fast"]) == 0

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "galactic"])

    def test_out_file_appends_results(self, tmp_path, capsys):
        out = tmp_path / "results.txt"
        assert main(["table1", "--out", str(out)]) == 0
        assert main(["table1", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("Table 1") >= 2  # appended, not truncated


class TestHelpEpilog:
    def test_help_lists_env_knobs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("environment knobs")[1]
        # Exactly the ten RunConfig variables: a retired knob is gone from
        # the help, not just unset.
        assert len(CONFIG_VARS) == 10
        assert set(re.findall(r"REPRO_[A-Z_]+", epilog)) == CONFIG_VARS
        assert "--telemetry-out" in epilog and "--report" in epilog


class TestRunConfigRoundTrip:
    """Every table flag reaches RunConfig.from_env() inside the driver,
    and the environment is exactly restored afterwards."""

    def _argv(self, tmp_path):
        return [
            "stub",
            "--scale", "paper",
            "--workers", "3",
            "--on-error", "skip",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--inject-faults", "11",
            "--metrics-out", str(tmp_path / "m.json"),
            "--check-invariants",
            "--telemetry-out", str(tmp_path / "run"),
            "--report",
            "--metrics-port", "0",
        ]

    def _repro_env(self) -> dict:
        return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}

    def test_every_flag_reaches_the_driver(self, monkeypatch, tmp_path, capsys):
        seen = []

        def stub(seed, scale):
            seen.append(RunConfig.from_env())
            return "stub result"

        monkeypatch.setitem(EXPERIMENTS, "stub", (stub, "stub experiment"))
        monkeypatch.setenv("REPRO_WORKERS", "5")  # a value to restore
        for var in CONFIG_VARS - {"REPRO_WORKERS"}:
            monkeypatch.delenv(var, raising=False)
        before = self._repro_env()
        assert main(self._argv(tmp_path)) == 0
        assert self._repro_env() == before
        expected = {
            "scale": "paper",
            "workers": 3,
            "on_error": "skip",
            "checkpoint_dir": tmp_path / "ckpt",
            "fault_seed": 11,
            "metrics_out": tmp_path / "m.json",
            "check_invariants": True,
            "telemetry_out": tmp_path / "run",
            "report": True,
            "metrics_port": 0,
        }
        assert [f.name for f in fields(RunConfig)] == list(expected)
        (cfg,) = seen
        for name, value in expected.items():
            assert getattr(cfg, name) == value, name
        assert "stub result" in capsys.readouterr().out

    def test_environment_restored_when_driver_raises(self, monkeypatch, tmp_path):
        def stub(seed, scale):
            assert RunConfig.from_env().fault_seed == 11
            raise RuntimeError("driver died")

        monkeypatch.setitem(EXPERIMENTS, "stub", (stub, "stub experiment"))
        monkeypatch.setenv("REPRO_SCALE", "fast")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        before = self._repro_env()
        with pytest.raises(RuntimeError, match="driver died"):
            main(self._argv(tmp_path))
        assert self._repro_env() == before


class TestReportCommand:
    def _run_dir(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"name": "demo", "seed": 1}')
        return tmp_path

    def test_renders_run_dir(self, tmp_path, capsys):
        d = self._run_dir(tmp_path)
        assert main(["report", str(d)]) == 0
        captured = capsys.readouterr()
        assert "# Flight report: demo" in captured.out
        assert (d / "report.md").exists()

    def test_html_flag(self, tmp_path, capsys):
        d = self._run_dir(tmp_path)
        assert main(["report", str(d), "--html"]) == 0
        assert (d / "report.html").exists()

    def test_missing_target_is_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_dir_is_runtime_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "report:" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_telemetry_out_records_and_reports(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_OUT", raising=False)
        d = tmp_path / "flight"
        assert main(["fig2", "--seed", "3",
                     "--telemetry-out", str(d), "--report"]) == 0
        for name in ("manifest.json", "telemetry.json", "spans.jsonl",
                     "report.md"):
            assert (d / name).exists(), name
        # Flag-set env must not leak past main().
        assert "REPRO_TELEMETRY_OUT" not in os.environ
        assert "REPRO_REPORT" not in os.environ
