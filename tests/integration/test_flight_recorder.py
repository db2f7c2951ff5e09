"""End-to-end tests for the flight recorder: run drivers with telemetry
armed, then assert the artifacts exist, the reports validate, and repeated
runs with the same seed produce byte-identical reports."""

import json
import os

import pytest

from repro.experiments.common import Scale
from repro.experiments.fig2_ns2 import run_fig2
from repro.experiments.fig4_planetlab import run_fig4
from repro.experiments.fig7_competition import run_fig7
from repro.experiments.fig8_parallel import run_fig8
from repro.faults.plan import FaultPlan
from repro.obs.report import validate_report

ENV_TELEMETRY_OUT = "REPRO_TELEMETRY_OUT"
ENV_REPORT = "REPRO_REPORT"

TINY = Scale(
    name="tiny",
    capacity_bps=5e6,
    n_tcp_flows=2,
    n_noise_flows=2,
    noise_load=0.10,
    measure_duration=3.0,
    fig7_capacity_bps=5e6,
    fig7_flows_per_class=1,
    fig7_duration=3.0,
    fig8_capacity_bps=5e6,
    fig8_total_bytes=256 * 1024,
    fig8_flow_counts=(1, 2),
    fig8_rtts=(0.01, 0.05),
    fig8_repetitions=1,
    campaign_experiments=6,
    campaign_probe_duration=60.0,
)

ARTIFACTS = ("manifest.json", "telemetry.json", "spans.jsonl", "report.md")


@pytest.fixture
def armed(monkeypatch, tmp_path):
    """Arm telemetry + report into a run dir factory; yields dir maker."""

    def make(name):
        d = tmp_path / name
        monkeypatch.setenv(ENV_TELEMETRY_OUT, str(d))
        monkeypatch.setenv(ENV_REPORT, "1")
        return d

    return make


class TestRunDirArtifacts:
    def test_fig2_writes_full_run_dir(self, armed):
        d = armed("fig2")
        run_fig2(seed=3, scale=TINY)
        for name in ARTIFACTS:
            assert (d / name).exists(), name
        report = (d / "report.md").read_text()
        validate_report(report)
        assert "flow.100.cwnd" in report
        tele = json.loads((d / "telemetry.json").read_text())
        assert tele["raster"] is not None
        assert tele["flows"]  # per-flow summary rows present
        names = [json.loads(l)["name"]
                 for l in (d / "spans.jsonl").read_text().splitlines()]
        for phase in ("setup", "run", "analyze"):
            assert phase in names

    def test_fig8_parent_flight_log(self, armed):
        d = armed("fig8")
        run_fig8(seed=3, scale=TINY, workers=2)
        for name in ARTIFACTS:
            assert (d / name).exists(), name
        validate_report((d / "report.md").read_text())
        records = [json.loads(l)
                   for l in (d / "spans.jsonl").read_text().splitlines()]
        cells = [r for r in records if r["name"] == "fig8.cell"]
        # one recorded span per grid cell (2 counts x 2 rtts x 1 rep)
        assert len(cells) == 4
        assert all(r["attrs"]["ok"] for r in cells)
        # Each cell is a named run of its own, recorded below the grid's.
        runs = sorted(p for p in d.iterdir() if p.is_dir())
        assert [p.name for p in runs] == sorted(
            f"fig8.n{n}.rtt{rtt * 1e3:g}ms.s{30_000 + n}"
            for n in TINY.fig8_flow_counts for rtt in TINY.fig8_rtts)
        for run in runs:
            assert json.loads((run / "manifest.json").read_text())["n_flows"] > 0


class TestByteIdenticalReports:
    @pytest.mark.parametrize("runner", [
        pytest.param(lambda: run_fig2(seed=5, scale=TINY), id="fig2"),
        pytest.param(lambda: run_fig7(seed=5, scale=TINY), id="fig7"),
        pytest.param(lambda: run_fig8(seed=5, scale=TINY, workers=2),
                     id="fig8"),
    ])
    def test_same_seed_same_report(self, armed, runner):
        texts = []
        for tag in ("a", "b"):
            d = armed(tag)
            runner()
            texts.append((d / "report.md").read_bytes())
        assert texts[0] == texts[1]


class TestFaultSpanEvents:
    def test_campaign_faults_land_in_span_trace(self, armed):
        d = armed("fig4")
        plan = (FaultPlan(seed=11)
                .add_probe_crash(1, crashes=1)
                .add_probe_crash(3, crashes=2))
        run_fig4(seed=7, scale=TINY, workers=2, on_error="retry",
                 fault_plan=plan)
        records = [json.loads(l)
                   for l in (d / "spans.jsonl").read_text().splitlines()]
        crashes = [r for r in records
                   if r["kind"] == "event" and r["name"] == "fault.probe_crash"]
        # Every injected crash appears as a span event; counts match the plan.
        assert sum(r["attrs"]["count"] for r in crashes) == 3
        assert {r["attrs"]["index"] for r in crashes} == {1, 3}
        report = (d / "report.md").read_text()
        validate_report(report)
        assert "probe_crash" in report

    def test_disabled_path_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_TELEMETRY_OUT, raising=False)
        monkeypatch.delenv(ENV_REPORT, raising=False)
        cwd_before = set(os.listdir(tmp_path))
        run_fig2(seed=3, scale=TINY)
        assert set(os.listdir(tmp_path)) == cwd_before
