"""Tests for run-level observability wiring (env config, observe_run)."""

import json

import pytest

from repro.config import RunConfig
from repro.obs import (
    InvariantViolation,
    MetricsRegistry,
    SpanTracer,
    observe_run,
    open_flight_log,
)
from repro.sim import DumbbellConfig, Simulator, build_dumbbell
from repro.tcp import NewRenoSender, TcpSink


def build_scenario():
    """Tiny dumbbell with one NewReno flow (sub-second to simulate)."""
    sim = Simulator()
    db = build_dumbbell(sim, DumbbellConfig(bottleneck_rate_bps=2e6, buffer_pkts=10))
    pair = db.add_pair(rtt=0.05)
    snd = NewRenoSender(sim, pair.left, 1, pair.right.node_id)
    snd.start(0.0)
    sink = TcpSink(sim, pair.right, 1, pair.left.node_id)
    return sim, db, snd, sink


def tick():
    pass


ENV_METRICS_OUT = "REPRO_METRICS_OUT"
ENV_CHECK_INVARIANTS = "REPRO_CHECK_INVARIANTS"


class TestObservationConfig:
    """The two observe_run knobs as RunConfig reads them."""

    def test_defaults_off(self, monkeypatch):
        for k in (ENV_METRICS_OUT, ENV_CHECK_INVARIANTS):
            monkeypatch.delenv(k, raising=False)
        cfg = RunConfig.from_env()
        assert cfg.metrics_out is None
        assert cfg.check_invariants is False

    def test_env_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_METRICS_OUT, str(tmp_path / "m.json"))
        monkeypatch.setenv(ENV_CHECK_INVARIANTS, "TRUE")
        cfg = RunConfig.from_env()
        assert (cfg.metrics_out, cfg.check_invariants) == (tmp_path / "m.json", True)

    def test_falsy_strings_are_off(self, monkeypatch):
        monkeypatch.setenv(ENV_CHECK_INVARIANTS, "0")
        monkeypatch.setenv(ENV_METRICS_OUT, "")
        cfg = RunConfig.from_env()
        assert cfg.metrics_out is None
        assert cfg.check_invariants is False


class TestDisabledObservation:
    def test_everything_is_inert(self, monkeypatch):
        for k in (ENV_METRICS_OUT, ENV_CHECK_INVARIANTS):
            monkeypatch.delenv(k, raising=False)
        sim, db, snd, sink = build_scenario()
        obs = observe_run(sim, db=db, flows=[(snd, sink)])
        assert obs.enabled is False
        with obs.profiled():
            sim.run(until=0.2)
        assert obs.finalize(duration=0.2) is None
        assert sim.metrics is None  # nothing was attached


class TestEnabledObservation:
    def test_end_to_end_clean_run(self, tmp_path):
        sim, db, snd, sink = build_scenario()
        path = tmp_path / "m.json"
        obs = observe_run(
            sim, db=db, name="mini", flows=[(snd, sink)],
            metrics_out=path, check_invariants=True, check_interval=0.1,
        )
        with obs.profiled():
            sim.run(until=2.0)
        data = obs.finalize(duration=2.0)
        assert data is not None

        # Metrics JSON written with the sections the issue requires.
        on_disk = json.loads(path.read_text())
        assert on_disk["name"] == "mini"
        g = on_disk["gauges"]
        assert g["engine.events_processed"] > 0
        assert 0.0 < g["link.bottleneck.utilization"] <= 1.0
        assert g["invariants.violations"] == 0
        assert g["invariants.checks_run"] >= 10  # 0.1s cadence over 2s
        inv = on_disk["invariants"]
        assert "bottleneck" in inv["queues"]
        assert "flow1" in inv["flows"]
        assert inv["flows"]["flow1"]["packets_sent"] > 0
        loop = on_disk["event_loop"]
        assert loop["events"] > 0
        assert loop["events_per_sec"] > 0
        assert on_disk["warnings"] == []

    def test_event_loop_section_equals_engine_truth(self, tmp_path):
        # Known corpses: three cancelled timers in a queue too small to
        # compact, so each one leaves through a pop.  The invariant sweeps
        # add their own events, which the gauge delta must include.
        sim = Simulator()
        fired = []
        handles = [sim.schedule(0.1 * (i + 1), fired.append, i) for i in range(10)]
        for h in handles[1::3]:
            h.cancel()
        sim.schedule(0.05, tick).cancel()  # cancelled before the block
        sim.run(until=0.06)
        obs = observe_run(
            sim, metrics_out=tmp_path / "m.json", check_invariants=True,
            check_interval=0.25,
        )
        before = obs.registry.gauge("engine.events_processed").value
        with obs.profiled():
            sim.run(until=2.0)
        data = obs.finalize(duration=2.0)
        loop = data["event_loop"]
        assert set(loop) == {
            "events", "wall_time_s", "events_per_sec", "sim_time_advanced_s",
            "cancelled_popped", "cancelled_ratio", "heap_compactions",
        }
        assert len(fired) == 7
        assert loop["events"] == data["gauges"]["engine.events_processed"] - before
        assert loop["events"] > len(fired)  # the sweeps ran inside the block
        assert loop["cancelled_popped"] == 3
        assert loop["cancelled_ratio"] == pytest.approx(3 / (loop["events"] + 3))
        assert loop["heap_compactions"] == 0
        assert loop["sim_time_advanced_s"] == pytest.approx(2.0 - 0.06)
        assert json.loads((tmp_path / "m.json").read_text())["event_loop"] == loop

    def test_finalize_materializes_registry_once(self, monkeypatch, tmp_path):
        # metrics_out and the run directory's metrics.json are written from
        # one as_dict() and one encoding, so they carry the same bytes.
        monkeypatch.setenv("REPRO_TELEMETRY_OUT", str(tmp_path / "run"))
        calls = []
        as_dict = MetricsRegistry.as_dict
        monkeypatch.setattr(
            MetricsRegistry, "as_dict", lambda self: calls.append(1) or as_dict(self)
        )
        sim, db, snd, sink = build_scenario()
        obs = observe_run(
            sim, db=db, flows=[(snd, sink)], metrics_out=tmp_path / "m.json",
            check_invariants=True,
        )
        with obs.profiled():
            sim.run(until=0.5)
        data = obs.finalize(duration=0.5)
        assert len(calls) == 1
        text = (tmp_path / "m.json").read_text()
        assert (tmp_path / "run" / "metrics.json").read_text() == text
        assert json.loads(text) == json.loads(json.dumps(data))

    def test_run_to_drain_gets_exact_flow_equality(self):
        sim, db, snd, sink = build_scenario()
        snd.total_packets = 200  # finite transfer so the loop drains
        obs = observe_run(
            sim, db=db, flows=[(snd, sink)], check_invariants=True,
        )
        with obs.profiled():
            sim.run()
        assert sim.pending == 0
        data = obs.finalize(duration=sim.now)
        flow = data["invariants"]["flows"]["flow1"]
        # Drained loop + complete traces: conservation held exactly.
        assert (
            flow["sink_packets_arrived"] + flow["dropped"] == flow["packets_sent"]
        )

    def test_injected_fault_aborts_finalize(self):
        sim, db, snd, sink = build_scenario()
        obs = observe_run(
            sim, db=db, flows=[(snd, sink)], check_invariants=True,
            check_interval=10.0,  # keep periodic sweeps out of the way
        )
        with obs.profiled():
            sim.run(until=0.5)
        db.bottleneck_fwd.queue.dropped += 1  # inject an accounting error
        with pytest.raises(InvariantViolation) as exc:
            obs.finalize(duration=0.5)
        assert exc.value.invariant == "queue.arrival"
        assert exc.value.subject == "bottleneck"
        assert exc.value.snapshot["arrived"] >= 0

    def test_env_fallback_enables_checking(self, monkeypatch, tmp_path):
        path = tmp_path / "env.json"
        monkeypatch.setenv(ENV_CHECK_INVARIANTS, "1")
        monkeypatch.setenv(ENV_METRICS_OUT, str(path))
        sim, db, snd, sink = build_scenario()
        obs = observe_run(sim, db=db, flows=[(snd, sink)])
        assert obs.enabled is True
        assert obs.checker is not None
        with obs.profiled():
            sim.run(until=0.3)
        obs.finalize(duration=0.3)
        assert path.exists()

    def test_metrics_only_run_skips_checker(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_CHECK_INVARIANTS, raising=False)
        sim, db, snd, sink = build_scenario()
        obs = observe_run(
            sim, db=db, flows=[(snd, sink)],
            metrics_out=tmp_path / "m.json", check_invariants=False,
        )
        assert obs.enabled is True
        assert obs.checker is None
        with obs.profiled():
            sim.run(until=0.2)
        data = obs.finalize(duration=0.2)
        assert "invariants" not in data
        assert "event_loop" in data


class TestOpenFlightLog:
    """``open_flight_log`` is the one constructor of a run's flight record."""

    def test_disabled_log_is_inert(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TELEMETRY_OUT", raising=False)
        log = open_flight_log("x", {"seed": 1}, sim=Simulator())
        assert (log.tracer, log.run_dir) == (None, None)
        log.event("fault.link_down", count=1)
        assert log.finalize() is None

    def test_armed_log_carries_a_tracer(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY_OUT", str(tmp_path / "D"))
        sim = Simulator()
        sim.schedule_at(2.5, tick)
        log = open_flight_log("x", {"seed": 1}, sim=sim)
        assert isinstance(log.tracer, SpanTracer) and log.tracer.name == "x"
        with log.span("run"):
            sim.run(until=3.0)
        assert log.finalize() == tmp_path / "D"
        manifest = json.loads((tmp_path / "D" / "manifest.json").read_text())
        assert (manifest["name"], manifest["seed"]) == ("x", 1)
        (span,) = [json.loads(line) for line in
                   (tmp_path / "D" / "spans.jsonl").read_text().splitlines()]
        assert (span["name"], span["sim_start"], span["sim_end"]) == ("run", 0.0, 3.0)

    def test_span_is_null_safe(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TELEMETRY_OUT", raising=False)
        with open_flight_log("x").span("anything"):
            pass  # null context: no error, nothing recorded

    def test_dotted_name_gets_its_own_run_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY_OUT", str(tmp_path / "D"))
        assert open_flight_log("shortflows.churn").run_dir == tmp_path / "D" / "shortflows.churn"
        assert open_flight_log("fig2").run_dir == tmp_path / "D"
