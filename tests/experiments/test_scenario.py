"""The scenario builder against hand-built dumbbells, and its views.

Every figure driver that runs the Figure 1 dumbbell is a spec over
:func:`repro.experiments.scenario.run_scenario`, so driver-vs-driver
comparisons (the zoo's paced/droptail cell vs ``run_fig7``) hold by
construction.  The independent check is ``dumbbell_oracle``: the old
hand-written loops.  Drop times, drop flow ids and per-class throughput
series must match them exactly.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import FAST
from repro.experiments.fig2_ns2 import fleet_spec
from repro.experiments.fig7_competition import fig7_spec
from repro.experiments.scenario import run_scenario
from repro.extensions import run_ecn_fairness
from repro.sim.queues import REDParams
from tests.experiments import dumbbell_oracle as oracle

TINY = replace(
    FAST,
    capacity_bps=10e6, n_tcp_flows=4, n_noise_flows=2, measure_duration=3.0,
    fig7_capacity_bps=10e6, fig7_flows_per_class=2, fig7_duration=3.0,
)
SEED = 5


def _assert_same(run, expected):
    drop_times, drop_fids, times, mbps = expected
    assert len(drop_times) > 0  # a run without drops would prove nothing
    assert np.array_equal(run.drop_times, drop_times)
    assert np.array_equal(run.drop_fids, drop_fids)
    if times is None:
        assert run.times is None and run.mbps is None
        return
    assert np.array_equal(run.times, times)
    assert len(run.mbps) == len(mbps)
    for got, want in zip(run.mbps, mbps):
        assert np.array_equal(got, want)


class TestBuilderMatchesHandBuiltDumbbells:
    @pytest.mark.parametrize("challenger,aqm", [("paced", "droptail"), ("bbr", "fq-codel")])
    def test_competition(self, challenger, aqm):
        spec = fig7_spec(TINY, 0.05, 1.0, 0.5, challenger=challenger, queue=aqm)
        _assert_same(run_scenario(spec, SEED, "t"),
                     oracle.competition(SEED, TINY, challenger, aqm))

    def test_persistent_ecn_leg(self):
        spec = fig7_spec(TINY, 0.05, 0.5, 0.5, kwargs={"ecn": True}, queue="pecn",
                         queue_kwargs={"signal_duration": 0.075})
        _assert_same(run_scenario(spec, SEED, "t"), oracle.ecn_competition(SEED, TINY))

    def test_red_leg_draws_from_its_own_stream(self):
        spec, _ = fleet_spec(SEED, TINY, 0.5)
        buffer_pkts = max(8, spec.buffer_pkts)
        params = REDParams(min_th=max(1.0, 0.05 * buffer_pkts),
                           max_th=max(2.0, 0.15 * buffer_pkts), max_p=0.5)
        spec = replace(spec, buffer_pkts=buffer_pkts, queue="red",
                       queue_kwargs={"params": params}, aqm_stream="red")
        _assert_same(run_scenario(spec, SEED, "t"),
                     oracle.fleet(SEED, TINY, red=(0.05, 0.15, 0.5), min_buffer=8))

    @pytest.mark.parametrize("noise", [True, False])
    def test_fleet(self, noise):
        spec, mean_rtt = fleet_spec(SEED, TINY, 0.5, **({} if noise else {"noise_flows": 0}))
        assert spec.noise_flows == (TINY.n_noise_flows if noise else 0)
        assert mean_rtt == pytest.approx(float(np.mean(spec.classes[0].rtts)))
        _assert_same(run_scenario(spec, SEED, "t"), oracle.fleet(SEED, TINY, noise=noise))


class TestViews:
    def test_detection_counts_each_class_by_its_flow_ids(self):
        run = run_scenario(fig7_spec(TINY, 0.05, 1.0, None), SEED, "t")
        assert run.times is None and run.mean_mbps is None
        det = run.detection(0.05)
        assert det.events > 0
        assert sum(det.drops) == len(run.drop_fids)
        assert det.drops[0] == int(np.sum(run.drop_fids < 200))
        assert all(0.0 < hits <= TINY.fig7_flows_per_class for hits in det.hits)

    def test_fluid_keeps_the_spec_dimensions(self):
        spec = fig7_spec(TINY, 0.05, 1.0, 0.5, queue="red")
        fl = spec.fluid()
        assert [(c.sender, c.n, c.rtt) for c in fl.classes] == [
            ("newreno", 2, 0.05), ("paced", 2, 0.05)]
        assert (fl.capacity_bps, fl.buffer_pkts, fl.queue, fl.duration) == (
            spec.capacity_bps, spec.buffer_pkts, "red", spec.duration)

    def test_fluid_refuses_what_it_cannot_express(self):
        spec, _ = fleet_spec(SEED, TINY, 0.5)
        with pytest.raises(ValueError):
            spec.fluid()  # per-flow RTTs and a noise fleet
        ecn = fig7_spec(TINY, 0.05, 0.5, 0.5, kwargs={"ecn": True})
        with pytest.raises(ValueError):
            ecn.fluid()


def test_ecn_fairness_runs_under_observability(tmp_path, monkeypatch):
    """eq12, ecn, red and shortflows pass through observe_run too: the
    invariant sweeps run on their bottlenecks and the metrics land."""
    out = tmp_path / "metrics.json"
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    monkeypatch.setenv("REPRO_METRICS_OUT", str(out))
    run_ecn_fairness(seed=SEED, scale=TINY)
    gauges = json.loads(out.read_text())["gauges"]
    assert gauges["invariants.checks_run"] > 0
    assert gauges["invariants.violations"] == 0
