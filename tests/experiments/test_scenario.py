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
from repro.experiments.fig3_dummynet import fig3_spec, quantize, run_fig3
from repro.experiments.fig7_competition import fig7_spec
from repro.experiments.fig8_parallel import fig8_spec
from repro.experiments.manyflows import packet_scenario
from repro.experiments.methodology import methodology_spec
from repro.experiments.scenario import COMPLETION_POLL_S, FlowClass, run_scenario
from repro.experiments.shortflows import churn_spec
from repro.extensions import run_ecn_fairness
from repro.extensions.delay_based import delay_spec
from repro.sim.engine import Simulator
from repro.sim.queues import REDParams
from tests.experiments import dumbbell_oracle as oracle

TINY = replace(
    FAST,
    capacity_bps=10e6, n_tcp_flows=4, n_noise_flows=2, measure_duration=3.0,
    fig7_capacity_bps=10e6, fig7_flows_per_class=2, fig7_duration=3.0,
    fig8_capacity_bps=10e6, fig8_total_bytes=2**19,
)
SEED = 5


def _assert_same(run, expected, lossless=False):
    drop_times, drop_fids, times, mbps = expected
    # A run without drops would prove nothing, unless the extras carry it.
    assert lossless or len(drop_times) > 0
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

    def test_dummynet_pipe(self):
        spec, _ = fig3_spec(TINY)
        _assert_same(run_scenario(spec, SEED, "t"), oracle.dummynet(SEED, TINY))

    def test_fig3_reads_the_pipe_drops_on_the_clock(self):
        # run_fig3 floors the pipe's drop times to the 1 ms tick as it reads them.
        drop_times = oracle.dummynet(SEED, TINY)[0]
        got = run_fig3(SEED, TINY).drop_times
        assert not np.array_equal(got, drop_times)
        assert np.array_equal(got, quantize(drop_times))

    def test_methodology_probe_joins_before_the_noise(self):
        spec, _ = methodology_spec(SEED, TINY)
        run = run_scenario(spec, SEED, "t")
        *expected, (retx, probe_lost) = oracle.methodology(SEED, TINY)
        _assert_same(run, expected)
        src, sink = run.extra
        # The probe pair is the next one built after the last flow's pair
        # (hosts number up in build order), not after the noise fleet.
        assert src.host.node_id == run.flows[-1][0].host.node_id + 2
        assert [list(snd.retx_times) for snd, _ in run.flows] == retx
        assert len(probe_lost) > 0
        assert np.array_equal(src.lost_times(sink.received_set()), probe_lost)

    @pytest.mark.parametrize("sender", ["newreno", "fast"])
    def test_delay_signal_samples_every_window(self, sender):
        rtts = (0.02, 0.05, 0.09, 0.12)
        run = run_scenario(delay_spec(sender, TINY, rtts), SEED, "t")
        *expected, (samples, nbytes) = oracle.delay_signal(SEED, TINY, sender == "fast", rtts)
        _assert_same(run, expected, lossless=sender == "fast")
        assert run.extra == samples and len(samples[0]) > 2
        assert [sink.stats.bytes_received for _, sink in run.flows] == nbytes

    def test_manyflows_classes_share_one_pair(self):
        run = run_scenario(packet_scenario(20, TINY), SEED, "t")
        *expected, (base, final) = oracle.manyflows_packet(SEED, TINY, 20)
        _assert_same(run, expected)
        assert {snd.host.name for snd, _ in run.flows} == {"near.snd", "far.snd"}
        assert run.extra == base and any(base)
        assert [s.stats.fast_retransmits + s.stats.timeouts for s, _ in run.flows] == final

    def test_churn_leg(self):
        spec, _ = churn_spec(TINY)
        run = run_scenario(spec, SEED + 1, "t")
        *expected, (started, completed) = oracle.churn(SEED, TINY)
        _assert_same(run, expected)
        assert run.flows == []
        assert (run.extra.flows_started, run.extra.flows_completed) == (started, completed)

    @pytest.mark.parametrize("n_flows,rtt", [(4, 0.05), (2, 0.2)])
    def test_parallel_transfer(self, n_flows, rtt):
        run = run_scenario(fig8_spec(n_flows, rtt, TINY), SEED, "t")
        *expected, (finish, fids) = oracle.parallel_transfer(SEED, TINY, n_flows, rtt)
        _assert_same(run, expected)
        assert None not in finish
        assert [snd.stats.finish_time for snd, _ in run.flows] == finish
        assert [snd.flow_id for snd, _ in run.flows] == fids


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

    @pytest.mark.parametrize("field", [{"pipe_noise": 1e-4}, {"on_build": lambda *a: None}])
    def test_fluid_refuses_the_packet_only_fields(self, field):
        spec = fig7_spec(TINY, 0.05, 1.0, 0.5)
        spec.fluid()  # the spec itself converts
        with pytest.raises(ValueError):
            replace(spec, **field).fluid()

    def test_shared_pair_needs_one_rtt(self):
        with pytest.raises(ValueError):
            FlowClass("newreno", (0.1, 0.2), "c", shared_pair=True)


class TestStopRule:
    def test_an_early_stopped_run_reports_over_the_time_run(self, tmp_path, monkeypatch):
        """The transfers finish long before ``duration`` (60x the bound):
        utilization, the link gauge and the flow summaries' goodput are
        over the time run, which ends within a slice of the last finish."""
        monkeypatch.setenv("REPRO_METRICS_OUT", str(tmp_path / "m.json"))
        monkeypatch.setenv("REPRO_TELEMETRY_OUT", str(tmp_path / "d"))
        spec = fig8_spec(4, 0.02, TINY)
        run = run_scenario(spec, SEED, "t")
        last = max(snd.stats.finish_time for snd, _ in run.flows)
        ran = json.loads((tmp_path / "d" / "manifest.json").read_text())["duration"]
        assert last <= ran <= last + COMPLETION_POLL_S + 1e-9
        assert ran < spec.duration / 10
        gauges = json.loads((tmp_path / "m.json").read_text())["gauges"]
        assert gauges["link.bottleneck.utilization"] == run.utilization > 0.5
        summaries = json.loads((tmp_path / "d" / "telemetry.json").read_text())["flows"]
        acked = sum(snd.highest_acked * snd.packet_size for snd, _ in run.flows)
        goodput = sum(row["goodput_mbps"] for row in summaries)
        assert goodput == pytest.approx(acked * 8.0 / ran / 1e6, rel=1e-5)
        assert goodput > 0.5 * spec.capacity_bps / 1e6

    @pytest.mark.parametrize("spec", [fig7_spec(TINY, 0.05, 1.0, 0.5), churn_spec(TINY)[0]],
                             ids=["long-lived", "churn"])
    def test_a_run_without_finite_flows_is_one_sim_run(self, spec, monkeypatch):
        """Churn's transfers are finite but not in ``flows``: its run, like
        every long-lived one, is a single ``sim.run`` to ``duration``."""
        calls = []
        run = Simulator.run

        def counting_run(sim, until=float("inf"), max_events=None):
            calls.append(until)
            return run(sim, until, max_events)

        monkeypatch.setattr(Simulator, "run", counting_run)
        run_scenario(spec, SEED, "t")
        assert calls == [spec.duration]


def test_fleet_spec_fields_override_every_field():
    spec, _ = fleet_spec(1, FAST, 1.0, duration=8.0, capacity_bps=5e6, noise_flows=0)
    assert (spec.duration, spec.capacity_bps, spec.noise_flows) == (8.0, 5e6, 0)


def test_ecn_fairness_runs_under_observability(tmp_path, monkeypatch):
    """eq12, ecn, red and shortflows pass through observe_run too: the
    invariant sweeps run on their bottlenecks and the metrics land, one
    file per run (ecn makes two)."""
    out = tmp_path / "metrics.json"
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    monkeypatch.setenv("REPRO_METRICS_OUT", str(out))
    run_ecn_fairness(seed=SEED, scale=TINY)
    for run in ("ecn.droptail", "ecn.pecn"):
        gauges = json.loads((tmp_path / f"metrics.{run}.json").read_text())["gauges"]
        assert gauges["invariants.checks_run"] > 0
        assert gauges["invariants.violations"] == 0
    assert not out.exists()
