"""Tests for TCP-trace loss reconstruction and methodology comparison."""

import numpy as np
import pytest

from repro.core import compare_methodologies, reconstruct_losses_from_retransmissions
from repro.experiments import Scale
from repro.experiments.methodology import PROBE_FLOW, methodology_spec, run_methodology
from repro.experiments.scenario import run_scenario

TINY = Scale(
    name="fast", capacity_bps=10e6, n_tcp_flows=6, n_noise_flows=4, noise_load=0.1,
    measure_duration=10.0, fig7_capacity_bps=20e6, fig7_flows_per_class=4,
    fig7_duration=10.0, fig8_capacity_bps=10e6, fig8_total_bytes=2 * 2**20,
    fig8_flow_counts=(2, 4), fig8_rtts=(0.01, 0.1), fig8_repetitions=2,
    campaign_experiments=30, campaign_probe_duration=30.0,
)


class TestReconstruction:
    def test_back_shift_by_flow_rtt(self):
        est = reconstruct_losses_from_retransmissions(
            {1: np.array([1.0, 2.0]), 2: np.array([1.5])},
            {1: 0.1, 2: 0.5},
        )
        np.testing.assert_allclose(est, [0.9, 1.0, 1.9])

    def test_zero_shift(self):
        est = reconstruct_losses_from_retransmissions(
            {1: np.array([1.0])}, {1: 0.1}, back_shift_rtt=0.0
        )
        np.testing.assert_allclose(est, [1.0])

    def test_clamped_at_zero(self):
        est = reconstruct_losses_from_retransmissions(
            {1: np.array([0.01])}, {1: 0.5}
        )
        assert est[0] == 0.0

    def test_empty_flows_skipped(self):
        est = reconstruct_losses_from_retransmissions(
            {1: np.array([]), 2: np.array([3.0])}, {2: 0.1}
        )
        assert len(est) == 1

    def test_missing_rtt_raises(self):
        with pytest.raises(ValueError):
            reconstruct_losses_from_retransmissions(
                {1: np.array([1.0])}, {}
            )

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_losses_from_retransmissions(
                {1: np.array([1.0])}, {1: 0.1}, back_shift_rtt=-1.0
            )

    def test_no_losses(self):
        assert len(reconstruct_losses_from_retransmissions({}, {})) == 0


class TestComparison:
    def test_identical_traces_zero_error(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 100, 500))
        cmp = compare_methodologies(t, t, t, rtt=0.1)
        e1, e2 = cmp.frac_001_errors()
        assert e1 == 0.0 and e2 == 0.0
        ev1, ev2 = cmp.event_count_errors()
        assert ev1 == 0.0 and ev2 == 0.0

    def test_text_output(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 100, 500))
        cmp = compare_methodologies(t, t[::2], t[::3], rtt=0.1)
        txt = cmp.to_text()
        assert "router (truth)" in txt and "cbr-probe" in txt


class TestMethodologyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_methodology(seed=1, scale=TINY)

    def test_all_instruments_saw_losses(self, result):
        assert result.n_router_drops > 100
        assert result.n_tcp_estimates > 10
        assert result.n_probe_losses > 10

    def test_cbr_preserves_event_process_better(self, result):
        """The paper's methodological claim, quantified: the CBR probe's
        congestion-event count tracks the router truth more closely than
        the TCP-trace reconstruction's."""
        e_tcp, e_cbr = result.comparison.event_count_errors()
        assert e_cbr < e_tcp

    def test_tcp_trace_confounds_loss_and_tcp_burstiness(self, result):
        """The paper's §2 critique: the retransmission record mixes the
        flows' own dynamics into the estimate — fast-recovery smearing
        (holes refilled one per RTT) and go-back-N resend bursts that
        never correspond to distinct losses.  The reconstructed loss
        COUNT is therefore biased, and the event structure is distorted,
        in whichever direction the mix happens to fall."""
        truth_n = result.comparison.ground_truth.n_losses
        tcp_n = result.comparison.tcp_trace.n_losses
        assert abs(tcp_n - truth_n) / truth_n > 0.10
        e_tcp, _ = result.comparison.event_count_errors()
        assert e_tcp > 0.15

    def test_every_probe_loss_is_a_router_drop(self, result):
        """A probe still in flight when the run stops is not a loss.  The
        probe falls silent one drain horizon before the end, so the
        losses it reports are exactly the router's drops of its flow."""
        spec, _ = methodology_spec(1, TINY)
        run = run_scenario(spec, 1, "t")
        router = int(np.sum(run.drop_fids == PROBE_FLOW))
        assert router > 0
        src, sink = run.extra
        assert len(src.lost_times(sink.received_set())) == router
        assert result.n_probe_losses == router

    def test_text(self, result):
        assert "three instruments" in result.to_text()
