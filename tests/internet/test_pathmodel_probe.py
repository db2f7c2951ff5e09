"""Tests for the path loss model, probe runs, and validation rule."""

import numpy as np
import pytest

from repro.core import cluster_bursts, fraction_within
from repro.internet import (
    PathLossModel,
    ProbeConfig,
    build_rtt_matrix,
    run_probe,
    sample_path_loss_model,
    validate_pair,
)
from repro.internet.probe import PROBE_SIZES
from repro.sim.rng import RngStreams
from tests.internet import matrix_paths


def model(rtt=0.1, erate=1.0, edur=0.005, h=0.9, eps=1e-4):
    return PathLossModel(
        rtt=rtt,
        episode_rate=erate,
        episode_mean_duration=edur,
        episode_drop_prob=h,
        random_loss_prob=eps,
    )


class TestPathLossModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            model(rtt=0.0)
        with pytest.raises(ValueError):
            model(edur=0.0)
        with pytest.raises(ValueError):
            model(h=1.5)
        with pytest.raises(ValueError):
            model(eps=-0.1)

    def test_episode_sampling_count(self):
        m = model(erate=5.0)
        rng = np.random.default_rng(0)
        starts, durs = m.sample_episodes(1000.0, rng)
        assert len(starts) == pytest.approx(5000, rel=0.1)
        assert np.all(np.diff(starts) >= 0)
        assert durs.mean() == pytest.approx(0.005, rel=0.1)

    def test_lost_mask_rate_matches_expectation(self):
        m = model(erate=1.0, edur=0.01, h=0.8, eps=1e-4)
        rng = np.random.default_rng(1)
        t = np.arange(0, 600.0, 0.001)
        lost = m.lost_mask(t, rng)
        duty = 1.0 * 0.01  # episode rate x mean duration: time inside episodes
        assert lost.mean() == pytest.approx(duty * 0.8 + (1 - duty) * 1e-4, rel=0.25)

    def test_losses_cluster_in_episodes(self):
        m = model(erate=0.5, edur=0.01, h=0.95, eps=0.0)
        rng = np.random.default_rng(2)
        t = np.arange(0, 300.0, 0.001)
        lost_times = t[m.lost_mask(t, rng)]
        bursts = cluster_bursts(lost_times, gap=0.05)
        sizes = np.array([b.count for b in bursts])
        assert sizes.mean() > 3.0  # multi-packet bursts, not isolated losses

    def test_pure_random_loss_is_poisson_like(self):
        m = model(erate=0.0, edur=0.01, h=0.9, eps=5e-3)
        rng = np.random.default_rng(3)
        t = np.arange(0, 300.0, 0.001)
        lost_times = t[m.lost_mask(t, rng)]
        bursts = cluster_bursts(lost_times, gap=0.05)
        sizes = np.array([b.count for b in bursts])
        assert sizes.mean() < 1.5

    def test_shared_episodes_reproduce_weather(self):
        m = model()
        rng1 = np.random.default_rng(4)
        episodes = m.sample_episodes(10.0, rng1)
        t = np.arange(0, 10.0, 0.001)
        a = m.lost_mask(t, np.random.default_rng(5), episodes=episodes)
        b = m.lost_mask(t, np.random.default_rng(6), episodes=episodes)
        # Different per-packet draws, same weather: loss rates close.
        assert abs(a.mean() - b.mean()) < 0.5 * max(a.mean(), b.mean(), 1e-9)

    def test_empty_probe_times(self):
        m = model()
        assert m.lost_mask(np.array([]), np.random.default_rng(0)).shape == (0,)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            model().sample_episodes(0.0, np.random.default_rng(0))


class TestSampleModel:
    def test_deterministic_per_path(self):
        mtx = build_rtt_matrix()
        p = matrix_paths(mtx)[0]
        a = sample_path_loss_model(p, RngStreams(9))
        b = sample_path_loss_model(p, RngStreams(9))
        assert a.episode_rate == b.episode_rate
        assert a.random_loss_prob == b.random_loss_prob

    def test_heterogeneous_across_paths(self):
        mtx = build_rtt_matrix()
        streams = RngStreams(9)
        rates = {sample_path_loss_model(p, streams).episode_rate
                 for p in matrix_paths(mtx)[:20]}
        assert len(rates) == 20

    def test_duration_scales_with_rtt(self):
        mtx = build_rtt_matrix()
        streams = RngStreams(9)
        long_paths = [p for p in matrix_paths(mtx) if p.base_rtt > 0.2]
        m = sample_path_loss_model(long_paths[0], streams)
        assert m.episode_mean_duration >= 0.025 * 0.2


class TestProbe:
    def test_probe_counts_and_ordering(self):
        cfg = ProbeConfig(interval=0.001, duration=10.0, jitter=0.0)
        mtx = build_rtt_matrix()
        p = matrix_paths(mtx)[0]
        run = run_probe(p, model(rtt=p.base_rtt), np.random.default_rng(0), cfg)
        assert run.n_sent == 10_000
        assert np.all(np.diff(run.loss_times) >= 0)
        assert 0 <= run.loss_rate <= 1

    def test_jitter_keeps_times_sorted(self):
        cfg = ProbeConfig(interval=0.001, duration=5.0, jitter=0.3)
        mtx = build_rtt_matrix()
        p = matrix_paths(mtx)[1]
        run = run_probe(p, model(rtt=p.base_rtt), np.random.default_rng(1), cfg)
        assert np.all(np.diff(run.loss_times) >= 0)

    def test_intervals_normalized_by_path_rtt(self):
        cfg = ProbeConfig(interval=0.001, duration=30.0, jitter=0.0)
        mtx = build_rtt_matrix()
        p = matrix_paths(mtx)[2]
        run = run_probe(p, model(rtt=p.base_rtt, erate=2.0), np.random.default_rng(2), cfg)
        x = run.intervals_rtt()
        if len(x):
            assert np.all(x >= 0)
            # back-to-back probe losses -> interval == probe gap / rtt
            assert x.min() >= 0.001 / p.base_rtt - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(interval=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(duration=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(jitter=1.0)

    def test_probe_sizes_are_paper_values(self):
        assert PROBE_SIZES == (48, 400)

    @pytest.mark.parametrize("duration, interval, n", [
        (0.3, 0.1, 3),      # 0.3 / 0.1 == 2.9999999999999996
        (0.7, 0.1, 7),      # 6.999999999999999
        (0.003, 0.001, 3),
        (0.35, 0.1, 3),     # a real remainder still floors
        (0.1, 0.1, 1),
    ])
    def test_probe_count_does_not_floor_float_noise(self, duration, interval, n):
        cfg = ProbeConfig(duration=duration, interval=interval, jitter=0.0)
        assert cfg.n_probes == n
        mtx = build_rtt_matrix()
        p = matrix_paths(mtx)[0]
        run = run_probe(p, model(rtt=p.base_rtt), np.random.default_rng(0), cfg)
        assert run.n_sent == n

    def test_run_too_short_for_one_probe_is_refused(self):
        with pytest.raises(ValueError, match=r"0\.05.*0\.1"):
            ProbeConfig(duration=0.05, interval=0.1)

    def test_every_config_src_constructs_keeps_its_probe_count(self):
        """The pinned figures and ledgers were taken with
        ``int(duration / interval)``; the noise-tolerant count must not
        move any of them."""
        from repro.experiments.common import FAST, PAPER

        configs = [
            ProbeConfig(),                      # 300 / 0.001: campaign default
            ProbeConfig(duration=30.0),         # 30 / 0.001: chaos lane
            ProbeConfig(duration=30.0, interval=0.005),  # a coarse grid
            ProbeConfig(duration=FAST.campaign_probe_duration),
            ProbeConfig(duration=PAPER.campaign_probe_duration),
        ]
        assert [(c.duration, c.interval) for c in configs[:3]] == [
            (300.0, 0.001), (30.0, 0.001), (30.0, 0.005)]
        for cfg in configs:
            assert cfg.n_probes == int(cfg.duration / cfg.interval)
        assert [c.n_probes for c in configs] == [
            300_000, 30_000, 6_000, 60_000, 300_000]


class TestValidatePair:
    def _runs(self, rate_a, rate_b, n=10_000):
        mtx = build_rtt_matrix()
        p = matrix_paths(mtx)[0]
        from repro.internet.probe import ProbeRun

        a = ProbeRun(path=p, packet_size=48, n_sent=n,
                     loss_times=np.linspace(0, 10, int(rate_a * n)), rtt=p.base_rtt)
        b = ProbeRun(path=p, packet_size=400, n_sent=n,
                     loss_times=np.linspace(0, 10, int(rate_b * n)), rtt=p.base_rtt)
        return a, b

    def test_similar_rates_validate(self):
        a, b = self._runs(0.01, 0.012)
        assert validate_pair(a, b)

    def test_dissimilar_rates_rejected(self):
        a, b = self._runs(0.005, 0.05)
        assert not validate_pair(a, b)

    def test_too_few_losses_rejected(self):
        a, b = self._runs(0.0001, 0.0001)
        assert not validate_pair(a, b, min_losses=10)

    def test_zero_loss_both_rejected(self):
        # No losses at all: nothing to compare, rejected (not a divide
        # error) — a path that dropped nothing carries no interval data.
        a, b = self._runs(0.0, 0.0)
        assert not validate_pair(a, b)

    def test_one_sided_loss_rejected(self):
        # One run lossless, the other lossy: dissimilar by definition.
        a, b = self._runs(0.0, 0.02)
        assert not validate_pair(a, b)
        a, b = self._runs(0.02, 0.0)
        assert not validate_pair(a, b)

    def test_swapped_sizes_raise(self):
        # Passing (large, small) is a harness bug, not a measurement.
        a, b = self._runs(0.01, 0.012)
        with pytest.raises(ValueError, match="expects .small, large."):
            validate_pair(b, a)

    def test_equal_sizes_tolerated(self):
        a, b = self._runs(0.01, 0.012)
        b.packet_size = a.packet_size
        assert validate_pair(a, b)  # same-size similarity check still runs
