"""Tests for FaultPlan construction, sampling, and injection hooks."""

import pickle

import numpy as np
import pytest

from repro.config import RunConfig
from repro.faults import (
    FaultPlan,
    LinkFlap,
    LossSpike,
    ProbeCrash,
    ProbeCrashError,
)

pytestmark = pytest.mark.faults


class TestFaultSpecs:
    def test_flap_validation(self):
        LinkFlap(down_at=1.0, up_at=2.0)
        with pytest.raises(ValueError):
            LinkFlap(down_at=-1.0, up_at=2.0)
        with pytest.raises(ValueError):
            LinkFlap(down_at=2.0, up_at=2.0)

    def test_spike_validation(self):
        LossSpike(start=0.0, duration=1.0, extra_loss_prob=0.1)
        with pytest.raises(ValueError):
            LossSpike(start=0.0, duration=0.0, extra_loss_prob=0.1)
        with pytest.raises(ValueError):
            LossSpike(start=0.0, duration=1.0, extra_loss_prob=0.0)
        with pytest.raises(ValueError):
            LossSpike(start=0.0, duration=1.0, extra_loss_prob=1.5)

    def test_crash_validation(self):
        ProbeCrash(index=0)
        with pytest.raises(ValueError):
            ProbeCrash(index=-1)
        with pytest.raises(ValueError):
            ProbeCrash(index=0, crashes=0)


class TestSampling:
    def test_sample_sim_deterministic(self):
        a = FaultPlan.sample_sim(7)
        b = FaultPlan.sample_sim(7)
        assert a.describe() == b.describe()
        assert FaultPlan.sample_sim(8).describe() != a.describe()

    def test_sample_campaign_deterministic(self):
        a = FaultPlan.sample_campaign(7, n_experiments=10, span_seconds=1000.0)
        b = FaultPlan.sample_campaign(7, n_experiments=10, span_seconds=1000.0)
        assert a.describe() == b.describe()
        assert len(a.flaps) == 2
        assert len(a.crashes) == 2
        assert len(a.spikes) == 1

    def test_sample_campaign_durations_scale_with_span(self):
        span = 1000.0
        plan = FaultPlan.sample_campaign(3, n_experiments=10, span_seconds=span)
        for flap in plan.flaps:
            assert flap.up_at - flap.down_at <= 0.05 * span
        for spike in plan.spikes:
            assert spike.duration <= 0.10 * span

    def test_sample_campaign_needs_experiments(self):
        with pytest.raises(ValueError):
            FaultPlan.sample_campaign(3, n_experiments=0, span_seconds=10.0)

    def test_crash_indices_within_range(self):
        plan = FaultPlan.sample_campaign(3, n_experiments=5, span_seconds=10.0,
                                         n_crashes=5)
        assert all(0 <= i < 5 for i in plan.crashes)


class TestInjectionHooks:
    def test_crash_check_raises_then_clears(self):
        plan = FaultPlan(1).add_probe_crash(3, crashes=2)
        with pytest.raises(ProbeCrashError):
            plan.crash_check(3, attempt=1)
        with pytest.raises(ProbeCrashError):
            plan.crash_check(3, attempt=2)
        plan.crash_check(3, attempt=3)  # third attempt survives
        plan.crash_check(0, attempt=1)  # unarmed index never crashes
        assert plan.injected["probe_crash"] == 2

    def test_outage_mask_campaign_clock(self):
        plan = FaultPlan(1).add_link_flap(100.0, 110.0)
        send = np.array([0.0, 5.0, 9.0, 15.0])
        mask = plan.outage_mask(send, started_at=98.0)
        # absolute times 98, 103, 107, 113 -> inside: 103, 107
        assert mask.tolist() == [False, True, True, False]

    def test_named_flap_is_not_a_path_outage(self):
        plan = FaultPlan(1).add_link_flap(0.0, 10.0, link="bottleneck")
        mask = plan.outage_mask(np.array([1.0, 2.0]), started_at=0.0)
        assert not mask.any()

    def test_apply_probe_faults_deterministic_across_calls(self):
        plan = FaultPlan(5).add_loss_spike(0.0, 10.0, 0.3)
        t = np.linspace(0, 10, 500)
        base = np.zeros(500, dtype=bool)
        a = plan.apply_probe_faults(t, base, started_at=0.0, index=4)
        b = plan.apply_probe_faults(t, base, started_at=0.0, index=4)
        np.testing.assert_array_equal(a, b)
        c = plan.apply_probe_faults(t, base, started_at=0.0, index=5)
        assert not np.array_equal(a, c)  # different experiment, different draw

    def test_apply_probe_faults_counts_extra_losses_only(self):
        plan = FaultPlan(5).add_link_flap(0.0, 10.0)
        t = np.linspace(0, 9, 10)
        already = np.ones(10, dtype=bool)
        out = plan.apply_probe_faults(t, already, started_at=0.0, index=0)
        assert out.all()
        assert plan.injected.get("outage_loss", 0) == 0  # nothing newly lost


class TestPlanObject:
    def test_pickle_roundtrip_drops_registry(self):
        from repro.obs.metrics import MetricsRegistry

        plan = FaultPlan.sample_campaign(9, n_experiments=4, span_seconds=100.0)
        plan.attach_metrics(MetricsRegistry("x"))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.describe() == plan.describe()
        assert clone._registry is None

    def test_describe_is_json_able(self):
        import json

        plan = (FaultPlan(2).add_link_flap(1.0, 2.0).add_loss_spike(0.0, 1.0, 0.1)
                .add_probe_crash(1).add_worker_kill(0).add_worker_hang(1, duration=0.5))
        json.dumps(plan.describe())

    def test_record_feeds_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry("x")
        plan = FaultPlan(1)
        plan.attach_metrics(reg)
        plan.record("link_down")
        plan.record("link_down")
        assert plan.injected["link_down"] == 2
        assert reg.counter("faults.injected.link_down").value == 2


class TestEnvSeed:
    """``REPRO_FAULTS`` as drivers read it: ``RunConfig.fault_seed``."""

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert RunConfig.from_env().fault_seed is None

    def test_integer_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "42")
        assert RunConfig.from_env().fault_seed == 42

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "not-a-seed")
        with pytest.raises(ValueError, match="REPRO_FAULTS"):
            RunConfig.from_env()
