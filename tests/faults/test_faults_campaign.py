"""Acceptance-criteria tests: fault-armed campaigns, retry, resume."""

import numpy as np
import pytest

from repro.faults import FaultPlan, ProbeCrashError
from repro.internet.campaign import Campaign
from repro.internet.probe import ProbeConfig

pytestmark = pytest.mark.faults

CFG = ProbeConfig(duration=20.0, interval=0.005)
N = 6


def make_campaign(fault_plan=None, seed=2006, cfg=CFG):
    return Campaign(seed=seed, probe_config=cfg, fault_plan=fault_plan)


def armed_plan(n=N):
    """Link flaps + 2 probe crashes, the acceptance-criteria plan."""
    return FaultPlan.sample_campaign(
        11, n_experiments=n, span_seconds=Campaign.CAMPAIGN_SPAN_SECONDS,
        n_flaps=2, n_crashes=2, n_spikes=1,
    )


class TestArmedCampaign:
    def test_retry_completes_and_reports(self):
        res = make_campaign(armed_plan()).run(N, on_error="retry")
        assert len(res.experiments) == N
        assert not res.failures
        assert len(res.meta["retried"]) == 2  # both crashes resolved
        assert res.meta["fault_plan"]["probe_crashes"]

    def test_skip_records_failures(self):
        # 8 experiments of 30 s: long enough that surviving pairs validate
        n, cfg = 8, ProbeConfig(duration=30.0, interval=0.005)
        res = make_campaign(armed_plan(n), cfg=cfg).run(n, on_error="skip")
        assert res.degraded
        assert len(res.failures) == 2
        assert all("ProbeCrashError" in f.error for f in res.failures)
        assert len(res.experiments) == n - 2
        assert res.meta["failed"] == [f.index for f in res.failures]
        assert res.all_intervals_rtt().size > 0  # the surviving cells analyze

    def test_raise_mode_propagates_crash(self):
        with pytest.raises(ProbeCrashError):
            make_campaign(armed_plan()).run(N, on_error="raise")

    def test_armed_equals_armed_across_workers(self):
        serial = make_campaign(armed_plan()).run(N, on_error="retry")
        parallel = make_campaign(armed_plan()).run(N, workers=2, on_error="retry")
        assert serial.fingerprint() == parallel.fingerprint()
        assert parallel.meta["retried"] == serial.meta["retried"]

    def test_skip_equals_skip_across_workers(self):
        """Under skip a crashed experiment fails on its only attempt, in
        a pool exactly as serially: same data, same failures."""
        serial = make_campaign(armed_plan()).run(N, on_error="skip")
        parallel = make_campaign(armed_plan()).run(N, workers=2, on_error="skip")
        assert len(serial.failures) == 2
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.failures == serial.failures
        assert parallel.meta["retried"] == serial.meta["retried"]

    def test_faults_actually_change_the_data(self):
        clean = make_campaign().run(N)
        faulty = make_campaign(armed_plan()).run(N, on_error="retry")
        assert clean.fingerprint() != faulty.fingerprint()

    def test_injected_spike_losses_counted(self):
        # Place a heavy spike over a known experiment window so the
        # injected counters provably fire.
        camp = make_campaign()
        starts = np.sort(
            camp.streams.stream("schedule").uniform(
                0.0, Campaign.CAMPAIGN_SPAN_SECONDS, N
            )
        )
        plan = FaultPlan(3).add_loss_spike(float(starts[1]), CFG.duration, 0.5)
        res = make_campaign(plan).run(N, on_error="retry")
        assert res.meta["injected"].get("spike_loss", 0) > 0


class TestCheckpointResume:
    def test_killed_then_resumed_is_bit_identical(self, tmp_path):
        reference = make_campaign(armed_plan()).run(N, on_error="retry")
        ck = tmp_path / "camp.jsonl"
        make_campaign(armed_plan()).run(N, on_error="retry", checkpoint=ck)
        # Simulate a kill: keep meta + 3 records, rip the 4th mid-line.
        lines = ck.read_text().splitlines(keepends=True)
        ck.write_text("".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
        resumed = make_campaign(armed_plan()).run(N, on_error="retry", checkpoint=ck)
        assert resumed.meta["resumed"] == 3
        assert resumed.fingerprint() == reference.fingerprint()

    def test_completed_checkpoint_skips_all_work(self, tmp_path):
        ck = tmp_path / "camp.jsonl"
        first = make_campaign(armed_plan()).run(N, on_error="retry", checkpoint=ck)
        again = make_campaign(armed_plan()).run(N, on_error="retry", checkpoint=ck)
        assert again.meta["resumed"] == N
        assert again.meta["retried"] == {}  # nothing re-ran, nothing retried
        assert again.fingerprint() == first.fingerprint()

    def test_checkpoint_of_other_run_rejected(self, tmp_path):
        from repro.faults import CheckpointError

        ck = tmp_path / "camp.jsonl"
        make_campaign().run(N, checkpoint=ck)
        with pytest.raises(CheckpointError):
            make_campaign(seed=999).run(N, checkpoint=ck)

    def test_resume_without_faults_also_identical(self, tmp_path):
        reference = make_campaign().run(N)
        ck = tmp_path / "plain.jsonl"
        make_campaign().run(N, checkpoint=ck)
        lines = ck.read_text().splitlines(keepends=True)
        ck.write_text("".join(lines[:3]))
        resumed = make_campaign().run(N, checkpoint=ck)
        assert resumed.fingerprint() == reference.fingerprint()


class TestCampaignResultShape:
    def test_meta_carries_provenance(self):
        res = make_campaign(armed_plan()).run(N, on_error="retry")
        for key in ("seed", "n_experiments", "on_error", "resumed", "retried",
                    "failed", "injected", "fault_plan"):
            assert key in res.meta
        assert res.meta["on_error"] == "retry"

    def test_fingerprint_ignores_meta(self):
        a = make_campaign().run(N)
        b = make_campaign().run(N)
        b.meta["resumed"] = 999
        assert a.fingerprint() == b.fingerprint()

    def test_run_experiment_single_cell_matches_worker(self):
        camp = make_campaign()
        picker = camp.streams.stream("pair-picker")
        path = camp.pick_path(picker)
        exp = camp.run_experiment(path, index=0, started_at=100.0)
        assert exp.started_at == 100.0
        assert exp.small.packet_size < exp.large.packet_size
