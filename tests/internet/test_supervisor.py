"""Tests for the crash-tolerant sharded-campaign supervisor.

Covers the supervision contract: serial and process execution produce
identical bits, SIGKILLed and hung workers are detected and retried,
poison shards are quarantined into an explicit DEGRADED manifest, and a
killed campaign resumes byte-identical from the results in its ledger.
Worker-level faults here are *injected* (deterministic FaultPlan legs);
`test_chaos.py` kills real processes from outside.
"""

import json
import os

import pytest

from repro.cli import main
from repro.faults import FaultPlan, RetryPolicy
from repro.internet import (
    CampaignSupervisor,
    ProbeConfig,
    SupervisorConfig,
    run_sharded_campaign,
)
from repro.internet.supervisor import SHARD_LEDGER
from repro.obs.spans import SpanTracer

# Small but non-trivial: 8 sites, 32 of the 56 directed paths, 4 shards.
SITES, SHARDS, PATHS = 8, 4, 32
CFG = ProbeConfig(duration=5.0)


def run_campaign(tmp_path, subdir, *, workers=0, resume=False, fault_plan=None,
                 tracer=None, hang_timeout=30.0, retries=2):
    config = SupervisorConfig(
        workers=workers,
        hang_timeout=hang_timeout,
        retry=RetryPolicy(retries=retries, base=0.01, max_delay=0.05),
    )
    return run_sharded_campaign(
        n_sites=SITES,
        n_shards=SHARDS,
        state_dir=tmp_path / subdir,
        n_paths=PATHS,
        probe_config=CFG,
        resume=resume,
        fault_plan=fault_plan,
        tracer=tracer,
        config=config,
    )


def events(tracer, name):
    return [r for r in tracer.records
            if r.get("event") == name or r.get("name") == name]


def edit_ledger_record(state_dir, shard_id, edit):
    """Rewrite shard ``shard_id``'s ledger line through ``edit(line)``."""
    ledger = state_dir / SHARD_LEDGER
    lines = ledger.read_text().splitlines(keepends=True)
    for pos, line in enumerate(lines[1:], start=1):
        obj = json.loads(line)
        if obj["i"] == shard_id:
            edit(obj)
            lines[pos] = json.dumps(obj, separators=(",", ":")) + "\n"
    ledger.write_text("".join(lines))


class TestExecutionModes:
    def test_serial_equals_processes(self, tmp_path):
        serial = run_campaign(tmp_path, "serial", workers=0)
        procs = run_campaign(tmp_path, "procs", workers=3)
        assert serial.status == procs.status == "COMPLETE"
        assert serial.fingerprint() == procs.fingerprint()
        assert serial.n_experiments == PATHS
        assert serial.meta["workers"] == 0 and procs.meta["workers"] == 3

    def test_state_dir_holds_only_ledger_and_bus(self, tmp_path):
        res = run_sharded_campaign(8, 4, tmp_path / "d", 2006, workers=2,
                                   probe_config=ProbeConfig(duration=30))
        assert res.status == "COMPLETE"
        assert sorted(os.listdir(tmp_path / "d")) == ["events.jsonl",
                                                     "shards.jsonl"]
        # Every done shard's record carries its result, one line each.
        lines = (tmp_path / "d" / SHARD_LEDGER).read_text().splitlines()
        records = [json.loads(ln)["record"] for ln in lines[1:]]
        assert len(records) == 4
        assert all(r["status"] == "done" and "result" in r for r in records)
        assert all("result" not in f for f in res.fates.values())

    def test_every_shard_has_a_fate(self, tmp_path):
        res = run_campaign(tmp_path, "fates", workers=2)
        assert sorted(res.fates) == list(range(SHARDS))
        assert all(f["status"] == "done" for f in res.fates.values())
        assert all(f["attempts"] == 1 for f in res.fates.values())


class TestCrashTolerance:
    def test_sigkilled_worker_is_retried(self, tmp_path):
        tracer = SpanTracer("test")
        plan = FaultPlan(seed=1).add_worker_kill(1, after_paths=3, kills=1)
        res = run_campaign(tmp_path, "kill", workers=2, fault_plan=plan,
                           tracer=tracer)
        clean = run_campaign(tmp_path, "clean", workers=2)
        assert res.status == "COMPLETE"
        assert res.fates[1]["attempts"] == 2
        assert res.meta["retried"] == {1: 2}
        assert res.fingerprint() == clean.fingerprint()
        assert events(tracer, "worker.sigkill")
        assert events(tracer, "shard.retry")

    def test_hung_worker_is_reaped_and_retried(self, tmp_path):
        tracer = SpanTracer("test")
        plan = FaultPlan(seed=1).add_worker_hang(2, after_paths=2, hangs=1)
        res = run_campaign(tmp_path, "hang", workers=2, fault_plan=plan,
                           tracer=tracer, hang_timeout=0.6)
        clean = run_campaign(tmp_path, "clean", workers=2)
        assert res.status == "COMPLETE"
        assert res.fates[2]["attempts"] == 2
        assert res.fingerprint() == clean.fingerprint()
        hangs = events(tracer, "worker.hang")
        assert hangs and hangs[0]["attrs"]["shard"] == 2

    def test_clock_skewed_worker_is_flagged_but_not_killed(self, tmp_path):
        tracer = SpanTracer("test")
        plan = FaultPlan(seed=1).set_clock_skew(offset=9000.0)
        config = SupervisorConfig(workers=2, skew_tolerance=60.0,
                                  retry=RetryPolicy(retries=1, base=0.01))
        res = run_sharded_campaign(
            n_sites=SITES, n_shards=SHARDS, state_dir=tmp_path / "skew",
            n_paths=PATHS, probe_config=CFG, fault_plan=plan,
            tracer=tracer, config=config,
        )
        # Skew is an observability event, never a liveness verdict.
        assert res.status == "COMPLETE"
        assert events(tracer, "worker.clock_skew")
        assert all(f["attempts"] == 1 for f in res.fates.values())

    def test_failing_shard_error_is_retried_then_quarantined(self, tmp_path):
        tracer = SpanTracer("test")
        # kills beyond the retry budget: the shard can never complete.
        plan = FaultPlan(seed=1).add_worker_kill(0, after_paths=1, kills=99)
        res = run_campaign(tmp_path, "poison", workers=2, fault_plan=plan,
                           tracer=tracer, retries=2)
        assert res.status == "DEGRADED"
        assert res.degraded
        assert [s.shard_id for s in res.quarantined] == [0]
        assert res.fates[0]["status"] == "quarantined"
        assert res.fates[0]["attempts"] == 3  # 1 try + 2 retries
        assert res.lost_paths() == res.quarantined[0].n_paths
        assert events(tracer, "shard.quarantined")

        manifest = res.manifest()
        assert manifest["status"] == "DEGRADED"
        assert manifest["n_shards_quarantined"] == 1
        assert manifest["lost_paths"] == res.lost_paths()
        assert manifest["quarantined"][0]["shard_id"] == 0
        assert "POISON shard 0" in res.summary()
        # The other shards' measurements survive.
        assert res.n_experiments == PATHS - res.lost_paths()

    def test_quarantine_changes_the_fingerprint(self, tmp_path):
        plan = FaultPlan(seed=1).add_worker_kill(0, after_paths=1, kills=99)
        degraded = run_campaign(tmp_path, "deg", workers=2, fault_plan=plan,
                                retries=1)
        clean = run_campaign(tmp_path, "clean", workers=2)
        assert degraded.fingerprint() != clean.fingerprint()


class TestResume:
    def test_resume_replays_done_shards_bit_identically(self, tmp_path):
        first = run_campaign(tmp_path, "camp", workers=2)
        again = run_campaign(tmp_path, "camp", workers=2, resume=True)
        assert again.meta["resumed"] == SHARDS
        assert again.fingerprint() == first.fingerprint()

    def test_fresh_run_refuses_existing_state(self, tmp_path):
        run_campaign(tmp_path, "camp")
        with pytest.raises(ValueError, match="resume"):
            run_campaign(tmp_path, "camp", resume=False)

    def test_resume_from_partial_ledger_completes_the_rest(self, tmp_path):
        full = run_campaign(tmp_path, "full", workers=0)
        # Simulate a supervisor killed after two shards: keep the meta
        # line + first two ledger records, drop the rest.
        run_campaign(tmp_path, "part", workers=0)
        ledger = tmp_path / "part" / SHARD_LEDGER
        lines = ledger.read_text().splitlines(keepends=True)
        ledger.write_text("".join(lines[:3]))

        res = run_campaign(tmp_path, "part", workers=2, resume=True)
        assert res.meta["resumed"] == 2
        assert res.fingerprint() == full.fingerprint()

    def test_torn_ledger_tail_is_dropped_on_resume(self, tmp_path):
        full = run_campaign(tmp_path, "torn", workers=0)
        ledger = tmp_path / "torn" / SHARD_LEDGER
        raw = ledger.read_bytes()
        # Kill mid-append: the last record loses its newline and tail.
        ledger.write_bytes(raw[:-9])

        with pytest.warns(UserWarning, match="partial record"):
            res = run_campaign(tmp_path, "torn", workers=0, resume=True)
        assert res.meta["resumed"] == SHARDS - 1
        assert res.fingerprint() == full.fingerprint()

    def test_done_record_without_result_is_rerun_not_trusted(self, tmp_path):
        """A done record with no inline result (a state directory from
        when results lived in separate files) is warned about and re-run."""
        tracer = SpanTracer("test")
        full = run_campaign(tmp_path, "gone", workers=0)
        edit_ledger_record(tmp_path / "gone", 1,
                           lambda obj: obj["record"].pop("result"))
        with pytest.warns(UserWarning, match="re-running"):
            res = run_campaign(tmp_path, "gone", workers=0, resume=True,
                               tracer=tracer)
        assert res.meta["resumed"] == SHARDS - 1
        assert res.fingerprint() == full.fingerprint()
        assert [e["attrs"]["shard"]
                for e in events(tracer, "shard.resume_mismatch")] == [1]

    def test_corrupted_shard_record_is_rerun_not_trusted(self, tmp_path):
        full = run_campaign(tmp_path, "corrupt", workers=0)

        def bit_rot(obj):  # the line still parses; the content is wrong
            obj["record"]["result"]["n_valid"] += 1

        edit_ledger_record(tmp_path / "corrupt", 2, bit_rot)
        with pytest.warns(UserWarning, match="re-running"):
            res = run_campaign(tmp_path, "corrupt", workers=0, resume=True)
        assert res.meta["resumed"] == SHARDS - 1
        assert res.fingerprint() == full.fingerprint()

    def test_result_of_another_shard_is_rerun_not_trusted(self, tmp_path):
        full = run_campaign(tmp_path, "swap", workers=0)
        ledger = (tmp_path / "swap" / SHARD_LEDGER).read_text().splitlines()
        donor = json.loads(ledger[1])["record"]  # shard 0's record

        def swap(obj):  # right fingerprint for its result, wrong spec
            obj["record"] = dict(donor)

        edit_ledger_record(tmp_path / "swap", 3, swap)
        with pytest.warns(UserWarning, match="shard 3: .*re-running"):
            res = run_campaign(tmp_path, "swap", workers=0, resume=True)
        assert res.meta["resumed"] == SHARDS - 1
        assert res.fingerprint() == full.fingerprint()

    def test_duplicated_done_record_last_one_wins(self, tmp_path):
        first = run_campaign(tmp_path, "dup", workers=0)
        ledger = tmp_path / "dup" / SHARD_LEDGER
        line = ledger.read_text().splitlines()[1]
        obj = json.loads(line)
        obj["record"]["attempts"] = 7
        with ledger.open("a") as fh:
            fh.write(line + "\n" + json.dumps(obj) + "\n")
        res = run_campaign(tmp_path, "dup", workers=0, resume=True)
        assert res.meta["resumed"] == SHARDS
        assert res.fates[obj["i"]]["attempts"] == 7
        assert res.fingerprint() == first.fingerprint()

    def test_quarantine_is_durable_across_resume(self, tmp_path):
        plan = FaultPlan(seed=1).add_worker_kill(3, after_paths=0, kills=99)
        first = run_campaign(tmp_path, "q", workers=2, fault_plan=plan,
                             retries=1)
        assert first.status == "DEGRADED"
        # Resume WITHOUT the fault plan: the quarantine verdict must come
        # from the ledger, not from re-observing the fault.
        res = run_campaign(tmp_path, "q", workers=2, resume=True)
        assert res.status == "DEGRADED"
        assert [s.shard_id for s in res.quarantined] == [3]
        assert res.fingerprint() == first.fingerprint()

    def test_resume_rejects_mismatched_campaign(self, tmp_path):
        run_campaign(tmp_path, "camp")
        config = SupervisorConfig(workers=0)
        other = CampaignSupervisor(
            n_sites=SITES, n_shards=SHARDS + 1, state_dir=tmp_path / "camp",
            n_paths=PATHS, probe_config=CFG, config=config,
        )
        with pytest.raises(Exception, match="different run"):
            other.run(resume=True)


class TestDamagedStateOnTheCli:
    ARGV = ["campaign", "--sites", str(SITES), "--shards", str(SHARDS),
            "--paths", str(PATHS), "--probe-duration", str(CFG.duration)]

    @pytest.mark.parametrize("line", [
        '{"i":"abc","record":{}}',
        '{"i":[1],"record":{}}',
        '{"i":1,"record":5}',
        '{"i":1}',
    ])
    def test_wrong_schema_ledger_line_is_named(self, tmp_path, capsys, line):
        run_campaign(tmp_path, "camp")
        ledger = tmp_path / "camp" / SHARD_LEDGER
        lines = ledger.read_text().splitlines()
        lines[2] = line
        ledger.write_text("\n".join(lines) + "\n")
        code = main(self.ARGV + ["--state-dir", str(tmp_path / "camp"),
                                 "--resume"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"campaign: {ledger}: line 3 "), err
        assert "Traceback" not in err

    def test_fresh_run_over_existing_state_is_named(self, tmp_path, capsys):
        run_campaign(tmp_path, "camp")
        code = main(self.ARGV + ["--state-dir", str(tmp_path / "camp")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("campaign: "), err
        assert "already holds campaign state" in err


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SupervisorConfig(workers=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(hang_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(skew_tolerance=0.0)
