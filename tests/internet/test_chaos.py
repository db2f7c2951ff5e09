"""Chaos lane: kill real processes, resume, demand identical bytes.

`test_supervisor.py` injects worker faults through a FaultPlan;  this
lane attacks from *outside* the process tree — SIGKILLing the whole CLI
supervisor mid-campaign — and with randomized in-worker kill/hang
injection, then checks the recovered campaign is byte-identical to a
clean one.  Run directly via ``make chaos`` (part of ``make test``).

The campaigns here are the paper's 26-site mesh; meshes past it are
covered by ``test_shards.py``: ``test_scales_to_thousands_of_sites``
(1,500 sites) and ``test_run_shard_peak_memory_independent_of_path_count``
(10,000 paths of a 120-site mesh through ``run_shard``).
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def cli_env() -> dict:
    """Subprocess env: the repo on PYTHONPATH, no leaked REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO / "src")
    return env

# Paper-scale content (26 sites / 650 paths) sharded 16 ways: enough
# shards that a mid-run kill reliably lands between the first completed
# shard and the last.
FLAGS = [
    "--sites", "26", "--shards", "16", "--paths", "650",
    "--probe-duration", "30.0", "--workers", "2", "--hang-timeout", "0.6",
]
_FINGERPRINT = re.compile(r"fingerprint\s*:\s*([0-9a-f]{64})")
_GAPS_POOLED = re.compile(r"loss gaps pooled\s*:\s*(\d+)")


def campaign(state_dir, *extra, check=True, timeout=180):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", *FLAGS,
         "--state-dir", str(state_dir), *extra],
        capture_output=True, text=True, timeout=timeout, cwd=REPO,
        env=cli_env(),
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"campaign CLI failed ({proc.returncode}):\n{proc.stderr}"
        )
    return proc


def ledger_done(state) -> int:
    """Shards the ledger records as done: whole lines only, since the
    supervisor trusts nothing else on resume."""
    try:
        lines = (state / "shards.jsonl").read_text().splitlines(keepends=True)
    except OSError:
        return 0
    return sum(1 for ln in lines if ln.endswith("\n") and '"status":"done"' in ln)


def fingerprint_of(proc) -> str:
    m = _FINGERPRINT.search(proc.stdout)
    assert m, f"no fingerprint in output:\n{proc.stdout}\n{proc.stderr}"
    return m.group(1)


@pytest.fixture(scope="module")
def clean_fingerprint(tmp_path_factory):
    """One clean reference run shared by every chaos scenario."""
    state = tmp_path_factory.mktemp("clean")
    return fingerprint_of(campaign(state / "campaign"))


class TestSupervisorKilledFromOutside:
    def test_sigkill_midrun_then_resume_is_bit_identical(
        self, tmp_path, clean_fingerprint
    ):
        state = tmp_path / "campaign"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", *FLAGS,
             "--state-dir", str(state)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=REPO,
            env=cli_env(),
        )
        # Wait until some shards are durably in the ledger but the campaign
        # cannot be finished, then SIGKILL the supervisor — no cleanup
        # handlers run.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            if ledger_done(state) >= 2:
                break
            time.sleep(0.01)
        killed = proc.poll() is None
        if killed:
            proc.kill()
            proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGKILL
        done_at_kill = ledger_done(state)
        # Orphaned fork workers write nothing: a shard's result reaches the
        # state directory only through the parent's ledger append.
        resumed = campaign(state, "--resume")
        assert killed, "campaign finished before the kill landed"
        assert 1 <= done_at_kill <= 15, (
            f"kill landed outside the useful window: {done_at_kill}/16 done"
        )
        assert fingerprint_of(resumed) == clean_fingerprint
        assert "COMPLETE" in resumed.stdout
        gaps = _GAPS_POOLED.search(resumed.stdout)
        assert gaps and int(gaps.group(1)) > 0, resumed.stdout

    def test_double_kill_double_resume_converges(self, tmp_path,
                                                 clean_fingerprint):
        """Two kill/resume rounds: progress is monotone and the final
        bytes still match a clean run."""
        state = tmp_path / "campaign"
        extra = []
        for _ in range(2):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "campaign", *FLAGS,
                 "--state-dir", str(state), *extra],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                cwd=REPO,
                env=cli_env(),
            )
            want = ledger_done(state) + 1
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                if ledger_done(state) >= want:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            extra = ["--resume"]
        final = campaign(state, "--resume")
        assert fingerprint_of(final) == clean_fingerprint


class TestInjectedWorkerChaos:
    def test_random_kills_and_hangs_midshard_recover_identically(
        self, tmp_path, clean_fingerprint
    ):
        """Randomly sampled worker SIGKILLs and hangs (first attempt per
        victim shard): the supervisor retries through all of them and the
        result is byte-identical to the fault-free campaign."""
        proc = campaign(tmp_path / "campaign", "--inject-faults", "7")
        assert fingerprint_of(proc) == clean_fingerprint
        assert "COMPLETE" in proc.stdout

    def test_chaos_plus_external_kill_plus_resume(self, tmp_path,
                                                  clean_fingerprint):
        """The full gauntlet: injected worker faults AND an external
        supervisor SIGKILL, then one resume."""
        state = tmp_path / "campaign"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", *FLAGS,
             "--state-dir", str(state), "--inject-faults", "11"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=REPO,
            env=cli_env(),
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            if ledger_done(state) >= 3:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        # Resume without fault injection: already-burned faults are gone,
        # pending shards run clean — same bytes either way.
        resumed = campaign(state, "--resume")
        assert fingerprint_of(resumed) == clean_fingerprint
