"""Sharded-campaign smoke test (the ``make campaign-smoke`` target).

Runs a ~50-site sharded campaign end to end, SIGKILLs the live
supervisor (taking its worker processes with it) partway through, then
resumes from the on-disk shard ledger and asserts the recovered
campaign is *byte-identical* to the uninterrupted reference — all under
an explicit wall-clock budget::

    PYTHONPATH=src python -m repro.internet.smoke

Legs exercised:

1. **Clean reference** — the campaign completes with every shard done
   and real gap content in the streaming reducer.
2. **Kill + resume** — a second campaign over a fresh state directory is
   SIGKILLed mid-run (after some shards have landed, before all have);
   the resume replays done shards from their fingerprinted records and
   re-runs only the rest, converging to the reference fingerprint.
3. **Budget** — the whole smoke (both campaigns + the kill dance) fits
   the wall-clock budget; the shard throughput is printed.

Exits nonzero (an ``AssertionError``) on any failure.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.faults.resilient import RetryPolicy
from repro.internet.probe import ProbeConfig
from repro.internet.supervisor import SupervisorConfig, run_sharded_campaign

#: Smoke-run sizing: ~50 sites as the ISSUE's planetary-scale stand-in,
#: capped to a path budget that keeps the lane comfortably inside CI.
SEED = 2006
SITES = 50
SHARDS = 16
PATHS = 1200
PROBE = ProbeConfig(duration=30.0)
WALL_BUDGET_S = 120.0


def _config() -> SupervisorConfig:
    return SupervisorConfig(
        workers=2,
        hang_timeout=5.0,
        retry=RetryPolicy(retries=2, base=0.01, max_delay=0.1),
    )


def _run(state_dir: Path, resume: bool = False):
    return run_sharded_campaign(
        n_sites=SITES,
        n_shards=SHARDS,
        state_dir=state_dir,
        seed=SEED,
        n_paths=PATHS,
        probe_config=PROBE,
        resume=resume,
        config=_config(),
    )


def _child_main(state_dir: str) -> None:
    """Victim supervisor: runs the campaign until killed from outside."""
    try:
        _run(Path(state_dir))
    except Exception:  # pragma: no cover - the parent only SIGKILLs
        os._exit(1)


def check_clean_reference(tmp: Path) -> str:
    """Leg 1: uninterrupted campaign -> complete, with gap content."""
    res = _run(tmp / "clean")
    assert res.status == "COMPLETE", res.summary()
    assert res.n_experiments == PATHS, res.summary()
    assert not res.quarantined
    assert res.histogram.n > 0, "campaign produced no loss-gap content"
    return res.fingerprint()


def check_kill_and_resume(tmp: Path, reference: str) -> int:
    """Leg 2: SIGKILL the supervisor mid-run, resume, compare bytes."""
    state = tmp / "killed"
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_child_main, args=(str(state),), daemon=False)
    child.start()
    # Kill once some — but not all — shards are durably in the ledger
    # (the supervisor only trusts ledger records on resume, so polling
    # loose shard files would race the parent's append).
    ledger = state / "shards.jsonl"
    deadline = time.monotonic() + WALL_BUDGET_S

    def ledger_records() -> int:
        try:
            return max(0, ledger.read_text().count("\n") - 1)  # minus meta
        except OSError:
            return 0

    while time.monotonic() < deadline and child.is_alive():
        if ledger_records() >= 2:
            break
        time.sleep(0.01)
    assert child.is_alive(), "campaign finished before the kill landed"
    os.kill(child.pid, signal.SIGKILL)
    child.join(timeout=30.0)
    assert child.exitcode == -signal.SIGKILL

    resumed = _run(state, resume=True)
    assert resumed.status == "COMPLETE", resumed.summary()
    n_resumed = resumed.meta["resumed"]
    assert 1 <= n_resumed < SHARDS, (
        f"kill landed outside the useful window: resumed {n_resumed}/{SHARDS}"
    )
    assert resumed.fingerprint() == reference, (
        "resumed campaign is not bit-identical to the clean reference"
    )
    return n_resumed


def main() -> int:
    """Run every leg; print a one-line verdict per leg."""
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        fp = check_clean_reference(tmp)
        print(f"[campaign] clean {SITES}-site/{PATHS}-path reference ok "
              f"(fingerprint {fp[:12]}...)")
        n_resumed = check_kill_and_resume(tmp, fp)
        print(f"[campaign] SIGKILL+resume bit-identical ok "
              f"({n_resumed}/{SHARDS} shards replayed from disk)")
    elapsed = time.monotonic() - t0
    assert elapsed < WALL_BUDGET_S, (
        f"smoke took {elapsed:.1f}s, budget is {WALL_BUDGET_S:.0f}s"
    )
    # Two campaigns minus the replayed shards actually probed paths.
    probed = PATHS + PATHS * (SHARDS - n_resumed) // SHARDS
    print(f"[campaign] all legs passed in {elapsed:.1f}s "
          f"({probed / elapsed:,.0f} paths/sec through the supervisor)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by `make campaign-smoke`
    sys.exit(main())
