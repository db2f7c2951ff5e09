"""One workload in one fresh interpreter (spawned by ``run.py``).

The parent starts a new child for every workload so that start-up cost
and peak memory are per workload.  The child imports ``repro``, builds the
workload's inputs from ``--seed``, prints ``ready`` (the parent's
``setup_s`` stops there) and then, depending on ``--mode``:

``setup``    exits: the parent only wanted one more set-up sample.
``measure``  one untimed warm-up repetition (lazy imports, caches, and —
             with only ``Simulator.run`` / ``run_fluid`` wrapped — the
             exact amount of work a repetition does), then timed
             repetitions with nothing installed, until ``--seconds`` have
             been measured and at least ``--min-reps`` are in.
``trace``    one untraced repetition, then two traced ones: per-layer
             self time and exact counts, the check that tracing did not
             change the result, and the tracing overhead.

Load is closed-loop from this single process: the next repetition starts
when the previous one returned; the only concurrency is the driver's own
``workers=2`` in the two fan-out workloads.

The last line on stdout is ``result <json>``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class Rep(NamedTuple):
    wall_s: float
    cpu_s: float
    sha256: str
    work: Optional[int]
    artifact_bytes: int


def _cpu_seconds() -> float:
    # user + system of this process and of every child it has waited for
    # (getrusage, not os.times: the latter ticks in 10 ms steps).
    own = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + waited.ru_utime + waited.ru_stime


def platform_signature() -> str:
    """What the pinned result hashes depend on besides the code: floating
    point results are only bit-stable for one interpreter, one NumPy build
    and one set of SIMD kernels NumPy dispatches to."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
        simd = ",".join(sorted(k for k, v in features.items() if v))
    except ImportError:
        simd = "unknown"
    simd_id = hashlib.sha256(simd.encode()).hexdigest()[:12]
    return (f"{platform.machine()}/py{platform.python_version()}"
            f"/numpy{numpy.__version__}/simd-{simd_id}")


class Runner:
    """Runs repetitions and keeps the operation ledger.

    An operation is a repetition and, inside it, every zoo cell, fig8
    cell and campaign shard.  A raised exception, a failed / quarantined /
    retried / DEGRADED entry, a result-hash mismatch and an invariant
    violation all count as failed operations.
    """

    def __init__(self, workload, seed: int, size: dict, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def rep(self, workload=None, tracer=None) -> Optional[Rep]:
        """One repetition in a fresh scratch directory; ``None`` if it
        raised (recorded as a failed operation)."""
        wl = workload or self.workload
        seed = wl.scenario_seed(self.seed)
        self.attempted += 1
        scratch = self.work_dir / f"rep{self.attempted}"
        scratch.mkdir(parents=True)
        span = tracer.span("experiments:driver") if tracer is not None else None
        try:
            gc.collect()
            gc.disable()
            cpu0 = _cpu_seconds()
            t0 = perf_counter()
            try:
                if span is None:
                    result = wl.run(seed, self.size, scratch)
                else:
                    with span:
                        result = wl.run(seed, self.size, scratch)
                wall = perf_counter() - t0
                cpu = _cpu_seconds() - cpu0
            finally:
                gc.enable()
            outcome = wl.outcome(result, self.size, scratch)
        except Exception:  # noqa: BLE001 - a failed repetition is a result
            self.fail(f"repetition {self.attempted} raised:\n{traceback.format_exc()}")
            return None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.attempted += outcome.attempted
        if outcome.failed:
            self.fail(f"{outcome.failed} of {outcome.attempted} operations failed "
                      f"inside a repetition")
            self.failed += outcome.failed - 1
        digest = hashlib.sha256(outcome.text.encode()).hexdigest()
        return Rep(wall, cpu, digest, outcome.work, outcome.artifact_bytes)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0  # Linux reports KiB


def measure(runner: Runner, seconds: float, min_reps: int, flush_dir: Path) -> dict:
    from tracing import Tracer

    wl = runner.workload
    work = None
    if wl.count_key is not None:
        tracer = Tracer(flush_dir, callbacks=False)
        with tracer.installed():
            warm = runner.rep()
        work = tracer.collect()["counts"].get(wl.count_key, 0)
    else:
        warm = runner.rep()
    reps = [warm]
    measured = 0.0
    while reps[-1] is not None and (len(reps) <= min_reps or measured < seconds):
        reps.append(runner.rep())
        if reps[-1] is not None:
            measured += reps[-1].wall_s
    done = [r for r in reps if r is not None]
    if len({r.sha256 for r in done}) > 1:
        runner.fail("repetitions disagree: " + " ".join(r.sha256[:12] for r in done))
    if wl.count_key is None and done:
        if len({r.work for r in done}) > 1:
            runner.fail(f"work differs across repetitions: {[r.work for r in done]}")
        work = done[0].work
    return {
        "samples": {"wall_s": [r.wall_s for r in done[1:]],
                    "cpu_s": [r.cpu_s for r in done[1:]]},
        "work": work,
        "unit": wl.unit,
        "peak_rss_mb": _peak_rss_mb(),
        "sha256": done[0].sha256 if done else "",
    }


def trace(runner: Runner, flush_dir: Path, obs_baseline) -> dict:
    from layers import EXACT, layer_metrics, layer_shares
    from tracing import Tracer

    plain = runner.rep()
    if plain is None:
        return {"sha256": ""}
    obs_ratio = 0.0
    if obs_baseline is not None:
        # The same scenario with observability off, untraced: the cost of
        # the armed path is the ratio of the two.
        bare = runner.rep(workload=obs_baseline)
        if bare is not None:
            obs_ratio = plain.wall_s / bare.wall_s
    tracer = Tracer(flush_dir)
    traced: list[tuple[Rep, dict, dict]] = []
    with tracer.installed():
        for _ in range(2):
            rep = runner.rep(tracer=tracer)
            merged = tracer.collect()
            if rep is None:
                return {"sha256": plain.sha256}
            if rep.sha256 != plain.sha256:
                runner.fail(f"tracing changed the result: "
                            f"{plain.sha256[:12]} -> {rep.sha256[:12]}")
            metrics = layer_metrics(
                merged, rep.wall_s, plain.wall_s, workers=runner.size.get("workers", 0),
                artifact_bytes=rep.artifact_bytes, obs_overhead_ratio=obs_ratio,
            )
            traced.append((rep, metrics, merged))
    if tracer.patched_attributes():
        runner.fail("tracer left attributes patched")
    for name in sorted(EXACT):
        first, second = traced[0][1][name], traced[1][1][name]
        if first != second:
            runner.fail(f"exact count {name} differs between traced "
                        f"repetitions: {first} vs {second}")
    rep, metrics, merged = traced[-1]
    if metrics["trace.unattributed_share"] >= 0.05:
        runner.fail(f"trace.unattributed_share "
                    f"{metrics['trace.unattributed_share']:.3f} >= 0.05")
    return {
        "sha256": plain.sha256,
        "per_layer": metrics,
        "exact": sorted(EXACT),
        "shares": layer_shares(merged),
        "traced_wall_s": rep.wall_s,
        "untraced_wall_s": plain.wall_s,
        "spans": len(merged["spans"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    flush_dir = args.work_dir / "trace"
    flush_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, size, args.work_dir)
    if args.mode == "measure":
        result = measure(runner, args.seconds, args.min_reps, flush_dir)
    else:
        baseline = (WORKLOADS["dumbbell_droptail"]
                    if args.workload == "dumbbell_observed" else None)
        result = trace(runner, flush_dir, baseline)
    result.update(
        workload=args.workload, seed=args.seed, size=size, mode=args.mode,
        attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems, platform=platform_signature(),
    )
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
