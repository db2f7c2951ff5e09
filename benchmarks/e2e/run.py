"""Command-level benchmark: end-to-end metrics with per-layer attribution.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Prints every metric ``BENCHMARK.json`` declares, by name, with its unit,
for the chosen workloads (default: all seven), checks every repetition's
result against the pinned hashes / the other repetitions, and exits
non-zero on any correctness failure.  End-to-end numbers (``--trace 0``)
come from untraced runs; ``--trace 1`` (= ``--traced``) is the separate
traced pass that reports per-layer self time and exact counts.  Without
either flag both passes run.  ``--smoke`` is the sub-minute variant: one
timed repetition of every unit cut about tenfold.

The last line on stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; with a single ``--workload`` the metric keys are
the declared names, otherwise they are ``<workload>.<name>``.

This process never imports ``repro``: every workload runs in a fresh
child interpreter (``child.py``), one child at a time.  See ``README.md``
next to this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import compare_files  # noqa: E402

SCHEMA = "repro-e2e/1"
#: Set-ups timed per end-to-end run (the measuring child is one of them).
SETUP_SAMPLES = 3
#: Timed repetitions a full-size run never goes below.
MIN_REPS = 5
CHILD_TIMEOUT_S = 170.0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, size: str, seconds: float,
          min_reps: int, work_dir: Path) -> tuple[float, dict]:
    """Run one child; returns ``(setup_s, result)``.

    ``setup_s`` is the parent's clock from just before the interpreter is
    started until the child reports its inputs built: interpreter start,
    ``import repro``, input generation.
    """
    work_dir.mkdir(parents=True)
    # The workloads own the REPRO_* knobs; nothing leaks in from outside.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(work_dir)
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--size", size,
        "--seconds", str(seconds), "--min-reps", str(min_reps),
        "--work-dir", str(work_dir),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if first.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode} "
                          f"in mode {mode} (see stderr above)")
    result = {}
    for line in rest.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
    if mode != "setup" and not result:
        raise ChildFailed(f"{workload}: child printed no result")
    return setup_s, result


def check_pin(result: dict, pins: dict, size: str) -> str:
    """'' when the result hash is acceptable, else the complaint.

    Only the pinned seed has a pinned hash, and bit-identical floats are
    only promised on the platform the pins were taken on; everywhere else
    the gate is repetition-vs-repetition (and traced-vs-untraced)
    agreement, which the child checks.
    """
    if result["seed"] != pins["seed"] or result["platform"] != pins["platform"]:
        return ""
    want = pins[size].get(result["workload"])
    if want != result.get("sha256"):
        return (f"result hash {result.get('sha256')} does not match the pin "
                f"{want} (seed {pins['seed']}, {size})")
    return ""


def run_end_to_end(name: str, seed: int, size: str, seconds: float,
                   work_root: Path, pins: dict) -> dict:
    min_reps = MIN_REPS if size == "full" else 1
    setups = []
    setup_s, result = spawn(name, seed, "measure", size, seconds, min_reps,
                            work_root / "measure")
    setups.append(setup_s)
    for i in range(1, SETUP_SAMPLES):
        setup_s, _ = spawn(name, seed, "setup", size, 0.0, 1, work_root / f"setup{i}")
        setups.append(setup_s)
    problems = list(result["problems"])
    pin_problem = check_pin(result, pins, size)
    if pin_problem:
        problems.append(pin_problem)
    walls = result["samples"]["wall_s"]
    cpus = result["samples"]["cpu_s"]
    metrics = {}
    if walls and result["work"]:
        # Best of the repetitions, as repro.bench reports: interference on
        # a shared box only ever adds time, so the minimum repeats within a
        # few percent where the median of 5-8 repetitions drifts by 10%.
        wall = min(walls)
        metrics = {
            "wall_s": {"value": wall, "samples": walls},
            "cpu_s": {"value": min(cpus), "samples": cpus},
            "work_per_s": {"value": result["work"] / wall,
                           "samples": [result["work"] / w for w in walls]},
            "peak_rss_mb": {"value": result["peak_rss_mb"],
                            "samples": [result["peak_rss_mb"]]},
            "setup_s": {"value": statistics.median(setups), "samples": setups},
        }
    else:
        problems.append("no timed repetition completed")
    return {
        "end_to_end": metrics,
        "work": result["work"],
        "work_unit": result["unit"],
        "sha256": result["sha256"],
        "size": result["size"],
        "platform": result["platform"],
        "attempted": result["attempted"],
        "failed": result["failed"] + (1 if pin_problem else 0),
        "problems": problems,
    }


def run_traced(name: str, seed: int, size: str, work_root: Path, pins: dict) -> dict:
    _, result = spawn(name, seed, "trace", size, 0.0, 1, work_root / "trace")
    problems = list(result["problems"])
    pin_problem = check_pin(result, pins, size)
    if pin_problem:
        problems.append(pin_problem)
    per_layer = result.get("per_layer", {})
    if not per_layer:
        problems.append("traced pass produced no per-layer metrics")
    return {
        "per_layer": per_layer,
        "exact": {k: per_layer[k] for k in result.get("exact", ()) if k in per_layer},
        "shares": result.get("shares", {}),
        "traced_wall_s": result.get("traced_wall_s"),
        "untraced_wall_s": result.get("untraced_wall_s"),
        "sha256": result["sha256"],
        "size": result["size"],
        "platform": result["platform"],
        "attempted": result["attempted"],
        "failed": result["failed"] + (1 if pin_problem else 0),
        "problems": problems,
    }


# -- reporting -----------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_end_to_end(name: str, rec: dict, declared: list) -> None:
    size = ", ".join(f"{k}={v}" for k, v in rec["size"].items())
    print(f"== {name}: end to end ({size}) ==")
    for spec in declared:
        metric = rec["end_to_end"].get(spec["name"])
        if metric is None:
            continue
        samples = metric["samples"]
        sign = "+" if spec["better"] == "lower" else "-"
        print(f"  {spec['name']:<13} {_fmt(metric['value']):>12} {spec['unit']:<5}"
              f" n={len(samples)} median={_fmt(statistics.median(samples))}"
              f" worst={_fmt(max(samples) if spec['better'] == 'lower' else min(samples))}"
              f"  ({spec['better']} is better, bound {sign}{spec['bound']:.0%})")
    rate = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'failure_rate':<13} {_fmt(rate):>12} ratio"
          f" ({rec['failed']} of {rec['attempted']} operations; bound +0)")
    print(f"  exact: work={rec['work']} {rec['work_unit']} per repetition, "
          f"sha256={rec['sha256'][:16]}")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")


def print_traced(name: str, rec: dict, declared: list) -> None:
    print(f"== {name}: per layer (one traced repetition, "
          f"{_fmt(rec['traced_wall_s'] or 0.0)} s traced vs "
          f"{_fmt(rec['untraced_wall_s'] or 0.0)} s untraced) ==")
    total = sum(rec["shares"].values()) or 1.0
    ranked = sorted(rec["shares"].items(), key=lambda kv: -kv[1])
    print("  self-time shares: " + ", ".join(
        f"{layer} {own / total:.1%}" for layer, own in ranked if own / total >= 0.001))
    for spec in declared:
        if spec["name"] not in rec["per_layer"]:
            continue
        value = rec["per_layer"][spec["name"]]
        if not value:
            continue  # a layer that did not run: zeros are still in --out
        tag = "  exact" if spec["name"] in rec["exact"] else ""
        print(f"  {spec['name']:<40} {_fmt(value):>14} {spec['unit']}{tag}")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, help="seed handed to the drivers "
                        "(default: the pinned seed)")
    parser.add_argument("--seconds", type=float,
                        help="seconds of timed repetitions per workload "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass only; 1: traced pass only")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="sub-minute run: 1 repetition, units cut ~10x")
    parser.add_argument("--out", type=Path, help="also write the full record here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's result hashes in pins.json "
                        "(a benchmark-correcting change only)")
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if args.compare:
        return compare_files(Path(args.compare[0]), Path(args.compare[1]), benchmark)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: nothing to benchmark",
              file=sys.stderr)
        return 2

    pins = load_pins()
    if args.write_pins:
        # Forget the platform so nothing is enforced while re-pinning.
        pins["platform"] = ""
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    seed = pins["seed"] if args.seed is None else args.seed
    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else (
        benchmark["run_seconds"] if args.seconds is None else args.seconds)
    passes = (0, 1) if args.trace is None else (args.trace,)

    work_root = ROOT / ".bench_work" / f"{os.getpid()}"
    record = {"schema": SCHEMA, "seed": seed, "size": size, "workloads": {}}
    attempted = failed = 0
    correct = True
    flat = {}
    try:
        for name in names:
            entry = record["workloads"].setdefault(name, {})
            for trace in passes:
                try:
                    if trace == 0:
                        rec = run_end_to_end(name, seed, size, seconds,
                                             work_root / name, pins)
                        print_end_to_end(name, rec, benchmark["end_to_end"])
                        declared, values = benchmark["end_to_end"], {
                            k: v["value"] for k, v in rec["end_to_end"].items()}
                    else:
                        rec = run_traced(name, seed, size, work_root / name, pins)
                        print_traced(name, rec, benchmark["per_layer"])
                        declared, values = benchmark["per_layer"], rec["per_layer"]
                except ChildFailed as exc:
                    print(f"== {name}: FAILED: {exc}")
                    attempted += 1
                    failed += 1
                    correct = False
                    continue
                entry["traced" if trace else "untraced"] = rec
                attempted += rec["attempted"]
                failed += rec["failed"]
                if rec["problems"] or rec["failed"]:
                    correct = False
                missing = [d["name"] for d in declared if d["name"] not in values]
                extra = sorted(set(values) - {d["name"] for d in declared})
                if missing or extra:
                    print(f"  PROBLEM: metrics do not match BENCHMARK.json: "
                          f"missing {missing}, undeclared {extra}")
                    correct = False
                prefix = "" if args.workload else f"{name}."
                for spec in declared:
                    if spec["name"] in values:
                        flat[prefix + spec["name"]] = {
                            "value": values[spec["name"]], "unit": spec["unit"]}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if args.write_pins and correct:
        for name, entry in record["workloads"].items():
            rec = entry.get("untraced") or entry["traced"]
            pins[size][name] = rec["sha256"]
            pins["platform"] = rec["platform"]
        pins["seed"] = seed
        (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": flat}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
