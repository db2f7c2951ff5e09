"""``run.py --compare A.json B.json``: is B no worse than A?

For every workload and end-to-end metric present in both ``--out`` files
it prints both values, the ratio B/A (A is the base), the metric's bound
from ``BENCHMARK.json`` and a verdict:

``ok``          B's value is not worse than A's by more than the bound.
``regressed``   it is, and the two sets of samples do not interleave.
``unresolved``  the run-to-run spread of either side is wider than the
                bound *and* the samples interleave, so neither "same" nor
                "worse" can be claimed from these runs.

Exact counts (work per repetition, the traced pass's counts) and result
hashes are compared for identity and listed when they changed.  The exit
code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["compare_files", "spread", "verdict"]


def spread(samples: list) -> float:
    """Run-to-run spread as a share of the median: the inter-quartile
    distance with four or more samples, the full range below that."""
    if len(samples) < 2:
        return 0.0
    median = statistics.median(samples)
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / median
    return (max(samples) - min(samples)) / median


def verdict(value_a: float, value_b: float, a: list, b: list,
            better: str, bound: float) -> tuple[str, float]:
    """``(status, worse_by)`` for the reported values and the samples
    behind them (``a`` is the base)."""
    worse_by = (value_b - value_a) / value_a
    if better == "higher":
        worse_by = -worse_by
    interleave = not (min(b) > max(a) or max(b) < min(a))
    if max(spread(a), spread(b)) > bound and interleave:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare_files(path_a: Path, path_b: Path, benchmark: dict) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    print(f"A (base) = {path_a}: seed {a['seed']}, {a['size']}")
    print(f"B        = {path_b}: seed {b['seed']}, {b['size']}")
    if (a["seed"], a["size"]) != (b["seed"], b["size"]):
        print("warning: seeds or sizes differ; the comparison is between "
              "different inputs")
    regressed = 0
    changed: list[str] = []
    header = (f"{'workload':<20} {'metric':<12} {'A':>12} {'B':>12} "
              f"{'B/A':>7} {'bound':>6}  verdict")
    print(header)
    for name in (w["name"] for w in benchmark["workloads"]):
        wa = a["workloads"].get(name, {})
        wb = b["workloads"].get(name, {})
        ua, ub = wa.get("untraced"), wb.get("untraced")
        if ua and ub:
            for spec in benchmark["end_to_end"]:
                ma = ua["end_to_end"].get(spec["name"])
                mb = ub["end_to_end"].get(spec["name"])
                if not (ma and mb):
                    continue
                status, _ = verdict(ma["value"], mb["value"], ma["samples"],
                                    mb["samples"], spec["better"], spec["bound"])
                regressed += status == "regressed"
                sign = "+" if spec["better"] == "lower" else "-"
                print(f"{name:<20} {spec['name']:<12} {ma['value']:>12.6g} "
                      f"{mb['value']:>12.6g} {mb['value'] / ma['value']:>7.3f} "
                      f"{sign}{spec['bound']:.0%}".ljust(79) + f"  {status}")
            if ua["work"] != ub["work"]:
                changed.append(f"{name}: work {ua['work']} -> {ub['work']} "
                               f"{ub['work_unit']}")
            if ua["sha256"] != ub["sha256"]:
                changed.append(f"{name}: result hash {ua['sha256'][:12]} -> "
                               f"{ub['sha256'][:12]}")
        ta, tb = wa.get("traced"), wb.get("traced")
        if ta and tb:
            for key in sorted(set(ta["exact"]) | set(tb["exact"])):
                va, vb = ta["exact"].get(key), tb["exact"].get(key)
                if va != vb:
                    changed.append(f"{name}: {key} {va} -> {vb}")
    if changed:
        print("exact counts / results that changed:")
        for line in changed:
            print(f"  {line}")
    else:
        print("exact counts and result hashes: identical")
    print(f"{regressed} metric(s) regressed")
    return 1 if regressed else 0
