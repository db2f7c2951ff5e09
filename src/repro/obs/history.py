"""``python -m repro history`` — cross-run health timeline.

One ledger record or run report tells you how the code behaves *today*;
the repository's health is a trajectory.  This module folds everything
recorded under a root directory into one chronological Markdown (or
HTML) timeline:

* performance-ledger records under ``ledger/`` (files written by
  ``python3 benchmarks/e2e/run.py --out ledger/<name>.json``): each
  record's ``wall_s`` per workload, in filename order.  History only
  lists them; the gate is ``run.py --compare A B``;
* run directories under ``runs/`` (``manifest.json`` + optional
  ``metrics.json`` / report artifacts): what ran, with which knobs,
  whether a report was rendered, plus any metric warnings;
* campaign/zoo state directories found under the root: each one's
  :class:`~repro.obs.aggregate.FleetSnapshot` verdict, with DEGRADED
  runs (quarantined shards, lost paths) called out in their own log.

Reading is tolerant by the fleet rule: damaged or partial JSON files
are skipped and *counted* (reported in the footer), never raised —
history must render even when one run crashed mid-write.
"""

from __future__ import annotations

import html as _html
import sys
from pathlib import Path
from typing import Optional, Union

from repro.obs.aggregate import FleetAggregator
from repro.obs.bus import read_json_tolerant

__all__ = ["collect_history", "generate_history",
           "main"]

#: Schema tag of the records ``benchmarks/e2e/run.py --out`` writes.
_LEDGER_SCHEMA = "repro-e2e/1"


def _dig(obj, *keys):
    """``obj[k0][k1]...`` or None as soon as a level is not a dict."""
    for k in keys:
        obj = obj.get(k) if isinstance(obj, dict) else None
    return obj


def collect_history(root: Union[str, Path]) -> dict:
    """Scan ``root`` and return the raw history model (JSON-able)."""
    d = Path(root)
    torn = 0

    def load(path: Path) -> Optional[dict]:
        nonlocal torn
        doc, damaged = read_json_tolerant(path)
        torn += damaged
        return doc

    # -- performance-ledger records ------------------------------------
    records = []
    for p in sorted((d / "ledger").glob("*.json")):
        doc = load(p)
        if doc is None:
            continue
        workloads = doc.get("workloads")
        if (doc.get("schema") != _LEDGER_SCHEMA
                or not isinstance(workloads, dict)):
            torn += 1
            continue
        records.append({
            "file": p.name,
            "size": doc.get("size"),
            "seed": doc.get("seed"),
            "wall_s": {
                name: _dig(w, "untraced", "end_to_end", "wall_s", "value")
                for name, w in workloads.items()
            },
        })

    # -- recorded runs under runs/ ---------------------------------------
    run_entries = []
    runs_dir = d / "runs"
    if runs_dir.is_dir():
        for sub in sorted(runs_dir.iterdir()):
            manifest_path = sub / "manifest.json"
            if not sub.is_dir() or not manifest_path.exists():
                continue
            manifest = load(manifest_path) or {}
            metrics = load(sub / "metrics.json")
            warnings = []
            if metrics:
                w = metrics.get("warnings")
                if isinstance(w, list):
                    warnings = [str(x) for x in w]
            run_entries.append({
                "run": sub.name,
                "name": manifest.get("name", sub.name),
                "seed": manifest.get("seed"),
                "duration": manifest.get("duration"),
                "env": manifest.get("env", {}),
                "report": (sub / "report.md").exists(),
                "html": (sub / "report.html").exists(),
                "warnings": warnings,
            })

    # -- fleet state directories -----------------------------------------
    fleets = []
    seen_ledgers = set()
    for pattern in ("shards.jsonl", "zoo.jsonl"):
        for ledger in sorted(d.rglob(pattern)):
            state_dir = ledger.parent
            if state_dir in seen_ledgers:
                continue
            seen_ledgers.add(state_dir)
            snap = FleetAggregator(state_dir).poll(now=None)
            torn += snap.torn_records
            fleets.append({
                "state_dir": str(state_dir.relative_to(d)),
                "kind": snap.kind,
                "status": snap.status,
                "counts": snap.counts,
                "paths_done": snap.paths_done,
                "paths_total": snap.paths_total,
                "retries": snap.retries,
                "quarantined": [
                    u.to_dict()
                    for u in snap.units.values()
                    if u.status in ("quarantined", "failed")
                ],
            })

    return {
        "root": str(d),
        "ledger": records,
        "runs": run_entries,
        "fleets": fleets,
        "torn_records": torn,
    }


def generate_history(root: Union[str, Path]) -> str:
    """The cross-run health timeline as Markdown."""
    model = collect_history(root)
    out: list[str] = [f"# repro health timeline — `{model['root']}`", ""]

    ledger = model["ledger"]
    out.append(f"## Performance ledger ({len(ledger)} records)")
    out.append("")
    if ledger:
        names = list(dict.fromkeys(n for r in ledger for n in r["wall_s"]))
        out.append("| file | size | seed | " + " | ".join(names) + " |")
        out.append("|" + "---|" * (3 + len(names)))
        for r in ledger:
            cells = [
                f"{v:.3f}" if isinstance(v, (int, float)) else "-"
                for v in map(r["wall_s"].get, names)
            ]
            out.append(f"| {r['file']} | {r['size']} | {r['seed']} | "
                       + " | ".join(cells) + " |")
        out.append("")
        out.append("_`wall_s` per workload, seconds; the gate is "
                   "`python3 benchmarks/e2e/run.py --compare A B`_")
    else:
        out.append("_no ledger records under ledger/_")
    out.append("")

    runs = model["runs"]
    out.append(f"## Recorded runs ({len(runs)})")
    out.append("")
    if runs:
        out.append("| run | experiment | seed | duration | report | warnings |")
        out.append("|---|---|---|---|---|---|")
        for r in runs:
            report = "md+html" if r["html"] else ("md" if r["report"] else "-")
            dur = r["duration"]
            dur_s = f"{dur}s" if dur is not None else "-"
            out.append(
                f"| {r['run']} | {r['name']} | {r['seed']} | {dur_s} | "
                f"{report} | {len(r['warnings'])} |"
            )
    else:
        out.append("_no run directories under runs/_")
    out.append("")

    fleets = model["fleets"]
    out.append(f"## Fleet runs ({len(fleets)})")
    out.append("")
    degraded = [f for f in fleets if f["status"] == "DEGRADED"]
    if fleets:
        out.append("| state dir | kind | status | done | retries |")
        out.append("|---|---|---|---|---|")
        for f in fleets:
            status = (f"**{f['status']}**" if f["status"] == "DEGRADED"
                      else f["status"])
            out.append(
                f"| {f['state_dir']} | {f['kind']} | {status} | "
                f"{f['paths_done']}/{f['paths_total']} | {f['retries']} |"
            )
        out.append("")
    else:
        out.append("_no campaign/zoo state directories under the root_")
        out.append("")
    if degraded:
        out.append("### DEGRADED-run log")
        out.append("")
        for f in degraded:
            out.append(f"- `{f['state_dir']}`:")
            for u in f["quarantined"]:
                err = f" — {u['error']}" if u["error"] else ""
                out.append(
                    f"  - {f['kind']} unit {u['id']} {u['status']} after "
                    f"{u['attempts']} attempts{err}"
                )
        out.append("")

    out.append(
        f"_torn/unreadable records skipped while reading: "
        f"{model['torn_records']}_"
    )
    return "\n".join(out) + "\n"


def _html_page(root: Union[str, Path], md: str) -> str:
    title = _html.escape(f"repro health timeline — {root}")
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{title}</title></head><body>"
        f"<h1>{title}</h1>"
        "<pre>" + _html.escape(md) + "</pre>"
        "</body></html>\n"
    )


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point behind ``python -m repro history``."""
    import argparse

    from repro.obs.metrics import atomic_write_text

    p = argparse.ArgumentParser(
        prog="repro history",
        description="Fold ledger/ + runs/ + fleet state dirs into a "
        "cross-run health timeline.",
    )
    p.add_argument("root", nargs="?", default=".",
                   help="directory holding ledger/ and runs/ (default .)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the Markdown timeline to PATH")
    p.add_argument("--html", action="store_true",
                   help="with --out: write an HTML page next to it")
    args = p.parse_args(argv)

    md = generate_history(args.root)
    print(md, end="")
    if args.out:
        out = Path(args.out)
        atomic_write_text(out, md)
        if args.html:
            # Same scan as the Markdown: a live root may have moved on.
            atomic_write_text(
                out.with_suffix(".html"), _html_page(args.root, md)
            )
        print(f"[history written to {out}]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
