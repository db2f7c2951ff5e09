"""``python -m repro top`` — live fleet console for a state directory.

Renders the :class:`~repro.obs.aggregate.FleetSnapshot` of a running (or
finished) campaign/zoo state directory as a compact terminal dashboard:
fleet verdict, path throughput + ETA, per-status unit counts, a progress
bar, and a per-unit table with each shard's latest health.

Two modes:

* **live** (default): redraws every ``--interval`` seconds using ANSI
  cursor control, stamping "now" from the wall clock; exits on Ctrl-C,
  or on its own once the fleet reaches COMPLETE/DEGRADED.
* **``--once``**: polls once with the *deterministic* clock (``now`` =
  newest wall stamp in the files), prints the plain snapshot, and
  exits.  Identical directory bytes produce identical output bytes —
  the mode tests and CI pin against a committed fixture.

Rendering is pure (:func:`render_snapshot` takes a snapshot, returns a
string), so tests never need a terminal.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from repro.obs.aggregate import FleetAggregator, FleetSnapshot, UnitHealth

__all__ = ["render_snapshot", "run_top", "main"]

#: ANSI escapes used in live mode only (never in ``--once`` output).
_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"
_COLORS = {
    "COMPLETE": "\x1b[32m",  # green
    "RUNNING": "\x1b[36m",  # cyan
    "DEGRADED": "\x1b[31m",  # red
    "EMPTY": "\x1b[33m",  # yellow
    "done": "\x1b[32m",
    "running": "\x1b[36m",
    "quarantined": "\x1b[31m",
    "failed": "\x1b[31m",
    "pending": "\x1b[2m",  # dim
}

#: Display order of the per-unit table (active units first).
_STATUS_ORDER = {"running": 0, "pending": 1, "quarantined": 2, "failed": 3,
                 "done": 4}


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    s = max(0, int(round(seconds)))
    if s < 60:
        return f"{s}s"
    if s < 3600:
        return f"{s // 60}m{s % 60:02d}s"
    return f"{s // 3600}h{(s % 3600) // 60:02d}m"


def _bar(done: int, total: int, width: int) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "-" * (width - filled)


def _paint(text: str, key: str, color: bool) -> str:
    code = _COLORS.get(key) if color else None
    return f"{code}{text}{_RESET}" if code else text


def _unit_row(u: UnitHealth, unit_name: str, now: Optional[float],
              color: bool) -> str:
    age = "-"
    if now is not None and u.last_wall is not None:
        age = _fmt_duration(now - u.last_wall)
    frac = f"{u.done}/{u.total}" if u.total else str(u.done)
    status = _paint(f"{u.status:<12}", u.status, color)
    tail = u.label or u.error
    if len(tail) > 40:
        tail = tail[:37] + "..."
    return (
        f"  {unit_name} {u.unit_id:>4}  {status} {frac:>11}  "
        f"att {u.attempts:>2}  seen {age:>7}  {tail}"
    ).rstrip()


def render_snapshot(snap: FleetSnapshot, color: bool = False,
                    max_units: int = 64) -> str:
    """One snapshot as console text (deterministic for fixed input)."""
    lines: list[str] = []
    title = f"repro top — {snap.kind} · {snap.state_dir}"
    status = _paint(snap.status, snap.status, color)
    if color:
        title = f"{_BOLD}{title}{_RESET}"
    lines.append(f"{title} · {status}")

    meta = snap.meta
    if meta:
        bits = [
            f"{k}={meta[k]}"
            for k in ("seed", "n_sites", "n_paths", "n_shards", "n")
            if k in meta
        ]
        if bits:
            lines.append("  " + " ".join(bits))

    rate = f"{snap.rate:.1f}/s" if snap.rate is not None else "-"
    pct = (
        f"{100.0 * snap.paths_done / snap.paths_total:.1f}%"
        if snap.paths_total
        else "-"
    )
    noun = "paths" if snap.unit_name == "shard" else "cells"
    lines.append(
        f"  {noun} {snap.paths_done}/{snap.paths_total} ({pct}) · "
        f"rate {rate} · ETA {_fmt_duration(snap.eta_s)} · "
        f"retries {snap.retries} · torn {snap.torn_records}"
    )
    lines.append(f"  [{_bar(snap.paths_done, snap.paths_total, 50)}]")

    counts = snap.counts
    lines.append(
        "  " + " · ".join(
            _paint(f"{counts[s]} {s}", s, color)
            for s in ("running", "pending", "done", "quarantined", "failed")
            if counts[s] or s in ("done", "pending")
        )
    )

    units = sorted(
        snap.units.values(),
        key=lambda u: (_STATUS_ORDER.get(u.status, 9), u.unit_id),
    )
    shown = units[:max_units]
    if shown:
        lines.append("")
    for u in shown:
        lines.append(_unit_row(u, snap.unit_name, snap.now, color))
    if len(units) > len(shown):
        lines.append(f"  ... {len(units) - len(shown)} more "
                     f"{snap.unit_name}s not shown")

    if snap.bus_events:
        top_kinds = sorted(
            snap.bus_events.items(), key=lambda kv: (-kv[1], kv[0])
        )[:6]
        lines.append(
            "  bus: " + " · ".join(f"{k}×{n}" for k, n in top_kinds)
        )
    return "\n".join(lines) + "\n"


def run_top(
    state_dir: str,
    once: bool = False,
    interval: float = 2.0,
    stream: Optional[IO[str]] = None,
    color: Optional[bool] = None,
    max_polls: Optional[int] = None,
) -> int:
    """Drive the console; returns a process exit code.

    ``--once``: one deterministic poll, plain text, exit 0 (exit 1 when
    the directory holds no recognizable campaign/zoo state).  Live mode
    re-polls every ``interval`` seconds until the fleet leaves RUNNING
    (``max_polls`` bounds the loop for tests).
    """
    out = stream if stream is not None else sys.stdout
    agg = FleetAggregator(state_dir)
    if once:
        snap = agg.poll(now=None)
        out.write(render_snapshot(snap, color=False))
        out.flush()
        return 0 if snap.status != "EMPTY" else 1

    if color is None:
        color = bool(getattr(out, "isatty", lambda: False)())
    polls = 0
    try:
        while True:
            snap = agg.poll(now=time.time())
            out.write(_CLEAR if color else "")
            out.write(render_snapshot(snap, color=color))
            out.flush()
            polls += 1
            if snap.status in ("COMPLETE", "DEGRADED"):
                return 0
            if max_polls is not None and polls >= max_polls:
                return 0 if snap.status != "EMPTY" else 1
            time.sleep(max(0.05, interval))
    except KeyboardInterrupt:
        out.write("\n")
        return 130


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point behind ``python -m repro top``."""
    import argparse

    p = argparse.ArgumentParser(
        prog="repro top",
        description="Live console over a campaign/zoo state directory.",
    )
    p.add_argument("state_dir", help="campaign/zoo state directory "
                   "(shards.jsonl / zoo.jsonl + events.jsonl)")
    p.add_argument("--once", action="store_true",
                   help="print one deterministic snapshot and exit "
                   "(no ANSI, byte-stable for identical directory bytes)")
    p.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                   help="live refresh interval (default 2.0)")
    args = p.parse_args(argv)
    return run_top(args.state_dir, once=args.once, interval=args.interval)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
