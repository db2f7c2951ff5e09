"""Streaming fleet aggregation: state-dir files -> one live snapshot.

A running campaign's observable state lives in two files in its state
directory, each with its own durability contract:

* ``shards.jsonl`` / ``zoo.jsonl`` — the fsynced ledger of unit fates
  (the only durable truth);
* ``events.jsonl`` — the append-only bus feed
  (:mod:`repro.obs.bus`): spawns, progress, retries, fates, hangs, span
  events, structured log records, all wall-stamped.

:class:`FleetAggregator` tails both *incrementally* via byte-offset
cursors (O(new bytes) per poll, torn tails left pending; damaged
complete lines, and records whose ids or counts are not integers, are
skipped and counted — never raised).  Each :meth:`FleetAggregator.poll`
folds whatever is new into the running model and returns a
:class:`FleetSnapshot`: per-unit health (pending / running / done /
quarantined / failed, progress, attempts, event timeline), fleet counts,
paths/s throughput, ETA, retry totals, and the ``torn_records`` damage
counter.

Determinism contract: ``poll(now=None)`` derives "now" from the newest
wall stamp *observed in the files* instead of the system clock, so a
snapshot of a finished (or frozen fixture) state directory is a pure
function of its bytes — the property ``repro top --once`` pins
byte-identically in tests.  Live callers pass ``now=time.time()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.obs.bus import BUS_FILE, TailState, tail_jsonl

__all__ = ["UnitHealth", "FleetSnapshot", "FleetAggregator"]

#: Ledger files recognized in a state directory, with the unit noun the
#: snapshot reports for each.
_LEDGERS = (("shards.jsonl", "shard"), ("zoo.jsonl", "cell"))

#: Bus kinds that advance a unit's status timeline.
_STATUS_KINDS = {
    "worker.spawn": "running",
    "shard.retry": "retrying",
    "shard.done": "done",
    "shard.quarantined": "quarantined",
    "worker.hang": "hung",
    "worker.sigkill": "killed",
    "cell.done": "done",
    "cell.failed": "failed",
}


@dataclass
class UnitHealth:
    """One work unit's (shard's / cell's) current health."""

    unit_id: int
    status: str = "pending"  # pending|running|done|quarantined|failed
    total: int = 0  # paths in this unit (1 for a zoo cell)
    done: int = 0  # progress within the unit
    attempts: int = 0
    error: str = ""
    label: str = ""  # e.g. "bbr/codel/wan" for a zoo cell
    last_wall: Optional[float] = None
    #: Wall-stamped status transitions observed on the bus.
    timeline: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.unit_id,
            "status": self.status,
            "total": self.total,
            "done": self.done,
            "attempts": self.attempts,
            "error": self.error,
            "label": self.label,
            "last_wall": self.last_wall,
            "timeline": list(self.timeline),
        }


@dataclass
class FleetSnapshot:
    """Point-in-time view of one campaign/zoo state directory."""

    kind: str  # "campaign" | "zoo" | "unknown"
    unit_name: str  # "shard" | "cell"
    state_dir: str
    meta: dict
    units: dict[int, UnitHealth]
    n_units: int
    paths_total: int
    paths_done: int
    retries: int
    torn_records: int
    bus_events: dict[str, int]
    started_wall: Optional[float]
    now: Optional[float]
    rate: Optional[float]  # paths (cells) per second, from completed units
    eta_s: Optional[float]

    @property
    def counts(self) -> dict[str, int]:
        """Units per status (every status key always present)."""
        out = {"pending": 0, "running": 0, "done": 0, "quarantined": 0,
               "failed": 0}
        for u in self.units.values():
            out[u.status] = out.get(u.status, 0) + 1
        return out

    @property
    def status(self) -> str:
        """Fleet verdict: EMPTY / RUNNING / COMPLETE / DEGRADED."""
        if self.kind == "unknown" or not self.n_units:
            return "EMPTY"
        c = self.counts
        unresolved = c["pending"] + c["running"]
        if unresolved:
            return "RUNNING"
        return "DEGRADED" if (c["quarantined"] or c["failed"]) else "COMPLETE"

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the ``/snapshot.json`` payload)."""
        return {
            "kind": self.kind,
            "unit": self.unit_name,
            "state_dir": self.state_dir,
            "status": self.status,
            "meta": dict(self.meta),
            "counts": self.counts,
            "n_units": self.n_units,
            "paths_total": self.paths_total,
            "paths_done": self.paths_done,
            "retries": self.retries,
            "torn_records": self.torn_records,
            "bus_events": dict(sorted(self.bus_events.items())),
            "started_wall": self.started_wall,
            "now": self.now,
            "rate": self.rate,
            "eta_s": self.eta_s,
            "units": [self.units[k].to_dict() for k in sorted(self.units)],
        }


def _ints(rec: dict, *keys: str) -> bool:
    """Every one of ``keys`` that ``rec`` holds is an integer: the ids and
    counts the folds read.  Anything else there is damage."""
    return all(type(rec[k]) is int for k in keys if k in rec)


def _unit_totals(n_paths: int, n_units: int) -> list[int]:
    """Contiguous balanced split — the ``plan_shards`` arithmetic."""
    q, r = divmod(int(n_paths), max(1, int(n_units)))
    return [q + (1 if i < r else 0) for i in range(n_units)]


class FleetAggregator:
    """Incremental tailer of one state directory.

    Keep one instance per directory and call :meth:`poll` repeatedly —
    each call reads only bytes appended since the previous call.  A
    fresh instance replays the whole directory on its first poll, which
    is how ``--once`` snapshots and finished campaigns are read.
    """

    def __init__(self, state_dir: Union[str, Path]):
        self.state_dir = Path(state_dir)
        self._ledger_file: Optional[str] = None
        self._unit_name = "shard"
        self._meta: dict = {}
        self._ledger_tail = TailState()
        self._bus_tail = TailState()
        self._units: dict[int, UnitHealth] = {}
        self._bus_counts: dict[str, int] = {}
        self._retries = 0
        self._started_wall: Optional[float] = None
        self._last_wall: Optional[float] = None
        #: (wall, paths) per completed-unit bus event, for throughput.
        self._completions: list[tuple[float, int]] = []

    # -- feed folding ----------------------------------------------------
    def _detect_ledger(self) -> None:
        if self._ledger_file is not None:
            return
        for name, unit in _LEDGERS:
            if (self.state_dir / name).exists():
                self._ledger_file = name
                self._unit_name = unit
                return

    def _unit(self, unit_id: int) -> UnitHealth:
        u = self._units.get(unit_id)
        if u is None:
            u = self._units[unit_id] = UnitHealth(unit_id=unit_id)
        return u

    def _seed_units(self) -> None:
        """Pre-populate pending units once the ledger meta names totals."""
        if self._units or not self._meta:
            return
        kind = self._meta.get("kind")
        if kind == "sharded-campaign":
            totals = _unit_totals(
                int(self._meta.get("n_paths", 0)),
                int(self._meta.get("n_shards", 0)),
            )
            for i, total in enumerate(totals):
                self._unit(i).total = total
        elif kind == "zoo":
            for i in range(int(self._meta.get("n", 0))):
                self._unit(i).total = 1

    def _fold_ledger(self) -> None:
        self._detect_ledger()
        if self._ledger_file is None:
            return
        first = self._ledger_tail.offset == 0
        records, self._ledger_tail = tail_jsonl(
            self.state_dir / self._ledger_file, self._ledger_tail
        )
        for rec in records:
            if first and not self._meta and "i" not in rec:
                if not _ints(rec, "n_paths", "n_shards", "n"):
                    self._ledger_tail.torn += 1
                    continue
                self._meta = dict(rec)
                self._seed_units()
                continue
            payload = rec.get("record")
            if not ("i" in rec and _ints(rec, "i") and isinstance(payload, dict)
                    and _ints(payload, "attempts")):
                self._ledger_tail.torn += 1  # not meta, not a record
                continue
            unit = self._unit(rec["i"])
            if self._unit_name == "shard":
                status = str(payload.get("status", "done"))
                unit.status = status if status in (
                    "done", "quarantined") else "failed"
                unit.attempts = max(unit.attempts, payload.get("attempts", 1))
                unit.error = str(payload.get("error", "")) or unit.error
            else:  # zoo cells checkpoint the full cell record on success
                unit.status = "done"
                unit.label = "/".join(
                    str(payload.get(k, "?"))
                    for k in ("protocol", "aqm", "rtt_name")
                )
            if unit.status == "done":
                unit.done = unit.total

    def _fold_bus(self) -> None:
        records, self._bus_tail = tail_jsonl(
            self.state_dir / BUS_FILE, self._bus_tail
        )
        for rec in records:
            if not _ints(rec, "shard", "i", "paths", "attempt", "done"):
                self._bus_tail.torn += 1
                continue
            kind = str(rec.get("kind", "?"))
            self._bus_counts[kind] = self._bus_counts.get(kind, 0) + 1
            wall = rec.get("wall")
            wall = float(wall) if isinstance(wall, (int, float)) else None
            if wall is not None:
                if self._started_wall is None or wall < self._started_wall:
                    self._started_wall = wall
                if self._last_wall is None or wall > self._last_wall:
                    self._last_wall = wall
            if kind == "shard.retry" or kind == "cell.retry":
                self._retries += 1
            unit_id = rec.get("shard", rec.get("i"))
            if unit_id is None:
                continue
            unit = self._unit(unit_id)
            if wall is not None:
                unit.last_wall = wall
            status = _STATUS_KINDS.get(kind)
            if status is not None:
                unit.timeline.append({"wall": wall, "status": status,
                                      "kind": kind})
                # The ledger outranks the bus for terminal fates; the bus
                # outranks it for liveness (running/retrying flapping).
                if unit.status not in ("done", "quarantined", "failed"):
                    if status in ("running", "retrying", "hung", "killed"):
                        unit.status = "running"
                if status == "done":
                    unit.status = "done"
                    unit.done = unit.total if unit.total else unit.done
                    if wall is not None:
                        self._completions.append(
                            (wall, rec.get("paths", unit.total or 1))
                        )
                elif status == "quarantined":
                    unit.status = "quarantined"
                    unit.error = str(rec.get("error", "")) or unit.error
                elif status == "failed":
                    unit.status = "failed"
                    unit.error = str(rec.get("error", "")) or unit.error
            if kind in ("worker.spawn", "shard.retry", "shard.progress"):
                unit.attempts = max(unit.attempts, rec.get("attempt", 1))
            if kind == "shard.progress" and unit.status in ("pending", "running"):
                unit.status = "running"
                unit.done = max(unit.done, rec.get("done", 0))
            if kind == "cell.done":
                unit.label = str(rec.get("cell", "")) or unit.label

    # -- the poll --------------------------------------------------------
    def poll(self, now: Optional[float] = None) -> FleetSnapshot:
        """Fold everything new and return the current snapshot.

        ``now=None`` is the deterministic mode: "now" becomes the newest
        wall stamp found in the files, so identical bytes always produce
        an identical snapshot.  Live dashboards pass ``time.time()``.
        """
        self._fold_ledger()
        self._fold_bus()

        kind = {"sharded-campaign": "campaign", "zoo": "zoo"}.get(
            str(self._meta.get("kind")), "unknown"
        )
        paths_total = sum(u.total for u in self._units.values())
        paths_done = sum(
            u.total if u.status == "done" else min(u.done, u.total or u.done)
            for u in self._units.values()
        )
        if now is None:
            now = self._last_wall

        rate = None
        eta = None
        if self._completions and self._started_wall is not None:
            last_done_wall = max(w for w, _ in self._completions)
            span = last_done_wall - self._started_wall
            finished = sum(p for _, p in self._completions)
            if span > 0 and finished > 0:
                rate = finished / span
                remaining = max(0, paths_total - paths_done)
                if remaining and rate > 0:
                    eta = remaining / rate
                elif not remaining:
                    eta = 0.0

        return FleetSnapshot(
            kind=kind,
            unit_name=self._unit_name,
            state_dir=str(self.state_dir),
            meta=dict(self._meta),
            units=self._units,
            n_units=len(self._units),
            paths_total=paths_total,
            paths_done=paths_done,
            retries=self._retries,
            torn_records=self._ledger_tail.torn + self._bus_tail.torn,
            bus_events=dict(self._bus_counts),
            started_wall=self._started_wall,
            now=now,
            rate=rate,
            eta_s=eta,
        )
