"""Unified fleet event bus: one ordered JSON-lines feed per state-dir.

A long-running campaign already scatters its observable state across a
shard ledger, heartbeat files, span JSON-lines, and ad-hoc stderr
prints.  The bus merges the *event-shaped* part of that into a single
append-only ``events.jsonl`` inside the state directory:

* **Schema-versioned records** — every record carries ``v`` (the bus
  schema version), ``kind`` (dotted event name: ``shard.done``,
  ``worker.hang``, ``log``), ``src`` (which component emitted it),
  ``seq`` (per-writer sequence) and ``wall`` (emission wall clock).
* **Atomic appends** — each record is one ``os.write`` to an
  ``O_APPEND`` descriptor, so concurrent writers (the supervisor parent
  plus its shard workers) interleave whole records, never bytes.  The
  feed's order is the kernel's append order.
* **Torn-tail-tolerant tailing** — :func:`tail_jsonl` consumes only
  newline-terminated records and leaves an unterminated tail *pending*
  (it will be re-read once the writer finishes it); a *complete* line
  that fails to decode is skipped and counted instead of raising, per
  the fleet rule that readers of unfsynced telemetry never crash on a
  tear (:class:`TailState` accumulates the ``torn`` counter the
  snapshot surfaces).

The bus is observability, not state: nothing resumes from it, and
deleting it loses nothing but history.  Durable truth stays in the
fsynced shard ledger (:mod:`repro.faults.checkpoint`).

:class:`RunLog` is the structured-logging half: subcommands route their
diagnostic prints through it, and ``mode="json"`` (the CLI passes
``--log-json`` that way) switches the emission format from the
historical human text to one JSON record per line — mirrored onto the
bus when one is attached, so a campaign's stderr chatter and its fleet
feed are the same records.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Union

__all__ = [
    "BUS_FILE",
    "BUS_VERSION",
    "EventBus",
    "RunLog",
    "TailState",
    "open_bus",
    "parse_record",
    "read_json_tolerant",
    "tail_jsonl",
]

#: Bus file name inside a campaign/zoo state directory.
BUS_FILE = "events.jsonl"

#: Schema version stamped into every record (bump on breaking changes;
#: readers skip-and-count versions they do not understand).
BUS_VERSION = 1


class EventBus:
    """Append-only writer of one state-dir's ``events.jsonl`` feed.

    The descriptor is opened lazily (``O_APPEND``) on first emit, so
    constructing a bus never creates files — a supervisor can carry one
    unconditionally and only a run that actually emits leaves a feed
    behind.  Safe for concurrent use from multiple processes: every
    record is a single ``write(2)`` of a complete line.
    """

    def __init__(self, state_dir: Union[str, Path], source: str = "supervisor"):
        self.path = Path(state_dir) / BUS_FILE
        self.source = str(source)
        self._fd: Optional[int] = None
        self._seq = 0

    def emit(self, kind: str, **fields) -> dict:
        """Append one event record; returns the record as written."""
        self._seq += 1
        rec = {
            "v": BUS_VERSION,
            "kind": str(kind),
            "src": self.source,
            "seq": self._seq,
            "wall": time.time(),
        }
        rec.update(fields)
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        line = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        # One write of one whole line: concurrent emitters (parent +
        # workers) interleave records, never partial bytes.
        os.write(self._fd, line.encode("utf-8"))
        return rec

    def close(self) -> None:
        """Release the append descriptor (safe to call repeatedly)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventBus {self.path} src={self.source} seq={self._seq}>"


def open_bus(
    state_dir: Optional[Union[str, Path]], source: str = "supervisor"
) -> Optional[EventBus]:
    """An :class:`EventBus` for ``state_dir``, or ``None`` without one."""
    if state_dir is None:
        return None
    return EventBus(state_dir, source=source)


@dataclass
class TailState:
    """Cursor + damage counter for one incrementally tailed JSONL file.

    ``offset`` is the byte position of the next unread record;
    ``torn`` counts complete-but-undecodable lines skipped so far.  A
    shrinking file (rotation — never expected here) resets the cursor.
    """

    offset: int = 0
    torn: int = 0


def tail_jsonl(
    path: Union[str, Path], state: Optional[TailState] = None
) -> tuple[list[dict], TailState]:
    """Read every *complete* new record since ``state``; O(new bytes).

    Only newline-terminated lines are consumed: a torn tail (a write
    still in flight, or one lost to a crash) stays pending and is
    re-examined next poll, so a concurrent reader only ever observes
    whole records.  Complete lines that fail to decode as JSON objects
    are skipped and counted in ``state.torn`` instead of raising.
    """
    st = state or TailState()
    p = Path(path)
    try:
        size = p.stat().st_size
    except OSError:
        return [], st
    if size < st.offset:  # truncated/replaced underneath us: start over
        st.offset = 0
    if size == st.offset:
        return [], st
    with p.open("rb") as fh:
        fh.seek(st.offset)
        chunk = fh.read(size - st.offset)
    keep = chunk.rfind(b"\n") + 1
    if keep == 0:  # nothing newline-terminated yet
        return [], st
    records: list[dict] = []
    for raw in chunk[:keep].split(b"\n")[:-1]:
        if not raw:
            continue
        obj = parse_record(raw)
        if obj is None:
            st.torn += 1
        else:
            records.append(obj)
    st.offset += keep
    return records, st


def parse_record(raw: bytes) -> Optional[dict]:
    """``raw`` decoded as UTF-8 JSON, or ``None`` unless it is an object.

    The one decoding rule for every obs reader: torn JSON, bytes that
    are not UTF-8, and JSON that is not an object all come back
    ``None``, never an exception.
    """
    try:
        obj = json.loads(raw.decode())
    except ValueError:  # UnicodeDecodeError is a ValueError too
        return None
    return obj if isinstance(obj, dict) else None


def read_json_tolerant(path: Union[str, Path]) -> tuple[Optional[dict], int]:
    """One whole-file JSON read that treats damage as data.

    Heartbeat files are atomic-replace but deliberately unfsynced, so a
    crash (or a reader racing the replace on a non-atomic filesystem)
    can expose a missing or partial file.  Returns ``(record, torn)``:
    ``(None, 0)`` when the file simply does not exist, ``(None, 1)``
    when it exists but cannot be read or is not a UTF-8 JSON object
    (:func:`parse_record`).
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return None, 0
    except OSError:
        return None, 1
    obj = parse_record(raw)
    return obj, int(obj is None)


@dataclass
class RunLog:
    """Structured diagnostics for one subcommand run.

    ``emit(event, message, **fields)`` prints ``message`` verbatim in
    text mode (bit-compatible with the historical ad-hoc prints) or a
    single JSON record in json mode, and mirrors the record onto the
    attached bus either way.  ``stream=None`` suppresses printing
    entirely (bus-only logging).
    """

    component: str
    bus: Optional[EventBus] = None
    stream: Optional[IO[str]] = field(default_factory=lambda: sys.stderr)
    mode: str = "text"

    @property
    def json_mode(self) -> bool:
        """True when emitting JSON records instead of human text."""
        return self.mode == "json"

    def emit(self, event: str, message: Optional[str] = None, **fields) -> dict:
        """Log one event; returns the structured record."""
        rec = {"event": f"{self.component}.{event}", **fields}
        if self.bus is not None:
            self.bus.emit("log", **rec)
        if self.stream is not None:
            if self.json_mode:
                out = dict(rec)
                out["wall"] = time.time()
                if message is not None:
                    out["message"] = message
                print(json.dumps(out, sort_keys=True), file=self.stream)
            elif message is not None:
                print(message, file=self.stream)
            else:
                kv = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
                print(f"[{self.component}.{event}] {kv}".rstrip(),
                      file=self.stream)
            self.stream.flush()
        return rec
