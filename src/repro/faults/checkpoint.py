"""JSON-lines checkpoints for interruptible grid/campaign runs.

A checkpoint file holds one meta line (what run this is: kind, seed, item
count) followed by one JSON record per *completed* work item.  Appends are
flushed and fsynced, so a killed run loses at most the record it was
writing.  The durability rule is newline-terminated-or-nothing: a record
only counts once its trailing newline is on disk.  A kill mid-append
leaves a torn final line; :meth:`Checkpoint.load` (and the first
:meth:`Checkpoint.append` after reopening) detects it, warns, drops the
partial record, and truncates the file back to the last complete line —
if the torn bytes were left in place, the next append would concatenate
onto them and poison every later resume.  Anything else undecodable is
real corruption and raises.  Resuming is then just "skip the indices
already on disk": the caller re-derives per-item RNG streams from the run
seed, so the merged result is bit-identical to an uninterrupted run.

Floats survive the round trip exactly: ``json`` serializes via
``float.__repr__``, which is lossless for IEEE-754 doubles.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import IO, Optional, Union

__all__ = [
    "Checkpoint",
    "CheckpointError",
]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt or belongs to a different run."""


class Checkpoint:
    """One run's append-only completion log.

    Parameters
    ----------
    path:
        The ``.jsonl`` file (created lazily on first append).
    meta:
        Identity of the run (e.g. ``{"kind": "campaign", "seed": 7,
        "n": 300}``).  Written as the first line of a fresh file and
        *validated* against an existing file on :meth:`load` — resuming a
        campaign against another run's checkpoint is an error, not a
        silently mixed dataset.
    """

    def __init__(self, path: Union[str, Path], meta: Optional[dict] = None):
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.meta.setdefault("version", _FORMAT_VERSION)
        self._fh: Optional[IO[str]] = None

    # -- torn-tail repair ------------------------------------------------
    def _repair_torn_tail(self) -> int:
        """Drop a partial trailing line left by a kill mid-append.

        A record is durable only once its newline reaches disk, so any
        bytes after the last ``\\n`` are the append a crash interrupted —
        never a record.  They must also be *removed*: a later append
        would otherwise concatenate onto them, welding two records into
        one undecodable line and poisoning every subsequent resume.
        Returns the number of bytes dropped (0 when the file is clean).
        """
        if not self.path.exists():
            return 0
        raw = self.path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return 0
        keep = raw.rfind(b"\n") + 1  # 0 when no newline at all
        torn = len(raw) - keep
        warnings.warn(
            f"{self.path}: dropping {torn}-byte partial record left by an "
            f"interrupted append (resuming from the last complete line)",
            stacklevel=3,
        )
        with self.path.open("rb+") as fh:
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        return torn

    # -- reading ---------------------------------------------------------
    def load(self) -> dict[int, dict]:
        """Completed records by index (empty when no file exists).

        A truncated final line (the append a crash interrupted) is
        dropped — with a warning — and the file is repaired in place so
        later appends start from a clean tail.  An undecodable *complete*
        line anywhere raises :class:`CheckpointError`, as does a line that
        is not ``{"i": <int>, "record": <object>}`` or a meta mismatch:
        those are corruption, not an interrupted write.  When an index
        appears twice, its last record wins.
        """
        if not self.path.exists():
            return {}
        self._repair_torn_tail()
        raw = self.path.read_text()
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: dict[int, dict] = {}
        for pos, line in enumerate(lines):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise CheckpointError(
                    f"{self.path}: corrupt checkpoint line {pos + 1}"
                ) from None
            if pos == 0:
                self._validate_meta(obj)
                continue
            if (not isinstance(obj, dict) or type(obj.get("i")) is not int
                    or not isinstance(obj.get("record"), dict)):
                raise CheckpointError(
                    f"{self.path}: line {pos + 1} is not a checkpoint record"
                )
            records[obj["i"]] = obj["record"]
        return records

    def _validate_meta(self, on_disk: dict) -> None:
        if not isinstance(on_disk, dict):
            raise CheckpointError(f"{self.path}: first line is not a meta record")
        for key, want in self.meta.items():
            got = on_disk.get(key)
            if got != want:
                raise CheckpointError(
                    f"{self.path}: checkpoint belongs to a different run "
                    f"({key}={got!r}, this run has {key}={want!r})"
                )

    # -- writing ---------------------------------------------------------
    def append(self, index: int, record: dict) -> None:
        """Durably log item ``index`` as completed."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = self.path.open("a")
            if fresh:
                self._write_line(self.meta)
        self._write_line({"i": int(index), "record": record})

    def _write_line(self, obj: dict) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Checkpoint {self.path} meta={self.meta}>"
