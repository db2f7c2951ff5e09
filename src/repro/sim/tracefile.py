"""Trace persistence: save/load drop traces and loss-interval datasets.

Measurement campaigns are expensive; analysis is cheap and iterative.
These helpers archive a drop trace (or any loss-timestamp dataset) to a
compressed ``.npz`` with its metadata, so the analysis side —
:mod:`repro.core` — can be re-run offline without re-simulating.

Writes are **atomic** (tmp file + fsync + rename): a crash mid-save
leaves either the previous file or nothing, never a half-written archive.
Loads detect truncation/corruption and raise a structured
:class:`TraceCorruptError` (carrying path and reason) instead of leaking
a raw numpy/zipfile exception into analysis code.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.sim.trace import DropTrace

__all__ = [
    "save_drop_trace",
    "load_drop_trace",
    "LoadedDropTrace",
    "TraceCorruptError",
]

_FORMAT_VERSION = 1

#: Arrays a trace archive must carry, all of equal length.
_RECORD_KEYS = ("times", "flow_ids", "seqs", "sizes", "marked")


class TraceCorruptError(RuntimeError):
    """A trace archive is truncated or corrupt.

    Attributes
    ----------
    path:
        The offending file.
    reason:
        What failed (bad container, missing field, length mismatch).
    """

    def __init__(self, path: Union[str, Path], reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"corrupt trace archive {self.path}: {reason}")


@dataclass
class LoadedDropTrace:
    """A drop trace re-hydrated from disk (read-only array view)."""

    times: np.ndarray
    flow_ids: np.ndarray
    seqs: np.ndarray
    sizes: np.ndarray
    marked: np.ndarray
    rtt: float  # normalization constant recorded at save time (0 = unset)
    name: str

    def __len__(self) -> int:
        return len(self.times)

    def drop_times(self) -> np.ndarray:
        """Timestamps of true drops only (ECN marks excluded)."""
        return self.times[~self.marked]

    def intervals_rtt(self) -> np.ndarray:
        """RTT-normalized inter-loss intervals (requires a recorded RTT)."""
        if self.rtt <= 0:
            raise ValueError("trace was saved without an RTT; pass one explicitly")
        from repro.core.intervals import intervals_from_trace

        return intervals_from_trace(self.drop_times(), self.rtt)


def save_drop_trace(
    trace: DropTrace, path: Union[str, Path], rtt: float = 0.0
) -> Path:
    """Archive ``trace`` to ``path`` (``.npz`` appended if missing).

    ``rtt`` records the scenario's normalization constant alongside the
    data so later analysis cannot mix up units.  The write is atomic:
    data lands in a same-directory temp file, is fsynced, and is renamed
    into place — a crash mid-save never leaves a truncated archive.
    """
    if rtt < 0:
        raise ValueError(f"rtt must be non-negative, got {rtt}")
    p = Path(path)
    if p.suffix != ".npz":
        p = p.with_suffix(p.suffix + ".npz")
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f".{p.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            np.savez_compressed(
                fh,
                version=np.int64(_FORMAT_VERSION),
                times=trace.times,
                flow_ids=trace.flow_ids,
                seqs=trace.seqs,
                sizes=trace.sizes,
                marked=trace.marked,
                rtt=np.float64(rtt),
                name=np.str_(trace.name),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    finally:
        if tmp.exists():  # a failed write: leave no temp litter behind
            tmp.unlink()
    return p


def load_drop_trace(path: Union[str, Path]) -> LoadedDropTrace:
    """Re-hydrate a trace archived by :func:`save_drop_trace`.

    Raises :class:`TraceCorruptError` on a truncated or corrupt archive
    (bad zip container, missing fields, mismatched array lengths) and
    ``ValueError`` on an honest version mismatch.
    """
    p = Path(path)
    try:
        z = np.load(p, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        # ValueError here is numpy failing to parse the container (e.g.
        # random bytes hit its pickle fallback), never a version issue —
        # the version check below runs on successfully opened archives.
        if isinstance(exc, FileNotFoundError):
            raise
        raise TraceCorruptError(p, f"unreadable npz container ({exc})") from exc
    with z:
        try:
            version = int(z["version"])
        except KeyError:
            raise TraceCorruptError(p, "missing 'version' field") from None
        except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
            raise TraceCorruptError(p, f"truncated archive ({exc})") from exc
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} "
                f"(this build reads {_FORMAT_VERSION})"
            )
        try:
            arrays = {k: z[k] for k in _RECORD_KEYS}
            rtt = float(z["rtt"])
            name = str(z["name"])
        except KeyError as exc:
            raise TraceCorruptError(p, f"missing field {exc.args[0]!r}") from None
        except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
            raise TraceCorruptError(p, f"truncated archive ({exc})") from exc
        lengths = {k: len(v) for k, v in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise TraceCorruptError(p, f"mismatched record lengths {lengths}")
        return LoadedDropTrace(
            times=arrays["times"],
            flow_ids=arrays["flow_ids"],
            seqs=arrays["seqs"],
            sizes=arrays["sizes"],
            marked=arrays["marked"].astype(bool),
            rtt=rtt,
            name=name,
        )

