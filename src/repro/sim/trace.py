"""Measurement instrumentation: drop traces, throughput series, flow stats.

The paper's primary dataset is the router drop trace — a timestamp for every
packet dropped at the bottleneck (§3.1: "We record traces from the simulated
routers for each event in which a packet is dropped").  Traces are stored
**columnar**: fields accumulate in typed ``array.array`` columns (~8 bytes
per value instead of a per-record Python object) behind a small
write-behind stage of plain lists that is folded in vectorized on first
read, and convert to NumPy arrays on demand, following the HPC guides'
"simulate in objects, analyze in arrays" split.  The row-record view is
kept as a lazy iterator (:meth:`DropTrace.records`) for debugging and
tests; analysis code should use the column properties.
"""

from __future__ import annotations

from array import array
from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.sim.packet import Packet

__all__ = [
    "DropTrace",
    "DropRecord",
    "ThroughputTrace",
    "FlowStats",
    "ArrivalTrace",
]

#: Kind codes in a drop trace's ``kinds`` column.
KIND_DROP = 0
KIND_MARK = 1


def _col_f64(col: array) -> np.ndarray:
    """Materialize a float64 ``array('d')`` column as an owning ndarray.

    The copy matters: ``np.frombuffer`` exports the column's buffer, and a
    live export would lock the ``array.array`` against further appends
    (``BufferError`` in the hot path).
    """
    return np.frombuffer(col, dtype=np.float64).copy()


def _col_i64(col: array) -> np.ndarray:
    """Materialize an int64 ``array('q')`` column as an owning ndarray."""
    return np.frombuffer(col, dtype=np.int64).copy()


class DropRecord(NamedTuple):
    """One row of a :class:`DropTrace`, materialized on demand."""

    time: float
    flow_id: int
    seq: int
    size: int
    marked: bool


class DropTrace:
    """Timestamped record of every packet dropped (or ECN-marked) at a queue.

    Storage is columnar with a write-behind stage: records land in plain
    Python lists (the fastest append CPython offers), and the first *read*
    folds the staged rows into the typed ``array.array`` columns in one
    vectorized pass per column.  Steady-state footprint is the typed
    columns (~33 bytes per record); the stage only holds rows appended
    since the last read.  ECN marks are staged sparsely (marks are rare —
    most records are drops), so the hot path is four list appends and a
    branch.  The ``times``/``flow_ids``/``seqs``/``sizes``/``marked``
    properties return fresh NumPy arrays; iterate :meth:`records` for a
    row view.
    """

    def __init__(self, name: str = "drops"):
        self.name = name
        self._times = array("d")
        self._flow_ids = array("q")
        self._seqs = array("q")
        self._sizes = array("q")
        # Kind codes (KIND_DROP / KIND_MARK): one signed byte per record.
        self._kinds = array("b")
        # Write-behind stage: rows since the last read, one list per
        # column, plus the absolute indices of ECN-marked records.
        self._stage_times: list[float] = []
        self._stage_flow_ids: list[int] = []
        self._stage_seqs: list[int] = []
        self._stage_sizes: list[int] = []
        self._stage_marks: list[int] = []
        self._bind_record()

    def _bind_record(self) -> None:
        # Hot-path closure: ``record`` is called once per drop from inside
        # the event loop, so the per-call attribute lookups
        # (self._stage_times.append, ...) are hoisted into closure
        # defaults, bound once here.  The instance attribute shadows the
        # class method; the lists the defaults capture are the live ones,
        # so ``_flush`` must clear them in place, never replace them.
        def record(
            pkt: Packet,
            now: float,
            marked: bool = False,
            _t=self._stage_times.append,
            _f=self._stage_flow_ids.append,
            _s=self._stage_seqs.append,
            _z=self._stage_sizes.append,
        ) -> None:
            """Append one record at the given timestamp."""
            _t(now)
            _f(pkt.flow_id)
            _s(pkt.seq)
            _z(pkt.size)
            if marked:
                self._stage_marks.append(
                    len(self._times) + len(self._stage_times) - 1
                )

        self.record = record

    def record(self, pkt: Packet, now: float, marked: bool = False) -> None:
        """Append one record at the given timestamp (class-level fallback;
        instances carry a bound fast path installed by ``_bind_record``)."""
        self._stage_times.append(now)
        self._stage_flow_ids.append(pkt.flow_id)
        self._stage_seqs.append(pkt.seq)
        self._stage_sizes.append(pkt.size)
        if marked:
            self._stage_marks.append(
                len(self._times) + len(self._stage_times) - 1
            )

    def _flush(self) -> None:
        """Fold staged rows into the typed columns (one pass per column)."""
        staged = self._stage_times
        if not staged:
            return
        kinds = np.zeros(len(staged), dtype=np.int8)
        if self._stage_marks:
            idx = np.asarray(self._stage_marks, dtype=np.int64)
            kinds[idx - len(self._kinds)] = KIND_MARK
            self._stage_marks.clear()
        self._times.frombytes(np.asarray(staged, dtype=np.float64).tobytes())
        self._flow_ids.frombytes(
            np.asarray(self._stage_flow_ids, dtype=np.int64).tobytes()
        )
        self._seqs.frombytes(
            np.asarray(self._stage_seqs, dtype=np.int64).tobytes()
        )
        self._sizes.frombytes(
            np.asarray(self._stage_sizes, dtype=np.int64).tobytes()
        )
        self._kinds.frombytes(kinds.tobytes())
        staged.clear()
        self._stage_flow_ids.clear()
        self._stage_seqs.clear()
        self._stage_sizes.clear()

    # Closures don't pickle: drop the bound fast path for transport (the
    # multiprocessing drivers ship traces between workers) and re-bind on
    # arrival.  Flush first so the pickle carries compact typed columns.
    def __getstate__(self) -> dict:
        self._flush()
        state = self.__dict__.copy()
        state.pop("record", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_record()

    def __len__(self) -> int:
        return len(self._times) + len(self._stage_times)

    # -- array views --------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Drop timestamps (seconds), in event order (non-decreasing)."""
        self._flush()
        return _col_f64(self._times)

    @property
    def flow_ids(self) -> np.ndarray:
        """Per-record flow ids as an int64 array."""
        self._flush()
        return _col_i64(self._flow_ids)

    @property
    def seqs(self) -> np.ndarray:
        """Per-record sequence numbers as an int64 array."""
        self._flush()
        return _col_i64(self._seqs)

    @property
    def sizes(self) -> np.ndarray:
        """Per-record packet sizes (bytes) as an int64 array."""
        self._flush()
        return _col_i64(self._sizes)

    @property
    def kinds(self) -> np.ndarray:
        """Per-record kind codes (:data:`KIND_DROP` / :data:`KIND_MARK`)."""
        self._flush()
        return np.frombuffer(self._kinds, dtype=np.int8).copy()

    @property
    def marked(self) -> np.ndarray:
        """Per-record ECN-marked flags as a bool array."""
        self._flush()
        return np.frombuffer(self._kinds, dtype=np.int8) == KIND_MARK

    def records(self) -> Iterator[DropRecord]:
        """Lazy row view: yield one :class:`DropRecord` per record."""
        self._flush()
        for i in range(len(self._times)):
            yield DropRecord(
                self._times[i],
                self._flow_ids[i],
                self._seqs[i],
                self._sizes[i],
                self._kinds[i] == KIND_MARK,
            )

    def drop_times(self) -> np.ndarray:
        """Timestamps of true drops only (ECN marks excluded)."""
        t = self.times
        m = self.marked
        return t[~m]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DropTrace {self.name}: {len(self)} records>"


class ArrivalTrace:
    """Timestamped record of packet arrivals at a queue (for burstiness
    analysis of the *arrival* process, e.g. validating Figures 5/6).
    Columnar storage, like :class:`DropTrace`."""

    def __init__(self, name: str = "arrivals"):
        self.name = name
        self._times = array("d")
        self._flow_ids = array("q")

    def record(self, pkt: Packet, now: float) -> None:
        """Append one record at the given timestamp."""
        self._times.append(now)
        self._flow_ids.append(pkt.flow_id)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Record timestamps (seconds) in event order."""
        return _col_f64(self._times)

    @property
    def flow_ids(self) -> np.ndarray:
        """Per-record flow ids as an int64 array."""
        return _col_i64(self._flow_ids)


class ThroughputTrace:
    """Bytes delivered per fixed-width time bin, per flow group.

    Used for the paper's Figure 7 (aggregate throughput of the paced group
    vs. the NewReno group over time).  Flows are assigned to integer groups;
    per-bin byte counts convert to Mbps series on demand.
    """

    def __init__(self, bin_width: float = 0.5, name: str = "throughput"):
        if bin_width <= 0:
            raise ValueError(f"bin width must be positive, got {bin_width}")
        self.bin_width = float(bin_width)
        self.name = name
        self._groups: dict[int, dict[int, int]] = {}  # group -> bin -> bytes
        self._flow_group: dict[int, int] = {}

    def assign(self, flow_id: int, group: int) -> None:
        """Assign ``flow_id`` to throughput group ``group``."""
        self._flow_group[flow_id] = group
        self._groups.setdefault(group, {})

    def record(self, flow_id: int, nbytes: int, now: float) -> None:
        """Append one record at the given timestamp."""
        group = self._flow_group.get(flow_id)
        if group is None:
            return
        b = int(now / self.bin_width)
        bins = self._groups[group]
        bins[b] = bins.get(b, 0) + nbytes

    def groups(self) -> list[int]:
        """Sorted group ids with recorded throughput."""
        return sorted(self._groups)

    def series(self, group: int, until: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(bin_centers_seconds, mbps)`` for a group."""
        bins = self._groups.get(group, {})
        if until is None:
            last = max(bins) if bins else 0
        else:
            last = int(until / self.bin_width)
        idx = np.arange(last + 1)
        counts = np.zeros(last + 1, dtype=np.float64)
        for b, nbytes in bins.items():
            if b <= last:
                counts[b] = nbytes
        mbps = counts * 8.0 / self.bin_width / 1e6
        centers = (idx + 0.5) * self.bin_width
        return centers, mbps

    def total_bytes(self, group: int) -> int:
        """Total bytes delivered to the given group."""
        return sum(self._groups.get(group, {}).values())

    def mean_mbps(self, group: int, duration: float) -> float:
        """Mean delivered rate of a group over ``duration`` seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.total_bytes(group) * 8.0 / duration / 1e6


class FlowStats:
    """Per-flow accounting kept by sources and sinks.  RTT samples are
    summarized (count, sum, max), so memory stays constant over a run."""

    __slots__ = (
        "flow_id",
        "packets_sent",
        "bytes_sent",
        "packets_received",
        "bytes_received",
        "retransmissions",
        "timeouts",
        "fast_retransmits",
        "start_time",
        "finish_time",
        "rtt_count",
        "rtt_sum",
        "rtt_max",
    )

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.rtt_count = 0
        self.rtt_sum = 0.0
        self.rtt_max = 0.0

    @property
    def completion_time(self) -> Optional[float]:
        """Transfer duration (None until the flow finishes)."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def mean_rtt(self) -> float:
        """Mean of the flow's RTT samples (NaN if none were taken)."""
        if not self.rtt_count:
            return float("nan")
        return self.rtt_sum / self.rtt_count

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FlowStats flow={self.flow_id} sent={self.packets_sent} "
            f"recv={self.packets_received} retx={self.retransmissions}>"
        )
