"""Loss-event clustering.

A *loss event* (congestion event) is a maximal cluster of packet losses
whose onset lies within one RTT of the event's first loss — the unit at
which congestion control reacts (one window halving per event, one TFRC
loss interval per event).  The paper's Figures 5/6 reason about which flows
*detect* each event; :mod:`repro.core.detection` quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossEvent",
    "cluster_loss_events",
    "event_spans",
    "distinct_flows_per_event",
    "event_sizes",
]


@dataclass
class LossEvent:
    """A congestion event: losses starting within one RTT window."""

    start: float
    end: float
    count: int
    flow_ids: np.ndarray  # flows that lost at least one packet in the event

    @property
    def duration(self) -> float:
        """Span in seconds from first to last element."""
        return self.end - self.start

    @property
    def n_flows_hit(self) -> int:
        """Number of distinct flows that lost a packet in this event."""
        return len(self.flow_ids)


def event_spans(times: np.ndarray, rtt: float) -> np.ndarray:
    """Event boundary indices for a sorted loss-timestamp array.

    Returns an int64 array ``b`` of length ``n_events + 1`` such that event
    ``j`` covers records ``b[j]:b[j+1]``.  Each event is the maximal prefix
    within ``[t[i], t[i] + rtt]``.  All window boundaries are found with a
    single vectorized ``searchsorted(t, t + rtt)`` (one C-level pass,
    O(N log N)); the event chain is then just the orbit of ``i -> nxt[i]``
    starting at 0, an O(E) walk.  This replaced a per-event Python loop of
    ``searchsorted`` calls whose interpreter call overhead dominated for
    bursty traces (thousands of events per trace).  This is the
    index-level primitive behind :func:`cluster_loss_events`; vectorized
    analyses (e.g. the Eq. 1–2 detection counts) work directly on these
    spans without building per-event objects.
    """
    if rtt <= 0:
        raise ValueError(f"rtt must be positive, got {rtt}")
    t = np.asarray(times, dtype=np.float64)
    if len(t) == 0:
        return np.zeros(1, dtype=np.int64)
    if np.any(np.diff(t) < 0):
        raise ValueError("timestamps not sorted")
    nxt = np.searchsorted(t, t + rtt, side="right")
    bounds = [0]
    n = len(t)
    i = 0
    while i < n:
        i = int(nxt[i])
        bounds.append(i)
    return np.asarray(bounds, dtype=np.int64)


def distinct_flows_per_event(
    spans: np.ndarray,
    flow_ids: np.ndarray,
    record_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Distinct-flow count per event, vectorized.

    ``spans`` is the boundary array from :func:`event_spans`; ``flow_ids``
    gives the flow id of each record.  With ``record_mask``, only records
    where the mask is True contribute (e.g. restrict to one traffic class).
    Returns an int64 array of length ``n_events``.

    Implementation: each record gets its event index via ``np.repeat``;
    distinct (event, flow) pairs are identified by the combined key
    ``event_index * flow_range + flow_offset`` — no Python loop over
    events.  When the (events x flow-range) grid is modest the pairs are
    marked in a dense boolean grid (one O(N) scatter plus an O(grid)
    row-sum, no sort); otherwise the keys are uniquified with a
    sort-based ``np.unique`` and binned, which handles arbitrarily
    sparse flow-id spaces at O(N log N).
    """
    spans = np.asarray(spans, dtype=np.int64)
    n_events = len(spans) - 1
    fids = np.asarray(flow_ids, dtype=np.int64)
    eidx = np.repeat(np.arange(n_events, dtype=np.int64), np.diff(spans))
    if record_mask is not None:
        mask = np.asarray(record_mask, dtype=bool)
        eidx = eidx[mask]
        fids = fids[mask]
    if len(fids) == 0:
        return np.zeros(n_events, dtype=np.int64)
    fmin = int(fids.min())
    span = int(fids.max()) - fmin + 1
    key = eidx * span + (fids - fmin)
    grid = n_events * span
    if grid <= max(1 << 20, 8 * len(fids)):
        seen = np.zeros(grid, dtype=bool)
        seen[key] = True
        return seen.reshape(n_events, span).sum(axis=1, dtype=np.int64)
    events_of_pairs = np.unique(key) // span
    return np.bincount(events_of_pairs, minlength=n_events).astype(np.int64)


def cluster_loss_events(
    times: np.ndarray,
    rtt: float,
    flow_ids: np.ndarray | None = None,
) -> list[LossEvent]:
    """Group loss timestamps into events.

    A loss begins a new event when it falls more than ``rtt`` seconds after
    the *start* of the current event (TFRC's definition, which the paper's
    sub-RTT analysis follows): every event spans at most one RTT.
    """
    t = np.asarray(times, dtype=np.float64)
    if flow_ids is not None:
        fids = np.asarray(flow_ids)
        if fids.shape != t.shape:
            raise ValueError("flow_ids must match times in shape")
    else:
        fids = np.full(t.shape, -1, dtype=np.int64)
    spans = event_spans(t, rtt)
    if len(t) == 0:
        return []
    return [
        LossEvent(
            start=float(t[s]),
            end=float(t[e - 1]),
            count=int(e - s),
            flow_ids=np.unique(fids[s:e]),
        )
        for s, e in zip(spans[:-1], spans[1:])
    ]


def event_sizes(events: list[LossEvent]) -> np.ndarray:
    """Number of dropped packets per event (the paper's ``M``)."""
    return np.asarray([e.count for e in events], dtype=np.int64)
