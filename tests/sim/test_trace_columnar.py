"""Columnar trace backend: array columns, lazy row view, live appends."""

import numpy as np
import pytest

from repro.sim.packet import Packet
from repro.sim.trace import (
    KIND_DROP,
    KIND_MARK,
    ArrivalTrace,
    DropRecord,
    DropTrace,
)


def _pkt(flow_id=3, seq=7, size=1500):
    return Packet(flow_id=flow_id, seq=seq, size=size)


def test_columns_match_recorded_values():
    tr = DropTrace("t")
    tr.record(_pkt(1, 10, 1000), 0.5)
    tr.record(_pkt(2, 20, 2000), 1.5, marked=True)
    tr.record(_pkt(3, 30, 3000), 2.5)
    assert len(tr) == 3
    np.testing.assert_array_equal(tr.times, [0.5, 1.5, 2.5])
    np.testing.assert_array_equal(tr.flow_ids, [1, 2, 3])
    np.testing.assert_array_equal(tr.seqs, [10, 20, 30])
    np.testing.assert_array_equal(tr.sizes, [1000, 2000, 3000])
    np.testing.assert_array_equal(tr.marked, [False, True, False])
    np.testing.assert_array_equal(tr.kinds, [KIND_DROP, KIND_MARK, KIND_DROP])
    assert tr.times.dtype == np.float64
    assert tr.flow_ids.dtype == np.int64
    assert tr.kinds.dtype == np.int8
    assert tr.marked.dtype == bool


def test_records_row_view_matches_columns():
    tr = DropTrace()
    tr.record(_pkt(1, 10, 1000), 0.5)
    tr.record(_pkt(2, 20, 2000), 1.5, marked=True)
    rows = list(tr.records())
    assert rows == [
        DropRecord(0.5, 1, 10, 1000, False),
        DropRecord(1.5, 2, 20, 2000, True),
    ]
    assert rows[0].flow_id == 1 and rows[1].marked is True


def test_append_after_materializing_columns():
    """Reading a column must not lock the storage against appends.

    Regression guard: a live ``np.frombuffer`` view would hold the
    ``array.array`` buffer and make the next ``record`` raise
    ``BufferError``; the column properties copy instead.
    """
    tr = DropTrace()
    tr.record(_pkt(), 1.0)
    view = tr.times  # materialize mid-run, then keep the array alive
    tr.record(_pkt(), 2.0)  # must not raise
    assert len(view) == 1  # snapshot semantics: old read is unchanged
    np.testing.assert_array_equal(tr.times, [1.0, 2.0])


def test_empty_trace_columns():
    tr = DropTrace()
    assert len(tr) == 0
    assert tr.times.shape == (0,)
    assert tr.flow_ids.shape == (0,)
    assert tr.marked.shape == (0,)
    assert tr.drop_times().shape == (0,)
    assert list(tr.records()) == []


def test_drop_times_excludes_marks():
    tr = DropTrace()
    tr.record(_pkt(), 1.0)
    tr.record(_pkt(), 2.0, marked=True)
    tr.record(_pkt(), 3.0)
    np.testing.assert_array_equal(tr.drop_times(), [1.0, 3.0])


def test_arrival_trace_columnar():
    ar = ArrivalTrace()
    ar.record(_pkt(flow_id=4), 1.25)
    np.testing.assert_array_equal(ar.times, [1.25])
    np.testing.assert_array_equal(ar.flow_ids, [4])


def test_tracefile_roundtrip_of_columnar_trace(tmp_path):
    from repro.sim.tracefile import load_drop_trace, save_drop_trace

    tr = DropTrace("roundtrip")
    tr.record(_pkt(1, 10, 1000), 0.5)
    tr.record(_pkt(2, 20, 2000), 1.5, marked=True)
    path = save_drop_trace(tr, tmp_path / "t.npz", rtt=0.05)
    loaded = load_drop_trace(path)
    np.testing.assert_array_equal(loaded.times, tr.times)
    np.testing.assert_array_equal(loaded.flow_ids, tr.flow_ids)
    np.testing.assert_array_equal(loaded.marked, tr.marked)
    assert loaded.rtt == pytest.approx(0.05)


def test_stage_folds_into_typed_columns_on_read():
    """Appends land in the write-behind stage; any read folds them into
    the typed columns, so the steady-state footprint stays ~33 B/record."""
    tr = DropTrace()
    for i in range(10):
        tr.record(_pkt(seq=i), i * 0.1)
    assert len(tr._stage_times) == 10  # staged, not yet folded
    assert len(tr._times) == 0
    assert len(tr) == 10  # length counts staged rows without folding
    np.testing.assert_array_equal(tr.seqs, np.arange(10))
    assert len(tr._stage_times) == 0  # the read folded the stage
    assert len(tr._times) == 10


def test_marks_preserved_across_interleaved_folds():
    """Sparse mark indices survive reads that happen mid-append."""
    tr = DropTrace()
    tr.record(_pkt(seq=0), 0.0, marked=True)
    _ = tr.times  # fold with a mark pending
    tr.record(_pkt(seq=1), 1.0)
    tr.record(_pkt(seq=2), 2.0, marked=True)
    _ = tr.flow_ids  # fold again
    tr.record(_pkt(seq=3), 3.0, marked=True)
    np.testing.assert_array_equal(tr.marked, [True, False, True, True])
    np.testing.assert_array_equal(
        tr.kinds, [KIND_MARK, KIND_DROP, KIND_MARK, KIND_MARK]
    )


def test_pickle_roundtrip_with_staged_rows():
    """Pickling flushes the stage and re-binds the record fast path."""
    import pickle

    tr = DropTrace("shippable")
    for i in range(5):
        tr.record(_pkt(seq=i), float(i), marked=(i == 2))
    back = pickle.loads(pickle.dumps(tr))
    np.testing.assert_array_equal(back.marked, [False, False, True, False, False])
    back.record(_pkt(seq=99), 9.0)  # the rebound closure still appends
    assert len(back) == 6
    assert back.seqs[-1] == 99
