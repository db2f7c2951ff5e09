"""Tests for atomic trace archiving and corruption detection."""

import numpy as np
import pytest

from repro.sim.packet import Packet
from repro.sim.trace import DropTrace
from repro.sim.tracefile import TraceCorruptError, load_drop_trace, save_drop_trace

pytestmark = pytest.mark.faults


def _trace(n=50):
    tr = DropTrace()
    for i in range(n):
        tr.record(Packet(flow_id=1, seq=i, size=1000), 0.1 * i, marked=False)
    return tr


class TestAtomicSave:
    def test_no_temp_litter(self, tmp_path):
        out = save_drop_trace(_trace(), tmp_path / "t.npz", rtt=0.05)
        assert out.exists()
        assert list(tmp_path.glob(".*.tmp-*")) == []

    def test_failed_save_leaves_previous_file(self, tmp_path):
        path = tmp_path / "t.npz"
        save_drop_trace(_trace(10), path, rtt=0.05)
        before = path.read_bytes()

        class Boom(DropTrace):
            @property
            def times(self):
                raise RuntimeError("mid-write failure")

        with pytest.raises(RuntimeError):
            save_drop_trace(Boom(), path, rtt=0.05)
        assert path.read_bytes() == before  # old archive untouched
        assert list(tmp_path.glob(".*.tmp-*")) == []

    def test_roundtrip_after_atomic_save(self, tmp_path):
        tr = _trace(30)
        loaded = load_drop_trace(save_drop_trace(tr, tmp_path / "t", rtt=0.04))
        np.testing.assert_array_equal(loaded.times, tr.times)
        assert loaded.rtt == 0.04
        assert len(loaded) == 30


class TestCorruptionDetection:
    def _saved(self, tmp_path):
        return save_drop_trace(_trace(), tmp_path / "t.npz", rtt=0.05)

    def test_truncated_archive_raises_structured_error(self, tmp_path):
        path = self._saved(tmp_path)
        size = path.stat().st_size
        with path.open("rb+") as fh:
            fh.truncate(size // 2)
        with pytest.raises(TraceCorruptError) as exc_info:
            load_drop_trace(path)
        assert exc_info.value.path == path
        assert exc_info.value.reason

    def test_garbage_bytes_raise(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(TraceCorruptError):
            load_drop_trace(path)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_drop_trace(tmp_path / "absent.npz")

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez_compressed(path, version=np.int64(1), times=np.arange(3.0))
        with pytest.raises(TraceCorruptError, match="missing field"):
            load_drop_trace(path)

    def test_mismatched_lengths_raise(self, tmp_path):
        path = tmp_path / "skewed.npz"
        np.savez_compressed(
            path, version=np.int64(1),
            times=np.arange(5.0), flow_ids=np.arange(3),
            seqs=np.arange(5), sizes=np.arange(5), marked=np.zeros(5, bool),
            rtt=np.float64(0.1), name=np.str_("x"),
        )
        with pytest.raises(TraceCorruptError, match="mismatched record lengths"):
            load_drop_trace(path)

    def test_version_mismatch_stays_value_error(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez_compressed(
            path, version=np.int64(99),
            times=np.arange(2.0), flow_ids=np.arange(2),
            seqs=np.arange(2), sizes=np.arange(2), marked=np.zeros(2, bool),
            rtt=np.float64(0.1), name=np.str_("x"),
        )
        with pytest.raises(ValueError, match="unsupported trace format"):
            load_drop_trace(path)

