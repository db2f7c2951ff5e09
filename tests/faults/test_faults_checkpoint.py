"""Tests for JSON-lines checkpoints (write/load/resume semantics)."""

import json
import warnings
from dataclasses import replace

import pytest

from repro.config import RunConfig
from repro.experiments import FAST, run_fig4
from repro.faults import Checkpoint, CheckpointError

pytestmark = pytest.mark.faults


class TestCheckpointRoundTrip:
    def test_empty_when_no_file(self, tmp_path):
        ck = Checkpoint(tmp_path / "none.jsonl")
        assert ck.load() == {}

    def test_append_then_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Checkpoint(path, meta={"kind": "t", "seed": 7}) as ck:
            ck.append(0, {"x": 1.5})
            ck.append(2, {"x": [1.0, 2.0]})
        loaded = Checkpoint(path, meta={"kind": "t", "seed": 7}).load()
        assert loaded == {0: {"x": 1.5}, 2: {"x": [1.0, 2.0]}}

    def test_floats_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ugly = 0.1 + 0.2  # not representable prettily
        with Checkpoint(path) as ck:
            ck.append(0, {"v": ugly})
        assert Checkpoint(path).load()[0]["v"] == ugly

    def test_reopen_appends_without_second_meta(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Checkpoint(path, meta={"kind": "t"}) as ck:
            ck.append(0, {})
        with Checkpoint(path, meta={"kind": "t"}) as ck:
            ck.append(1, {})
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # one meta + two records
        assert Checkpoint(path, meta={"kind": "t"}).load().keys() == {0, 1}


class TestCheckpointCorruption:
    def _write(self, tmp_path, meta=None):
        path = tmp_path / "run.jsonl"
        with Checkpoint(path, meta=meta or {"kind": "t", "seed": 1}) as ck:
            for i in range(3):
                ck.append(i, {"i": i})
        return path

    def test_truncated_final_line_dropped(self, tmp_path):
        path = self._write(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 8])  # rip the last record mid-line
        with pytest.warns(UserWarning, match="partial record"):
            loaded = Checkpoint(path, meta={"kind": "t", "seed": 1}).load()
        assert loaded.keys() == {0, 1}

    def test_torn_tail_is_repaired_on_disk(self, tmp_path):
        """load() must truncate the torn bytes away, not just skip them:
        a second load sees a clean file and stops warning."""
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.warns(UserWarning, match="partial record"):
            Checkpoint(path, meta={"kind": "t", "seed": 1}).load()
        assert path.read_bytes().endswith(b"\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = Checkpoint(path, meta={"kind": "t", "seed": 1}).load()
        assert clean.keys() == {0, 1}

    def test_append_after_torn_tail_does_not_weld_records(self, tmp_path):
        """The poison-bytes case: a kill mid-append followed by a resume
        that appends MORE records.  Without on-disk repair the new record
        concatenates onto the torn bytes, corrupting the file for every
        later resume."""
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # kill mid-append of record 2
        ck = Checkpoint(path, meta={"kind": "t", "seed": 1})
        with pytest.warns(UserWarning, match="partial record"):
            ck.append(2, {"i": 2})  # the resumed run re-completes item 2
        ck.close()
        loaded = Checkpoint(path, meta={"kind": "t", "seed": 1}).load()
        assert loaded == {0: {"i": 0}, 1: {"i": 1}, 2: {"i": 2}}

    def test_file_with_only_a_torn_line_resets_to_empty(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "t", "ver')  # killed during the meta write
        with pytest.warns(UserWarning, match="partial record"):
            assert Checkpoint(path, meta={"kind": "t"}).load() == {}
        # A fresh append starts the file over, meta line included.
        with Checkpoint(path, meta={"kind": "t"}) as ck:
            ck.append(0, {})
        assert Checkpoint(path, meta={"kind": "t"}).load().keys() == {0}

    def test_midfile_corruption_raises(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:5]  # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            Checkpoint(path, meta={"kind": "t", "seed": 1}).load()

    def test_meta_mismatch_raises(self, tmp_path):
        path = self._write(tmp_path, meta={"kind": "t", "seed": 1})
        with pytest.raises(CheckpointError, match="different run"):
            Checkpoint(path, meta={"kind": "t", "seed": 2}).load()

    def test_non_record_line_raises(self, tmp_path):
        path = self._write(tmp_path)
        with path.open("a") as fh:
            fh.write(json.dumps({"not": "a record"}) + "\n")
            fh.write(json.dumps({"i": 9, "record": {}}) + "\n")
        with pytest.raises(CheckpointError, match="not a checkpoint record"):
            Checkpoint(path, meta={"kind": "t", "seed": 1}).load()

    @pytest.mark.parametrize("line", [
        {"i": "abc", "record": {}},
        {"i": [1], "record": {}},
        {"i": True, "record": {}},
        {"i": 1, "record": 5},
        {"i": 1},
    ])
    def test_wrong_schema_line_is_named(self, tmp_path, line):
        path = self._write(tmp_path)
        with path.open("a") as fh:
            fh.write(json.dumps(line) + "\n")
        with pytest.raises(CheckpointError,
                           match="line 5 is not a checkpoint record"):
            Checkpoint(path, meta={"kind": "t", "seed": 1}).load()

    def test_duplicated_index_last_record_wins(self, tmp_path):
        path = self._write(tmp_path)
        with path.open("a") as fh:
            fh.write(json.dumps({"i": 1, "record": {"i": 1, "again": True}})
                     + "\n")
        loaded = Checkpoint(path, meta={"kind": "t", "seed": 1}).load()
        assert loaded[1] == {"i": 1, "again": True}
        assert loaded.keys() == {0, 1, 2}


class TestEnvPath:
    """``REPRO_CHECKPOINT_DIR`` as drivers read it: a directory each
    driver joins with its own ``<name>.jsonl``."""

    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert RunConfig.from_env().checkpoint_dir is None

    def test_dir_joined_with_name(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        assert RunConfig.from_env().checkpoint_dir == tmp_path
        tiny = replace(FAST, campaign_experiments=3, campaign_probe_duration=10.0)
        run_fig4(seed=7, scale=tiny)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig4.jsonl"]
