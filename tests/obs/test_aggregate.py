"""Fleet aggregation: streaming folds, determinism, concurrent tailing."""

import json
import threading
from pathlib import Path

from repro.obs.aggregate import FleetAggregator, _unit_totals
from repro.obs.bus import BUS_FILE, EventBus

FIXTURE = Path(__file__).parent / "fixtures" / "campaign_state"


def _append(path, *records):
    with path.open("a") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _campaign_dir(tmp_path, n_paths=12, n_shards=3):
    d = tmp_path / "state"
    d.mkdir()
    _append(
        d / "shards.jsonl",
        {
            "kind": "sharded-campaign",
            "seed": 7,
            "n_sites": 5,
            "n_paths": n_paths,
            "n_shards": n_shards,
            "duration": 30.0,
            "version": 1,
        },
    )
    return d


class TestUnitTotals:
    def test_balanced_split(self):
        assert _unit_totals(12, 3) == [4, 4, 4]
        assert _unit_totals(20, 4) == [5, 5, 5, 5]

    def test_remainder_goes_first(self):
        assert _unit_totals(10, 3) == [4, 3, 3]

    def test_degenerate(self):
        assert _unit_totals(0, 0) == []
        assert _unit_totals(5, 1) == [5]


class TestEmptyAndUnknown:
    def test_empty_dir(self, tmp_path):
        snap = FleetAggregator(tmp_path).poll(now=None)
        assert snap.status == "EMPTY"
        assert snap.kind == "unknown"
        assert snap.n_units == 0
        assert snap.torn_records == 0

    def test_missing_dir(self, tmp_path):
        snap = FleetAggregator(tmp_path / "nope").poll(now=None)
        assert snap.status == "EMPTY"


class TestCampaignFold:
    def test_meta_seeds_pending_units(self, tmp_path):
        d = _campaign_dir(tmp_path, n_paths=10, n_shards=3)
        snap = FleetAggregator(d).poll(now=None)
        assert snap.kind == "campaign"
        assert snap.unit_name == "shard"
        assert snap.n_units == 3
        assert [snap.units[i].total for i in range(3)] == [4, 3, 3]
        assert snap.counts["pending"] == 3
        assert snap.status == "RUNNING"
        assert snap.paths_total == 10 and snap.paths_done == 0

    def test_ledger_fates(self, tmp_path):
        d = _campaign_dir(tmp_path)
        _append(
            d / "shards.jsonl",
            {"i": 0, "record": {"status": "done", "attempts": 1}},
            {"i": 2, "record": {"status": "quarantined", "attempts": 3,
                                "error": "WorkerDied: signal SIGKILL"}},
        )
        snap = FleetAggregator(d).poll(now=None)
        assert snap.units[0].status == "done"
        assert snap.units[0].done == snap.units[0].total == 4
        assert snap.units[2].status == "quarantined"
        assert snap.units[2].attempts == 3
        assert "SIGKILL" in snap.units[2].error
        assert snap.counts == {
            "pending": 1, "running": 0, "done": 1, "quarantined": 1,
            "failed": 0,
        }
        assert snap.status == "RUNNING"  # shard 1 still pending

    def test_complete_and_degraded_verdicts(self, tmp_path):
        d = _campaign_dir(tmp_path, n_paths=4, n_shards=2)
        _append(d / "shards.jsonl",
                {"i": 0, "record": {"status": "done", "attempts": 1}},
                {"i": 1, "record": {"status": "done", "attempts": 1}})
        assert FleetAggregator(d).poll(now=None).status == "COMPLETE"
        _append(d / "shards.jsonl",
                {"i": 1, "record": {"status": "quarantined", "attempts": 3}})
        assert FleetAggregator(d).poll(now=None).status == "DEGRADED"

    def test_bus_progress(self, tmp_path):
        d = _campaign_dir(tmp_path)
        _append(d / BUS_FILE,
                {"kind": "shard.progress", "shard": 1, "done": 2,
                 "attempt": 2, "wall": 100.0})
        snap = FleetAggregator(d).poll(now=None)
        assert snap.units[1].status == "running"
        assert snap.units[1].done == 2
        assert snap.units[1].attempts == 2
        assert snap.paths_done == 2
        assert snap.now == 100.0  # deterministic "now" = max observed wall

    def test_wrong_schema_records_counted_as_torn(self, tmp_path):
        d = _campaign_dir(tmp_path)
        _append(d / "shards.jsonl", {"i": "abc", "record": {}},
                {"i": 0, "record": {"status": "done", "attempts": "x"}})
        _append(d / BUS_FILE,
                {"kind": "shard.progress", "shard": 1, "done": "x"},
                {"kind": "worker.spawn", "shard": "abc"},
                {"kind": "shard.done", "shard": 2, "paths": [4], "wall": 1.0},
                {"kind": "shard.retry", "i": 2.5, "attempt": 2})
        snap = FleetAggregator(d).poll(now=None)
        assert snap.torn_records == 6
        assert snap.counts["pending"] == 3
        assert snap.bus_events == {} and snap.retries == 0

    def test_ledger_outranks_bus_for_terminal_fates(self, tmp_path):
        d = _campaign_dir(tmp_path)
        _append(d / "shards.jsonl",
                {"i": 0, "record": {"status": "quarantined", "attempts": 3}})
        # A stale spawn event must not resurrect a quarantined shard.
        _append(d / BUS_FILE,
                {"kind": "worker.spawn", "shard": 0, "attempt": 1,
                 "wall": 50.0})
        snap = FleetAggregator(d).poll(now=None)
        assert snap.units[0].status == "quarantined"
        assert snap.units[0].timeline[-1]["status"] == "running"

    def test_bus_rate_and_eta(self, tmp_path):
        d = _campaign_dir(tmp_path, n_paths=12, n_shards=3)
        _append(
            d / BUS_FILE,
            {"kind": "campaign.start", "wall": 0.0},
            {"kind": "shard.done", "shard": 0, "paths": 4, "wall": 8.0},
            {"kind": "shard.done", "shard": 1, "paths": 4, "wall": 16.0},
        )
        snap = FleetAggregator(d).poll(now=None)
        assert snap.paths_done == 8
        assert snap.rate == 8 / 16.0
        assert snap.eta_s == 4 / snap.rate
        assert snap.started_wall == 0.0 and snap.now == 16.0

    def test_retries_counted(self, tmp_path):
        d = _campaign_dir(tmp_path)
        _append(d / BUS_FILE,
                {"kind": "shard.retry", "shard": 2, "attempt": 2,
                 "wall": 5.0},
                {"kind": "shard.retry", "shard": 2, "attempt": 3,
                 "wall": 9.0})
        snap = FleetAggregator(d).poll(now=None)
        assert snap.retries == 2
        assert snap.units[2].attempts == 3
        assert snap.units[2].status == "running"


class TestZooFold:
    def test_zoo_cells(self, tmp_path):
        d = tmp_path / "zstate"
        d.mkdir()
        _append(
            d / "zoo.jsonl",
            {"kind": "zoo", "n": 3, "seed": 11, "version": 1},
            {"i": 1, "record": {"protocol": "newreno", "aqm": "droptail",
                                "rtt_name": "wan", "loss_pct": 1.5}},
        )
        _append(d / BUS_FILE,
                {"kind": "cell.failed", "i": 2, "error": "ValueError: boom",
                 "wall": 4.0})
        snap = FleetAggregator(d).poll(now=None)
        assert snap.kind == "zoo" and snap.unit_name == "cell"
        assert snap.n_units == 3 and snap.paths_total == 3
        assert snap.units[1].status == "done"
        assert snap.units[1].label == "newreno/droptail/wan"
        assert snap.units[2].status == "failed"
        assert "boom" in snap.units[2].error
        assert snap.counts["pending"] == 1
        assert snap.status == "RUNNING"


class TestIncrementalPolling:
    def test_second_poll_reads_only_new_bytes(self, tmp_path):
        d = _campaign_dir(tmp_path, n_paths=8, n_shards=2)
        agg = FleetAggregator(d)
        assert agg.poll(now=None).paths_done == 0
        before = agg._bus_tail.offset, agg._ledger_tail.offset
        _append(d / "shards.jsonl",
                {"i": 0, "record": {"status": "done", "attempts": 1}})
        _append(d / BUS_FILE,
                {"kind": "shard.done", "shard": 0, "paths": 4, "wall": 3.0})
        snap = agg.poll(now=None)
        assert snap.paths_done == 4
        assert agg._ledger_tail.offset > before[1]
        assert agg._bus_tail.offset > before[0]

    def test_deterministic_replay(self, tmp_path):
        d = _campaign_dir(tmp_path)
        _append(d / "shards.jsonl",
                {"i": 1, "record": {"status": "done", "attempts": 2}})
        _append(d / BUS_FILE,
                {"kind": "shard.done", "shard": 1, "paths": 4, "wall": 9.0},
                {"kind": "campaign.start", "wall": 1.0})
        a = FleetAggregator(d).poll(now=None).to_dict()
        b = FleetAggregator(d).poll(now=None).to_dict()
        assert a == b
        json.dumps(a)  # must be JSON-serializable as-is

    def test_concurrent_writer_never_yields_torn_records(self, tmp_path):
        """An aggregator polling mid-write sees only whole records."""
        d = _campaign_dir(tmp_path, n_paths=64, n_shards=64)
        stop = threading.Event()

        def writer():
            with EventBus(d, source="worker") as bus:
                for i in range(64):
                    bus.emit("shard.done", shard=i, paths=1,
                             pad="y" * 128)
            stop.set()

        t = threading.Thread(target=writer)
        agg = FleetAggregator(d)
        t.start()
        polls = 0
        while not stop.is_set() or polls == 0:
            snap = agg.poll(now=None)
            assert snap.torn_records == 0
            assert snap.paths_done <= 64
            polls += 1
        t.join()
        snap = agg.poll(now=None)
        assert snap.torn_records == 0
        assert snap.paths_done == 64
        assert snap.bus_events["shard.done"] == 64
        assert snap.status == "COMPLETE"


class TestFixtureSnapshot:
    def test_committed_fixture_folds_as_pinned(self):
        snap = FleetAggregator(FIXTURE).poll(now=None)
        assert snap.status == "RUNNING"
        assert snap.kind == "campaign"
        assert snap.paths_total == 20 and snap.paths_done == 8
        assert snap.retries == 1
        assert snap.torn_records == 1  # the garbage bus line
        assert snap.counts == {
            "pending": 1, "running": 1, "done": 1, "quarantined": 1,
            "failed": 0,
        }
        # The unterminated bus tail stays pending, not torn.
        assert snap.units[3].error == "WorkerDied: signal SIGKILL"
