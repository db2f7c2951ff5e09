"""Unit tests for CoDel / FQ-CoDel disciplines and the queue factory."""

import numpy as np
import pytest

import repro.extensions.ecn  # noqa: F401  (registers the "pecn" queue kind)
from repro.sim.packet import Packet
from repro.sim.queues import (
    CoDelParams,
    CoDelQueue,
    DropTailQueue,
    EnqueueResult,
    FqCoDelQueue,
    REDQueue,
    make_queue,
    queue_kinds,
)


def mkpkt(seq=0, size=1000, flow=0, ecn=False):
    return Packet(flow_id=flow, seq=seq, size=size, ecn_capable=ecn)


def backlog(q, flow_id):
    """Byte backlog of the FQ-CoDel bucket ``flow_id`` hashes into."""
    return q._buckets[flow_id % q.n_buckets].byte_backlog


def conservation_ok(q):
    assert q.arrived == q.enqueued + q.dropped
    assert q.enqueued == q.dequeued + q.dropped_head + len(q)


class TestCoDelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoDelParams(target=0.0)
        with pytest.raises(ValueError):
            CoDelParams(interval=-1.0)


class TestCoDel:
    def test_low_sojourn_never_drops(self):
        """Packets that spend under ``target`` in the queue sail through."""
        q = CoDelQueue(100)
        now = 0.0
        for i in range(200):
            q.push(mkpkt(i), now)
            out = q.pop(now + 0.001)  # 1 ms sojourn < 5 ms target
            assert out is not None and out.seq == i
            now += 0.002
        assert q.dropped_head == 0
        assert q.dropped == 0
        conservation_ok(q)

    def test_sustained_sojourn_triggers_head_drops(self):
        """A standing queue above target for > interval starts dropping
        at the head, accounted in ``dropped_head`` (not ``dropped``)."""
        q = CoDelQueue(500)
        for i in range(60):
            q.push(mkpkt(i), 0.0)
        drained = []
        now = 0.2  # every head packet now has a 200 ms sojourn
        while len(q):
            pkt = q.pop(now)
            if pkt is not None:
                drained.append(pkt.seq)
            now += 0.02
        assert q.dropped_head > 0
        assert q.dropped == 0  # no arrival-side drops in this scenario
        # Dropped packets are exactly the pushed-minus-delivered set.
        assert len(drained) + q.dropped_head == 60
        conservation_ok(q)

    def test_grace_interval_before_first_drop(self):
        """Sojourn must stay above target for a full interval before the
        first drop: a single bad pop is forgiven."""
        q = CoDelQueue(100)
        for i in range(10):
            q.push(mkpkt(i), 0.0)
        assert q.pop(0.050) is not None  # above target, starts the clock
        assert q.dropped_head == 0
        assert q.pop(0.060) is not None  # still inside the interval
        assert q.dropped_head == 0

    def test_drop_schedule_accelerates(self):
        """The 1/sqrt(count) law drops faster the longer overload lasts."""
        q = CoDelQueue(2000)
        for i in range(1000):
            q.push(mkpkt(i), 0.0)
        now, first_half, second_half = 0.2, 0, 0
        for step in range(100):
            before = q.dropped_head
            q.pop(now)
            d = q.dropped_head - before
            if step < 50:
                first_half += d
            else:
                second_half += d
            now += 0.01
        assert second_half > first_half

    def test_backlog_guard_spares_sub_maxpacket_tail(self):
        """No dropping once the backlog falls below one max-size packet,
        however stale the head is (the ACM pseudocode's MTU guard)."""
        q = CoDelQueue(100)
        q.push(mkpkt(0, size=1500), 0.0)  # sets maxpacket = 1500
        q.push(mkpkt(1, size=200), 0.0)
        out0 = q.pop(5.0)  # backlog after pull: 200 < 1500 -> guard
        out1 = q.pop(10.0)  # backlog after pull: 0 -> guard
        assert out0 is not None and out1 is not None
        assert q.dropped_head == 0

    def test_ecn_mode_marks_instead_of_dropping(self):
        q = CoDelQueue(500, params=CoDelParams(ecn=True))
        for i in range(60):
            q.push(mkpkt(i, ecn=True), 0.0)
        now, delivered = 0.2, []
        while len(q):
            pkt = q.pop(now)
            if pkt is not None:
                delivered.append(pkt)
            now += 0.02
        assert q.marked > 0
        assert q.dropped_head == 0  # every violation became a mark
        assert len(delivered) == 60
        assert sum(p.ecn_marked for p in delivered) == q.marked
        conservation_ok(q)

    def test_hard_overflow_still_droptail(self):
        q = CoDelQueue(3)
        res = [q.push(mkpkt(i), 0.0) for i in range(5)]
        assert res == [EnqueueResult.ENQUEUED] * 3 + [EnqueueResult.DROPPED] * 2
        assert q.dropped == 2
        conservation_ok(q)

    def test_head_drop_hook_receives_dropped_packets(self):
        seen = []
        q = CoDelQueue(500)
        q.head_drop_hook = lambda pkt, now: seen.append(pkt.seq)
        for i in range(60):
            q.push(mkpkt(i), 0.0)
        now = 0.2
        while len(q):
            q.pop(now)
            now += 0.02
        assert len(seen) == q.dropped_head > 0

    def test_sojourn_statistics(self):
        q = CoDelQueue(100)
        for i in range(4):
            q.push(mkpkt(i), 0.0)
        for k in range(4):
            q.pop(0.001 * (k + 1))
        assert q.sojourn_peak == pytest.approx(0.004)
        assert q.sojourn_sum / q.dequeued == pytest.approx(0.0025)
        assert q.last_sojourn == pytest.approx(0.004)


class TestFqCoDel:
    def test_flow_isolation_drr_interleaves_service(self):
        """Two flows hashed to different buckets share service roughly
        equally even when one enqueued far more."""
        q = FqCoDelQueue(200)
        for i in range(50):
            q.push(mkpkt(i, flow=1), 0.0)
        for i in range(5):
            q.push(mkpkt(i, flow=2), 0.0)
        first_ten = [q.pop(0.001).flow_id for _ in range(10)]
        # The thin flow is not starved behind the fat flow's backlog.
        assert 2 in first_ten[:4]

    def test_backlog_of(self):
        q = FqCoDelQueue(100)
        for i in range(7):
            q.push(mkpkt(i, flow=3), 0.0)
        q.push(mkpkt(0, flow=4, size=500), 0.0)
        assert backlog(q, 3) == 7 * 1000  # byte backlog
        assert backlog(q, 4) == 500
        assert backlog(q, 99) == 0

    def test_overflow_evicts_from_fattest_bucket(self):
        """Over capacity, FQ-CoDel drops from the largest backlog, so a
        thin flow survives a fat flow's overload (unlike DropTail)."""
        q = FqCoDelQueue(10)
        for i in range(3):
            q.push(mkpkt(i, flow=2), 0.0)
        for i in range(20):
            q.push(mkpkt(i, flow=1), 0.0)
        assert len(q) == 10
        assert q.dropped_head > 0  # evictions are head drops
        assert backlog(q, 2) == 3 * 1000  # the thin flow kept every packet
        conservation_ok(q)

    def test_eviction_fires_head_drop_hook(self):
        seen = []
        q = FqCoDelQueue(5)
        q.head_drop_hook = lambda pkt, now: seen.append(pkt.flow_id)
        for i in range(12):
            q.push(mkpkt(i, flow=1), 0.0)
        assert len(seen) == q.dropped_head == 7
        assert set(seen) == {1}

    def test_sojourn_drops_per_bucket(self):
        """Each bucket runs its own CoDel law on standing delay."""
        q = FqCoDelQueue(500)
        for i in range(40):
            q.push(mkpkt(i, flow=1), 0.0)
            q.push(mkpkt(i, flow=2), 0.0)
        now, delivered = 0.3, 0
        while len(q):
            if q.pop(now) is not None:
                delivered += 1
            now += 0.02
        assert q.dropped_head > 0
        assert delivered + q.dropped_head == 80
        conservation_ok(q)

    def test_fifo_within_a_flow(self):
        q = FqCoDelQueue(100)
        for i in range(6):
            q.push(mkpkt(i, flow=5), 0.0)
        out = []
        while len(q):
            out.append(q.pop(0.001).seq)
        assert out == list(range(6))

    def test_pop_empty_returns_none(self):
        assert FqCoDelQueue(4).pop(0.0) is None


class TestQueueFactory:
    def test_registered_kinds(self):
        kinds = queue_kinds()
        for kind in ("droptail", "red", "codel", "fq-codel", "pecn"):
            assert kind in kinds

    def test_unknown_kind_raises_with_catalog(self):
        with pytest.raises(ValueError, match="droptail"):
            make_queue("cake", 10)

    def test_factory_dispatch_types(self):
        rng = np.random.default_rng(0)
        assert isinstance(make_queue("droptail", 10), DropTailQueue)
        assert isinstance(
            make_queue("red", 10, rng=rng, service_rate_pps=1000.0), REDQueue
        )
        assert isinstance(make_queue("codel", 10), CoDelQueue)
        assert isinstance(make_queue("fq-codel", 10), FqCoDelQueue)

    def test_factory_applies_name_and_capacity(self):
        q = make_queue("codel", 32, name="bottleneck")
        assert q.name == "bottleneck"
        assert q.capacity == 32

    def test_every_kind_builds_and_conserves(self):
        """Smoke every registered discipline through the same push/pop mix
        and check the uniform accounting contract."""
        rng = np.random.default_rng(7)
        for kind in queue_kinds():
            q = make_queue(kind, 8, rng=np.random.default_rng(1),
                           service_rate_pps=1000.0)
            now = 0.0
            for i in range(100):
                q.push(mkpkt(i, flow=int(rng.integers(1, 4)), ecn=True), now)
                if rng.random() < 0.6:
                    q.pop(now + 0.001)
                now += 0.005
            while len(q):
                q.pop(now)
                now += 0.005
            conservation_ok(q)
            assert q.dropped_total == q.dropped + q.dropped_head
