"""Differential oracles for the amortised-O(1) bookkeeping in
``repro.tcp.bbr``, ``repro.tcp.sink`` and ``FqCoDelQueue``.

The brute-force definitions — rescan the whole sample window, walk the
whole metadata dict, ask every bucket, keep every sequence ever seen —
live *here*, as the reference; the shipped structures must return the
same value after every operation, and one whole zoo cell run with the
brute-force versions patched back in must produce the same bytes.
"""

import json
from collections import deque
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import FAST
from repro.experiments.zoo_grid import run_zoo_cell
from repro.obs.invariants import check_queue
from repro.sim.packet import DATA, Packet
from repro.sim.queues import CoDelParams, FqCoDelQueue
from repro.tcp.bbr import BTLBW_WINDOW_ROUNDS, BbrSender
from repro.tcp.sink import TcpSink
from tests.tcp.conftest import Harness


# ---------------------------------------------------------------------------
# the brute-force reference implementations
# ---------------------------------------------------------------------------
def naive_btlbw_bps(self) -> float:
    if not self._btlbw_samples:
        return 0.0
    return max(rate for _, rate in self._btlbw_samples)


def naive_update_btlbw(self, rate_bps: float) -> None:
    self._btlbw_samples.append((self.round_count, rate_bps))
    horizon = self.round_count - BTLBW_WINDOW_ROUNDS
    self._btlbw_samples = [
        (r, v) for r, v in self._btlbw_samples if r > horizon
    ]


def naive_sample_delivery_rate(self, ack: int) -> None:
    meta = self._rate_meta.get(ack - 1)
    for seq in list(self._rate_meta):
        if seq < ack:
            del self._rate_meta[seq]
    if meta is None:
        return
    send_time, delivered_at_send = meta
    elapsed = self.sim.now - send_time
    if elapsed <= 0.0:
        return
    rate = (self._delivered - delivered_at_send) * self.packet_size * 8.0 / elapsed
    self._update_btlbw(rate)


def naive_evict_from_fattest(self, now: float) -> None:
    fat = max(self._buckets, key=lambda b: b.byte_backlog)
    pkt, _ = fat.pull()
    self.bytes -= pkt.size
    self._occupancy -= 1
    self.dropped_head += 1
    if self.head_drop_hook is not None:
        self.head_drop_hook(pkt, now)


# ---------------------------------------------------------------------------
# (a) btlbw filter: monotone deque vs max over the whole window
# ---------------------------------------------------------------------------
#: (round increment, rate) — increment 0 piles samples into one round, a
#: large one jumps past the whole window; few distinct rates force ties.
sample_streams = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 1, 2, 5, BTLBW_WINDOW_ROUNDS, 3 * BTLBW_WINDOW_ROUNDS]),
        st.one_of(st.sampled_from([1e6, 2e6, 5e6]),
                  st.floats(min_value=1.0, max_value=1e9)),
    ),
    min_size=1, max_size=200,
)


@settings(max_examples=150)
@given(sample_streams)
def test_btlbw_deque_head_is_the_windowed_max(stream):
    h = Harness()
    snd, _, _ = h.add_tcp_flow(BbrSender)
    assert snd.btlbw_bps() == 0.0
    history = []
    for step, rate in stream:
        snd.round_count += step
        snd._update_btlbw(rate)
        history.append((snd.round_count, rate))
        horizon = snd.round_count - BTLBW_WINDOW_ROUNDS
        assert snd.btlbw_bps() == max(v for r, v in history if r > horizon)
        # never more than one survivor per distinct in-window rate
        assert len(snd._btlbw_samples) <= len(
            {v for r, v in history if r > horizon})


# ---------------------------------------------------------------------------
# (b) FQ-CoDel overflow victim vs a first-index max over every bucket
# ---------------------------------------------------------------------------
N_BUCKETS = 4
queue_ops = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop"]),
        st.integers(min_value=0, max_value=6),             # flow id (collides mod 4)
        st.sampled_from([100, 500, 500, 1000]),            # sizes: ties are common
        st.sampled_from([0.0, 0.001, 0.02, 0.15]),         # dt: some sojourn drops
    ),
    min_size=1, max_size=120,
)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=8), queue_ops)
def test_fq_codel_evicts_head_of_first_fattest_bucket(capacity, ops):
    q = FqCoDelQueue(capacity, CoDelParams(), n_buckets=N_BUCKETS)
    head_drops = []
    q.head_drop_hook = lambda pkt, now: head_drops.append(pkt)
    model = [deque() for _ in range(N_BUCKETS)]  # every packet, per bucket
    now, evictions = 0.0, 0
    for seq, (op, flow, size, dt) in enumerate(ops):
        now += dt
        del head_drops[:]
        if op == "push":
            pkt = Packet(flow_id=flow, seq=seq, size=size)
            q.push(pkt, now)
            model[flow % N_BUCKETS].append(pkt)
            if sum(map(len, model)) > capacity:
                backlog = [sum(p.size for p in b) for b in model]
                fattest = backlog.index(max(backlog))  # first index wins
                assert head_drops == [model[fattest].popleft()]
                evictions += 1
            else:
                assert head_drops == []
        else:
            out = q.pop(now)
            for pkt in head_drops:  # CoDel sojourn drops: bucket heads too
                assert model[pkt.flow_id % N_BUCKETS].popleft() is pkt
            if out is None:
                assert not any(model)
            else:
                assert model[out.flow_id % N_BUCKETS].popleft() is out
        assert len(q) == sum(map(len, model)) <= capacity
        assert q.bytes == sum(p.size for b in model for p in b)
        for i, b in enumerate(model):
            assert q._buckets[i].byte_backlog == sum(p.size for p in b)
        check_queue(q)
    assert q.dropped_head >= evictions


# ---------------------------------------------------------------------------
# (c) sink: out-of-order set as the delivered state vs every seq ever seen
# ---------------------------------------------------------------------------
arrivals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.sampled_from([40, 576, 1500])),
    min_size=1, max_size=150,
)


def reference_sack_blocks(seen, next_expected, max_blocks):
    blocks = []
    for s in sorted(x for x in seen if x > next_expected):
        if blocks and blocks[-1][1] == s:
            blocks[-1][1] = s + 1
        else:
            blocks.append([s, s + 1])
    return tuple(tuple(b) for b in reversed(blocks))[:max_blocks]


@settings(max_examples=150)
@given(arrivals, st.booleans())
def test_sink_matches_an_explicit_delivered_set(seqs, delayed_acks):
    h = Harness()
    pair = h.db.add_pair(rtt=h.rtt)
    sink = TcpSink(h.sim, pair.right, 1, pair.left.node_id, sack=True,
                   delayed_acks=delayed_acks)
    seen = set()
    packets = received_bytes = 0
    for seq, size in seqs:
        if seq not in seen:
            seen.add(seq)
            packets += 1
            received_bytes += size
        next_expected = 0
        while next_expected in seen:
            next_expected += 1
        sink.receive(h.sim.alloc_packet(1, seq, size, kind=DATA))
        assert sink.stats.packets_received == packets
        assert sink.stats.bytes_received == received_bytes
        assert sink.next_expected == next_expected
        assert sink.sack_blocks() == reference_sack_blocks(
            seen, next_expected, sink.max_sack_blocks)
    assert sink.packets_arrived == len(seqs)


# ---------------------------------------------------------------------------
# whole-cell A/B: shipped structures vs the brute-force ones patched in
# ---------------------------------------------------------------------------
def test_bbr_fq_codel_cell_is_byte_identical_to_naive_bookkeeping(monkeypatch):
    scale = replace(FAST, fig7_duration=2.0)
    shipped = run_zoo_cell(3, scale, "bbr", "fq-codel")
    monkeypatch.setattr(BbrSender, "btlbw_bps", naive_btlbw_bps)
    monkeypatch.setattr(BbrSender, "_update_btlbw", naive_update_btlbw)
    monkeypatch.setattr(BbrSender, "_sample_delivery_rate",
                        naive_sample_delivery_rate)
    monkeypatch.setattr(FqCoDelQueue, "_evict_from_fattest",
                        naive_evict_from_fattest)
    naive = run_zoo_cell(3, scale, "bbr", "fq-codel")
    assert shipped.dropped_head > 0 and shipped.mean_challenger_mbps > 0
    assert json.dumps(shipped.to_record(), sort_keys=True) == json.dumps(
        naive.to_record(), sort_keys=True)
    for series in ("times", "baseline_mbps", "challenger_mbps"):
        assert getattr(shipped, series).tobytes() == getattr(naive, series).tobytes()
