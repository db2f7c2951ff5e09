"""Property-based integration tests: whole-network invariants.

Hypothesis draws random small scenarios (flow counts, RTTs, buffer sizes,
sender variants) and the invariants that must survive ANY of them are
checked: packet conservation at every queue, monotone cumulative ACKs,
sorted traces, no phantom deliveries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.invariants import check_queue
from repro.sim import DumbbellConfig, Simulator, build_dumbbell
from repro.tcp import NewRenoSender, PacedSender, RenoSender, SackSender, TcpSink

SENDERS = [RenoSender, NewRenoSender, PacedSender, SackSender]

scenario = st.fixed_dictionaries(
    {
        "n_flows": st.integers(min_value=1, max_value=4),
        "buffer_pkts": st.integers(min_value=2, max_value=60),
        "rate_mbps": st.sampled_from([2.0, 8.0, 20.0]),
        "rtt_ms": st.sampled_from([5.0, 20.0, 80.0]),
        "sender_idx": st.integers(min_value=0, max_value=len(SENDERS) - 1),
        "total_packets": st.integers(min_value=10, max_value=300),
    }
)


def run_scenario(cfg):
    sender_cls = SENDERS[cfg["sender_idx"]]
    sim = Simulator()
    db = build_dumbbell(
        sim,
        DumbbellConfig(
            bottleneck_rate_bps=cfg["rate_mbps"] * 1e6,
            buffer_pkts=cfg["buffer_pkts"],
        ),
    )
    rtt = cfg["rtt_ms"] / 1e3
    senders, sinks = [], []
    for i in range(cfg["n_flows"]):
        pair = db.add_pair(rtt=rtt)
        fid = 10 + i
        kwargs = {"base_rtt": rtt} if sender_cls is PacedSender else {}
        snd = sender_cls(
            sim, pair.left, fid, pair.right.node_id,
            total_packets=cfg["total_packets"], **kwargs,
        )
        sink = TcpSink(sim, pair.right, fid, pair.left.node_id,
                       sack=sender_cls is SackSender)
        snd.start(0.001 * i)
        senders.append(snd)
        sinks.append(sink)
    sim.run(until=180.0)
    return sim, db, senders, sinks


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario)
def test_network_invariants_hold_for_any_scenario(cfg):
    sim, db, senders, sinks = run_scenario(cfg)

    # 1. Packet conservation at the bottleneck queues.
    check_queue(db.forward_queue)
    check_queue(db.reverse_queue)

    # 2. Every transfer completes (the horizon is generous for these sizes).
    for snd in senders:
        assert snd.finished, f"{snd!r} did not finish: cfg={cfg}"
        assert snd.highest_acked >= cfg["total_packets"]

    # 3. No sender ever invented data: sent >= total, inflight sane.
    for snd in senders:
        assert snd.stats.packets_sent >= cfg["total_packets"]
        assert 0 <= snd.inflight <= snd.stats.packets_sent

    # 4. Sinks received every distinct packet exactly once (byte account).
    for snd, sink in zip(senders, sinks):
        expected = cfg["total_packets"] * snd.packet_size
        assert sink.stats.bytes_received == expected

    # 5. The drop trace is sorted and within the run.
    t = db.drop_trace.times
    assert np.all(np.diff(t) >= 0)
    if len(t):
        assert t[0] >= 0.0 and t[-1] <= sim.now + 1e-9

    # 6. Whatever was dropped was also retransmitted eventually (reliability):
    #    deliveries + queue drops cannot exceed emissions.
    for snd in senders:
        assert snd.stats.retransmissions <= snd.stats.packets_sent


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
             min_size=1, max_size=200)
)
def test_engine_executes_any_schedule_in_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.events_processed == len(delays)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_queue_never_exceeds_capacity_under_random_ops(capacity, batch, seed):
    from repro.sim.packet import Packet
    from repro.sim.queues import DropTailQueue

    rng = np.random.default_rng(seed)
    q = DropTailQueue(capacity)
    for _ in range(200):
        if rng.random() < 0.6:
            for k in range(batch):
                q.push(Packet(1, k, 100), 0.0)
        else:
            q.pop(0.0)
        assert len(q) <= capacity
        assert q.arrived == q.enqueued + q.dropped
        assert q.enqueued == q.dequeued + len(q)
        assert q.bytes == 100 * len(q)
