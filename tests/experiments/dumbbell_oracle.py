"""Hand-built Figure 1 dumbbells, kept as the test oracle for the scenario spec.

The figure drivers used to wire their dumbbells themselves:
``build_dumbbell``, an optional queue swap, one ``add_pair`` /
sender / ``TcpSink`` / start draw per flow, the noise fleet last.  They
are all :func:`repro.experiments.scenario.run_scenario` now, so a test
comparing two drivers would compare the builder with itself.  These are
the old loops — the Figure 7 / zoo competition, the ECN leg, the RED leg
and the Figure 2 fleet with or without noise — spelled out from public
pieces only, so ``tests/experiments/test_scenario.py`` can hold the
builder to them bit for bit.

Each returns ``(drop_times, drop_flow_ids, times, per_class_mbps)``;
the last two are ``None`` where the old driver kept no throughput trace.
"""

from repro.experiments.common import add_noise_fleet, random_rtts
from repro.extensions.ecn import PersistentEcnQueue
from repro.sim.engine import Simulator
from repro.sim.queues import REDParams, REDQueue, make_queue
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.sim.trace import ThroughputTrace
from repro.tcp.newreno import NewRenoSender
from repro.tcp.pacing import PacedSender
from repro.tcp.registry import create_sender
from repro.tcp.sink import TcpSink


def _measure(db, tp, duration, n_groups=2):
    trace = db.drop_trace
    if tp is None:
        return trace.drop_times(), trace.flow_ids, None, None
    series = [tp.series(g, until=duration - 1e-9) for g in range(n_groups)]
    return trace.drop_times(), trace.flow_ids, series[0][0], [s[1] for s in series]


def competition(seed, sc, challenger, aqm, rtt=0.05, buffer_bdp_fraction=1.0,
                bin_width=0.5):
    """``run_fig7`` / ``run_zoo_cell``: NewReno (100+) vs challenger (200+)."""
    streams = RngStreams(seed)
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
    cfg.buffer_pkts = max(4, int(cfg.bdp_packets(rtt) * buffer_bdp_fraction))
    db = build_dumbbell(sim, cfg)
    if aqm != "droptail":
        db.set_forward_queue(make_queue(
            aqm, cfg.buffer_pkts, rng=streams.stream("aqm"), name="bottleneck",
            service_rate_pps=sc.fig7_capacity_bps / 8.0 / cfg.packet_size,
        ))
    tp = ThroughputTrace(bin_width=bin_width)
    start_rng = streams.stream("starts")
    n = sc.fig7_flows_per_class
    for group, (sender, tag, base) in enumerate(
        (("newreno", "nr", 100), (challenger, "pc", 200))
    ):
        for i in range(n):
            pair = db.add_pair(rtt=rtt, name=f"{tag}{i}")
            snd = create_sender(sender, sim, pair.left, base + i, pair.right.node_id,
                                rtt=rtt)
            TcpSink(sim, pair.right, base + i, pair.left.node_id, throughput=tp)
            tp.assign(base + i, group)
            snd.start(float(start_rng.uniform(0.0, 0.1)))
    sim.run(until=sc.fig7_duration)
    return _measure(db, tp, sc.fig7_duration)


def ecn_competition(seed, sc, rtt=0.05):
    """``ecn_fairness``'s ECN leg: half-BDP persistent-ECN bottleneck,
    ECN-capable NewReno and paced senders."""
    streams = RngStreams(seed)
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
    cfg.buffer_pkts = max(4, cfg.bdp_packets(rtt) // 2)
    db = build_dumbbell(sim, cfg)
    db.set_forward_queue(PersistentEcnQueue(cfg.buffer_pkts, signal_duration=1.5 * rtt))
    tp = ThroughputTrace(bin_width=0.5)
    start_rng = streams.stream("starts")
    n = sc.fig7_flows_per_class
    for i in range(n):
        pair = db.add_pair(rtt=rtt, name=f"nr{i}")
        snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id, ecn=True)
        TcpSink(sim, pair.right, 100 + i, pair.left.node_id, throughput=tp)
        tp.assign(100 + i, 0)
        snd.start(float(start_rng.uniform(0.0, 0.1)))
    for i in range(n):
        pair = db.add_pair(rtt=rtt, name=f"pc{i}")
        snd = PacedSender(sim, pair.left, 200 + i, pair.right.node_id, base_rtt=rtt,
                          ecn=True)
        TcpSink(sim, pair.right, 200 + i, pair.left.node_id, throughput=tp)
        tp.assign(200 + i, 1)
        snd.start(float(start_rng.uniform(0.0, 0.1)))
    sim.run(until=sc.fig7_duration)
    return _measure(db, tp, sc.fig7_duration)


def fleet(seed, sc, buffer_bdp_fraction=0.5, noise=True, red=None, min_buffer=4):
    """``run_fig2`` (``noise=True``), the short-flow long-lived leg
    (``noise=False``) and a ``red_tuning`` leg (``red`` = threshold
    fractions ``(min_th, max_th, max_p)``, ``min_buffer=8``)."""
    streams = RngStreams(seed)
    sim = Simulator()
    rtts = random_rtts(sc.n_tcp_flows, streams)
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
    cfg.buffer_pkts = max(min_buffer, int(cfg.bdp_packets(float(rtts.mean()))
                                          * buffer_bdp_fraction))
    db = build_dumbbell(sim, cfg)
    if red is not None:
        min_th, max_th, max_p = red
        params = REDParams(min_th=max(1.0, min_th * cfg.buffer_pkts),
                           max_th=max(2.0, max_th * cfg.buffer_pkts), max_p=max_p)
        db.set_forward_queue(REDQueue(
            cfg.buffer_pkts, params, rng=streams.stream("red"),
            service_rate_pps=sc.capacity_bps / 8.0 / cfg.packet_size,
        ))
    start_rng = streams.stream("starts")
    for i, rtt in enumerate(rtts):
        pair = db.add_pair(rtt=float(rtt), name=f"tcp{i}")
        snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id)
        TcpSink(sim, pair.right, 100 + i, pair.left.node_id)
        snd.start(float(start_rng.uniform(0.0, 0.5)))
    if noise:
        add_noise_fleet(sim, db, streams, sc.n_noise_flows, sc.noise_load)
    sim.run(until=sc.measure_duration)
    return _measure(db, None, sc.measure_duration)
