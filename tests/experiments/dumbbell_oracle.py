"""Hand-built Figure 1 dumbbells, kept as the test oracle for the scenario spec.

The figure drivers used to wire their dumbbells themselves:
``build_dumbbell``, an optional queue swap, one ``add_pair`` /
sender / ``TcpSink`` / start draw per flow, the noise fleet last.  They
are all :func:`repro.experiments.scenario.run_scenario` now, so a test
comparing two drivers would compare the builder with itself.  These are
the old loops — the Figure 7 / zoo competition, the ECN leg, the RED leg,
the Figure 2 fleet with or without noise, the Figure 3 Dummynet pipe,
the methodology probe, the delay-based signal, the many-flows packet leg,
the short-flow churn leg and the Figure 8 parallel transfer — spelled
out from public pieces only, so
``tests/experiments/test_scenario.py`` can hold the builder to them bit
for bit.

Each returns ``(drop_times, drop_flow_ids, times, per_class_mbps)``;
the last two are ``None`` where the old driver kept no throughput trace.
The last six return that tuple plus what the old driver read besides
the drop trace.
"""

import math

import numpy as np

from repro.apps.churn import ChurnConfig, FlowChurn
from repro.apps.latency import lower_bound
from repro.experiments.common import add_noise_fleet, random_rtts
from repro.extensions.ecn import PersistentEcnQueue
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.queues import REDParams, REDQueue, make_queue
from repro.sim.rng import RngStreams
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.sim.trace import DropTrace, ThroughputTrace
from repro.tcp.cbr import CbrSource
from repro.tcp.fast import FastSender
from repro.tcp.newreno import NewRenoSender
from repro.tcp.pacing import PacedSender
from repro.tcp.registry import create_sender
from repro.tcp.sink import ProbeSink, TcpSink


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


def dummynet(seed, sc, buffer_bdp_fraction=0.5):
    """``run_fig3``: the four RTT classes through a noisy pipe.  The pipe
    replaces the forward bottleneck before any pair is attached (the old
    ``build_dummynet_dumbbell``); drop times come back unfloored."""
    streams = RngStreams(seed)
    sim = Simulator()
    classes = (0.002, 0.010, 0.050, 0.200)
    mean_rtt = float(np.mean(classes))
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
    cfg.buffer_pkts = max(4, int(cfg.bdp_packets(mean_rtt) * buffer_bdp_fraction))
    db = build_dumbbell(sim, cfg)
    db.drop_trace = DropTrace("dummynet")
    db.bottleneck_fwd = Link(
        sim, db.right_router, cfg.bottleneck_rate_bps, cfg.bottleneck_delay,
        queue=db.forward_queue, name="dummynet-pipe", drop_trace=db.drop_trace,
        rng=streams.stream("pipe-noise"), max_noise=200e-6,
    )
    start_rng = streams.stream("starts")
    for i in range(sc.n_tcp_flows):
        pair = db.add_pair(rtt=classes[i % len(classes)], name=f"tcp{i}")
        snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id, total_packets=None)
        TcpSink(sim, pair.right, 100 + i, pair.left.node_id)
        snd.start(float(start_rng.uniform(0.0, 0.5)))
    add_noise_fleet(sim, db, streams, sc.n_noise_flows, sc.noise_load)
    sim.run(until=sc.measure_duration)
    return _measure(db, None, sc.measure_duration)


def methodology(seed, sc, buffer_bdp_fraction=0.5):
    """``run_methodology``: the Figure 2 fleet plus a 4%-of-capacity CBR
    probe pair (flow 777) between the flows and the noise, silent for the
    last RTT + buffer drain time.  Extra: every flow's retransmission
    times and the probe's lost send times."""
    probe_interval = 100 * 8.0 / (0.04 * sc.capacity_bps)
    streams = RngStreams(seed)
    sim = Simulator()
    rtts = random_rtts(sc.n_tcp_flows, streams)
    mean_rtt = float(rtts.mean())
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
    cfg.buffer_pkts = max(4, int(cfg.bdp_packets(mean_rtt) * buffer_bdp_fraction))
    db = build_dumbbell(sim, cfg)
    senders = []
    start_rng = streams.stream("starts")
    for i, rtt in enumerate(rtts):
        pair = db.add_pair(rtt=float(rtt), name=f"tcp{i}")
        snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id)
        TcpSink(sim, pair.right, 100 + i, pair.left.node_id)
        snd.start(float(start_rng.uniform(0.0, 0.5)))
        senders.append(snd)
    probe_pair = db.add_pair(rtt=mean_rtt, name="probe")
    drain = cfg.buffer_pkts * cfg.packet_size * 8.0 / cfg.bottleneck_rate_bps
    probe = CbrSource(sim, probe_pair.left, 777, probe_pair.right.node_id,
                      rate_bps=100 * 8 / probe_interval, packet_size=100,
                      duration=sc.measure_duration - (mean_rtt + drain), jitter=0.0)
    probe_sink = ProbeSink(sim, probe_pair.right, 777)
    probe.start(0.0)
    add_noise_fleet(sim, db, streams, sc.n_noise_flows, sc.noise_load)
    sim.run(until=sc.measure_duration)
    extra = ([list(s.retx_times) for s in senders],
             probe.lost_times(probe_sink.received_set()))
    return (*_measure(db, None, sc.measure_duration), extra)


def delay_signal(seed, sc, fast, rtts):
    """``run_delay_based``'s ``_run_signal``: one NewReno (or FAST,
    alpha 10) flow per RTT on the Fig. 7 link, windows sampled every
    0.2 s from half-way.  Extra: the samples and each flow's bytes."""
    streams = RngStreams(seed)
    sim = Simulator()
    duration = sc.fig7_duration
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
    cfg.buffer_pkts = max(len(rtts) * 12, cfg.bdp_packets(float(np.mean(rtts))) // 2)
    db = build_dumbbell(sim, cfg)
    tp = ThroughputTrace(1.0)
    senders = []
    start_rng = streams.stream("starts")
    for i, rtt in enumerate(rtts):
        pair = db.add_pair(rtt=float(rtt))
        if fast:
            snd = FastSender(sim, pair.left, 100 + i, pair.right.node_id, alpha=10.0)
        else:
            snd = NewRenoSender(sim, pair.left, 100 + i, pair.right.node_id)
        TcpSink(sim, pair.right, 100 + i, pair.left.node_id, throughput=tp)
        tp.assign(100 + i, i)
        snd.start(float(start_rng.uniform(0.0, 0.2)))
        senders.append(snd)
    samples = [[] for _ in senders]

    def sample():
        for k, s in enumerate(senders):
            samples[k].append(s.cwnd)
        if sim.now < duration - 0.25:
            sim.schedule(0.2, sample)

    sim.schedule(duration / 2.0, sample)
    sim.run(until=duration)
    extra = (samples, [tp.total_bytes(i) for i in range(len(rtts))])
    return (*_measure(db, None, duration), extra)


def manyflows_packet(seed, sc, n):
    """``run_manyflows_packet``: two NewReno classes (100 / 250 ms), each
    on one shared host pair, capped windows, a warm-up snapshot of the
    loss-event counters.  Extra: the snapshot and the final counters."""
    from repro.experiments.manyflows import _class_caps, _class_counts

    capacity_bps = n * sc.manyflows_per_flow_bps
    duration = sc.manyflows_duration
    streams = RngStreams(seed)
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=capacity_bps,
                         access_rate_bps=max(1e9, 16.0 * capacity_bps),
                         buffer_pkts=8 * n)
    db = build_dumbbell(sim, cfg)
    tp = ThroughputTrace(bin_width=0.25)
    start_rng = streams.stream("starts")
    senders = []
    for k, ((name, rtt), nk, (w_max, ssthresh0)) in enumerate(
            zip((("near", 0.100), ("far", 0.250)), _class_counts(n), _class_caps(sc))):
        pair = db.add_pair(rtt=rtt, name=name)
        for i in range(nk):
            fid = (k + 1) * 1_000_000 + i
            snd = create_sender("newreno", sim, pair.left, fid, pair.right.node_id,
                                max_cwnd=w_max, initial_ssthresh=ssthresh0)
            TcpSink(sim, pair.right, fid, pair.left.node_id, throughput=tp)
            tp.assign(fid, k)
            senders.append(snd)
            snd.start(float(start_rng.uniform(0.0, 0.5)))
    events = lambda: [s.stats.fast_retransmits + s.stats.timeouts for s in senders]
    base = []
    sim.schedule(0.3 * duration, lambda: base.extend(events()))
    sim.run(until=duration)
    return (*_measure(db, tp, duration), (base, events()))


def churn(seed, sc):
    """``run_shortflows``' churn leg: Poisson short NewReno transfers at
    ~1.2x capacity, no long-lived flows, on ``seed + 1``.  Extra: flows
    started and completed."""
    streams = RngStreams(seed + 1)
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.capacity_bps)
    cfg.buffer_pkts = max(4, cfg.bdp_packets(0.101) // 2)
    db = build_dumbbell(sim, cfg)
    pkts_per_sec = sc.capacity_bps / 8.0 / cfg.packet_size
    workload = FlowChurn(sim, db, streams, ChurnConfig(
        arrival_rate=1.2 * pkts_per_sec / 60.0, mean_flow_packets=60.0))
    workload.start(0.0)
    sim.run(until=sc.measure_duration)
    extra = (workload.flows_started, workload.flows_completed)
    return (*_measure(db, None, sc.measure_duration), extra)


def parallel_transfer(seed, sc, n_flows, rtt):
    """``run_fig8_cell``: the noise fleet first, then ``n_flows`` finite
    NewReno transfers (flows 1000+, pairs ``pt{i}``) started within 10 ms
    on ``"start-jitter"``, run in 10 ms slices until all have finished or
    60x the lower bound has passed.  Extra: each transfer's finish time
    (``None`` if unfinished) and flow id."""
    streams = RngStreams(seed)
    sim = Simulator()
    cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig8_capacity_bps)
    cfg.buffer_pkts = max(4, int(cfg.bdp_packets(max(rtt, 0.010)) * 0.5))
    db = build_dumbbell(sim, cfg)
    add_noise_fleet(sim, db, streams, max(2, sc.n_noise_flows // 4), sc.noise_load)
    per_flow = max(1, math.ceil(sc.fig8_total_bytes / n_flows / cfg.packet_size))
    senders = []
    for i in range(n_flows):
        pair = db.add_pair(rtt=rtt, name=f"pt{i}")
        senders.append(NewRenoSender(sim, pair.left, 1000 + i, pair.right.node_id,
                                     total_packets=per_flow))
        TcpSink(sim, pair.right, 1000 + i, pair.left.node_id)
    jitter = streams.stream("start-jitter")
    for snd in senders:
        snd.start(float(jitter.uniform(0.0, 0.01)))
    horizon = 60.0 * lower_bound(sc.fig8_total_bytes, sc.fig8_capacity_bps)
    t = 0.0
    while t < horizon and not all(s.finished for s in senders):
        t += 0.010
        sim.run(until=t)
    extra = ([s.stats.finish_time for s in senders], [s.flow_id for s in senders])
    return (*_measure(db, None, horizon), extra)
