"""Per-layer metrics derived from one traced repetition.

:func:`layer_metrics` turns the record :meth:`tracing.Tracer.collect`
returns into the flat ``<layer>.<metric>`` values ``BENCHMARK.json``
declares under ``per_layer``.  A layer's ``self_s`` is the self time of
its wrapped entry points plus the own time of the engine-dispatched
callbacks its modules define; the two fan-out layers additionally give up
the time their workers' spans cover, so what is left is the parent's
overhead (spawning, polling, pickling, waiting on the slowest part).
"""

from __future__ import annotations

from tracing import UNATTRIBUTED, layer_of

__all__ = ["EXACT", "layer_metrics", "layer_shares"]

#: Per-layer metrics that are counts made by the program: they repeat
#: exactly for a given seed and size, so a later issue may name one as
#: its claim.  (``obs.artifact_bytes`` is a count but embeds wall-clock
#: figures in ``metrics.json``, so it is not exact.)
EXACT = frozenset({
    "sim.engine.events", "sim.engine.schedule_fast_calls",
    "sim.engine.schedule_slot_calls", "sim.engine.cancel_calls",
    "sim.link.sends", "sim.link.callbacks", "sim.link.events_per_send",
    "sim.queues.pushes", "sim.queues.pops", "sim.queues.drops",
    "sim.node.receives", "tcp.receives", "tcp.timer_callbacks",
    "sim.trace.records", "core.calls", "experiments.parallel.items",
    "internet.analytic.paths", "internet.shards.merges",
    "internet.supervisor.spawns", "internet.supervisor.retries",
    "internet.supervisor.ledger_records", "sim.fluid.runs", "sim.fluid.steps",
    "obs.sampler_callbacks", "obs.invariant_sweeps",
})

_FANOUT_SPANS = {
    "experiments.parallel": "experiments.parallel:parallel_map",
    "internet.supervisor": "internet.supervisor:CampaignSupervisor.run",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def layer_shares(merged: dict) -> dict:
    """``layer -> self seconds`` over wrapped entry points and callbacks
    (``unattributed`` included), before the fan-out correction."""
    shares: dict[str, float] = {}
    for key, (_, _, own) in merged["stats"].items():
        layer = key.partition(":")[0]
        shares[layer] = shares.get(layer, 0.0) + own
    for module, _, _, own, _ in merged["callbacks"]:
        layer = layer_of(module)
        shares[layer] = shares.get(layer, 0.0) + own
    return shares


def layer_metrics(
    merged: dict,
    traced_wall_s: float,
    untraced_wall_s: float,
    workers: int = 0,
    artifact_bytes: int = 0,
    obs_overhead_ratio: float = 0.0,
) -> dict:
    """Every declared per-layer metric of one traced repetition.

    ``workers`` is the workload's own fan-out (0 when it has none);
    ``artifact_bytes`` and ``obs_overhead_ratio`` come from the harness,
    which owns the output directory and the untraced comparison runs.
    """
    stats = merged["stats"]
    counts = merged["counts"]
    shares = layer_shares(merged)

    def calls(key: str) -> int:
        return stats.get(key, (0,))[0]

    def layer_calls(prefix: str) -> int:
        return sum(v[0] for k, v in stats.items() if k.startswith(prefix))

    dispatched: dict[str, int] = {}
    callback_total = unattributed = 0.0
    for module, _, n, own, inclusive in merged["callbacks"]:
        layer = layer_of(module)
        dispatched[layer] = dispatched.get(layer, 0) + n
        callback_total += inclusive
        if layer == UNATTRIBUTED:
            unattributed += own

    # Workers' outermost spans: what the fan-out layers wait on.
    parent_pid = merged["pid"]
    worker_spans = [(s[1], s[2]) for s in merged["spans"]
                    if s[4] != parent_pid and s[3] == -1]
    busy_share = {}
    for layer, span_name in _FANOUT_SPANS.items():
        own = [(s[1], s[2]) for s in merged["spans"]
               if s[0] == span_name and s[4] == parent_pid]
        covered = sum(_covered(worker_spans, lo, hi) for lo, hi in own)
        wall = sum(hi - lo for lo, hi in own)
        busy = sum(_covered([w], lo, hi) for w in worker_spans for lo, hi in own)
        shares[layer] = shares.get(layer, 0.0) - covered
        busy_share[layer] = _ratio(busy, wall * workers)

    def self_s(layer: str) -> float:
        return shares.get(layer, 0.0)

    events = counts.get("events", 0)
    sends = calls("sim.link:Link.send")
    pushes = calls("sim.queues:Queue.push")
    tcp_receives = layer_calls("tcp:")
    paths = counts.get("paths", 0)
    steps = counts.get("steps", 0)
    link_events = dispatched.get("sim.link", 0) + dispatched.get("sim.node", 0)
    return {
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.events": events,
        "sim.engine.schedule_fast_calls": calls("sim.engine:Simulator.schedule_fast"),
        "sim.engine.schedule_slot_calls": calls("sim.engine:Simulator.schedule_at"),
        "sim.engine.cancel_calls": calls("sim.engine:Event.cancel"),
        "sim.engine.ns_per_event": _ratio(self_s("sim.engine") * 1e9, events),
        "sim.link.self_s": self_s("sim.link"),
        "sim.link.sends": sends,
        "sim.link.callbacks": dispatched.get("sim.link", 0),
        "sim.link.events_per_send": _ratio(link_events, sends),
        "sim.queues.self_s": self_s("sim.queues"),
        "sim.queues.pushes": pushes,
        "sim.queues.pops": calls("sim.queues:Queue.pop"),
        "sim.queues.drops": counts.get("queue_drops", 0),
        "sim.queues.ns_per_push": _ratio(self_s("sim.queues") * 1e9, pushes),
        "sim.node.self_s": self_s("sim.node"),
        "sim.node.receives": calls("sim.node:Node.receive"),
        "tcp.self_s": self_s("tcp"),
        "tcp.receives": tcp_receives,
        "tcp.timer_callbacks": dispatched.get("tcp", 0),
        "tcp.ns_per_receive": _ratio(self_s("tcp") * 1e9, tcp_receives),
        "sim.trace.self_s": self_s("sim.trace"),
        "sim.trace.records": layer_calls("sim.trace:"),
        "core.self_s": self_s("core"),
        "core.calls": layer_calls("core:"),
        "experiments.self_s": self_s("experiments"),
        "experiments.parallel.self_s": self_s("experiments.parallel"),
        "experiments.parallel.items": counts.get("items", 0),
        "experiments.parallel.worker_busy_share": busy_share["experiments.parallel"],
        "internet.analytic.self_s": self_s("internet.analytic"),
        "internet.analytic.paths": paths,
        "internet.analytic.us_per_path": _ratio(self_s("internet.analytic") * 1e6, paths),
        "internet.shards.self_s": self_s("internet.shards"),
        "internet.shards.merges": calls("internet.shards:GapHistogram.merge"),
        "internet.supervisor.self_s": self_s("internet.supervisor"),
        "internet.supervisor.spawns": counts.get("spawns", 0),
        "internet.supervisor.retries": counts.get("retries", 0),
        "internet.supervisor.ledger_records": calls("internet.supervisor:Checkpoint.append"),
        "internet.supervisor.worker_busy_share": busy_share["internet.supervisor"],
        "sim.fluid.self_s": self_s("sim.fluid"),
        "sim.fluid.runs": calls("sim.fluid:run_fluid"),
        "sim.fluid.steps": steps,
        "sim.fluid.ns_per_step": _ratio(self_s("sim.fluid") * 1e9, steps),
        "obs.self_s": self_s("obs"),
        "obs.sampler_callbacks": calls("obs:FlightRecorder.sample"),
        "obs.invariant_sweeps": calls("obs:InvariantChecker.check_all"),
        "obs.artifact_bytes": artifact_bytes,
        "obs.overhead_ratio": obs_overhead_ratio,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
        "trace.unattributed_share": _ratio(unattributed, callback_total),
    }
