"""The per-path object loops of ``repro.internet``, kept as the test oracle.

Until PR 23 ``shards.run_shard`` and ``campaign._experiment_worker`` each
carried a second copy of the probe pair — ``RngStreams``,
``sample_path_loss_model``, ``sample_episodes``, two ``run_probe`` calls
with a fault plan's ``mask_hook``, ``validate_pair``,
``GapHistogram.fold`` — that an environment knob or any armed
:class:`~repro.faults.FaultPlan` routed to.  The shipped code now runs
every path on the analytic kernel; these are the old loops (the probe
pair they both spelled out is one function here), built only from the
public reference pieces, so ``tests/internet/test_analytic.py`` can hold
the kernel to them bit for bit, fault plan armed or not.
"""

from repro.internet.campaign import Experiment, _experiment_to_record
from repro.internet.pathmodel import sample_path_loss_model
from repro.internet.probe import PROBE_SIZES, ProbeConfig, run_probe, validate_pair
from repro.internet.shards import (
    CAMPAIGN_SPAN_SECONDS, GapHistogram, ShardResult, SyntheticMesh,
)
from repro.sim.rng import RngStreams


def _injected_since(plan, before):
    if plan is None:
        return {}
    return {
        k: v - before.get(k, 0)
        for k, v in plan.injected.items()
        if v - before.get(k, 0) > 0
    }


def _probe_pair(path, model, rng, cfg, plan, index, started_at):
    """Both runs of one experiment, as the object loops made them."""
    episodes = model.sample_episodes(cfg.duration * 1.01, rng)
    mask_hook = None
    if plan is not None and (plan.flaps or plan.spikes):
        def mask_hook(times, lost):
            return plan.apply_probe_faults(times, lost, started_at, index)
    small = run_probe(
        path, model, rng, cfg, packet_size=PROBE_SIZES[0],
        episodes=episodes, mask_hook=mask_hook,
    )
    large = run_probe(
        path, model, rng, cfg, packet_size=PROBE_SIZES[1],
        episodes=episodes, mask_hook=mask_hook,
    )
    rtt_now = path.rtt_at(started_at)
    small.rtt = rtt_now
    large.rtt = rtt_now
    return small, large


def run_shard_objects(spec, probe_config=None, fault_plan=None, heartbeat=None,
                      attempt=1, allow_process_faults=False):
    """``run_shard`` as it was until PR 23 with the kernel switched off."""
    cfg = probe_config or ProbeConfig()
    mesh = SyntheticMesh(spec.n_sites, seed=spec.seed)
    hist = GapHistogram()
    n_valid = 0
    n_rejected = 0
    injected_before = dict(fault_plan.injected) if fault_plan is not None else {}

    for done, k in enumerate(range(spec.start, spec.stop)):
        if fault_plan is not None:
            if allow_process_faults:
                fault_plan.shard_fault_check(spec.shard_id, done, attempt)
            fault_plan.crash_check(k, attempt)
        path = mesh.path_by_index(k)
        streams = RngStreams(spec.seed)
        model = sample_path_loss_model(path, streams)
        rng = streams.stream(f"shard-exp/{k}")
        started_at = CAMPAIGN_SPAN_SECONDS * ((k + 0.5) / mesh.n_paths)
        small, large = _probe_pair(path, model, rng, cfg, fault_plan, k, started_at)
        if validate_pair(small, large):
            n_valid += 1
            hist.fold(small.intervals_rtt())
            hist.fold(large.intervals_rtt())
        else:
            n_rejected += 1
        if heartbeat is not None:
            heartbeat(done + 1)

    return ShardResult(
        spec=spec,
        histogram=hist,
        n_experiments=spec.n_paths,
        n_valid=n_valid,
        n_rejected=n_rejected,
        injected=_injected_since(fault_plan, injected_before),
    )


def experiment_worker_objects(job, attempt=1):
    """``campaign._experiment_worker`` as it was until PR 23, likewise."""
    seed, cfg, path, index, started_at, plan = job
    if plan is not None:
        plan.crash_check(index, attempt)
    streams = RngStreams(seed)
    model = sample_path_loss_model(path, streams)
    rng = streams.stream(f"exp/{index}")
    injected_before = dict(plan.injected) if plan is not None else {}
    small, large = _probe_pair(path, model, rng, cfg, plan, index, started_at)
    exp = Experiment(
        path=path, small=small, large=large,
        valid=validate_pair(small, large), started_at=started_at,
    )
    record = _experiment_to_record(exp, index)
    if plan is not None:
        record["injected"] = _injected_since(plan, injected_before)
    return record
