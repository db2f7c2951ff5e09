"""The analytic CBR probe kernel: the one code path that runs a probe pair.

:func:`~repro.internet.probe.run_probe` is already vectorized, but the
campaign pays for far more than the mask math: per path it constructs
three ``SeedSequence``/``Generator`` stacks, a ``PathRtt``, a
``PathLossModel``, two fresh jitter/uniform arrays, two ``ProbeRun``
objects, and extracts loss timestamps even for the ~3/4 of paths the
48 B/400 B validation will reject.  This module collapses all of that
into a fused kernel built on the observation the ISSUE borrows from
Lautenschlaeger's deterministic model: a CBR probe's send schedule is
*arithmetic*, so everything downstream of it can be computed
arithmetically too, and deferred until someone actually needs it.

Bit-exactness is the contract — the kernel must be indistinguishable
from the event-free reference (``run_probe``; the naive per-path loop
over it lives on as ``tests/internet/probe_oracle.py``) and,
transitively, from the event-driven
:class:`~repro.internet.simpath.LossyLink` simulation (see
``tests/internet/test_analytic.py``).  Every transformation below
preserves the exact float and RNG-stream semantics of the code it
replaces:

* stream states come from :class:`~repro.sim.rng.FastStreams`
  (bit-identical to ``RngStreams`` by construction, pinned by fuzz
  tests), batch-derived per chunk of paths;
* scalar ``rng.uniform(lo, hi)`` draws become ``lo + (hi-lo) *
  rng.random()`` — the exact expression the Generator computes
  internally, fuzz-pinned bit-identical;
* the jittered send grid ``base + c*(r-0.5)`` is never built.  A run
  saves the PCG64 state, ``advance(n)``-s the generator over its ``n``
  jitter draws (one 64-bit output per double, so the stream position is
  exact) and draws only the ``n`` loss uniforms.  A send time is
  realized when somebody reads it — an auxiliary PCG64 restarts from the
  saved state and jumps to the probe — with the same three ufunc
  roundings and the same clamp of probe 0 to zero.  With ``jitter < 1``
  the grid is strictly increasing, so ``maximum.accumulate`` has
  nothing else to do;
* the episode mask is applied to all episode windows in one gathered
  ``u[idx] < drop_p`` — the same mask as ``lost_mask``'s last-start-wins
  indexing, including overlapping and duplicate episode starts.  Where a
  window bound falls in the jittered grid is bracketed on the
  *unjittered* one: probe ``i`` was sent within ``c/2`` (plus a rounding
  margin) of ``base[i]``, which with ``jitter < 1`` leaves at most one
  probe per bound undecided (about ``jitter`` of the bounds have one),
  and only those get their exact send time;
* zero-size RNG requests (``uniform``/``exponential`` with ``size=0``)
  consume no generator state, so the episode-free common case skips
  them.

Loss *timestamps* are realized for the lost probes only (~0.15% of a
300 s run), and only for paths that pass validation (the shard reducer
needs nothing else); the campaign worker, which returns full
:class:`~repro.internet.probe.ProbeRun` records, asks for them
explicitly.  What a path still pays for is the floor the contract sets:
its ``2n`` loss uniforms have to be drawn to stay on the stream.

A :class:`~repro.faults.FaultPlan` is a mask over the same arrays.  Probe
crashes and worker kills/hangs are two method calls in front of a path
and realize nothing.  A plan with flaps or spikes arms a ``mask_hook``:
once a run's mask is written, the full send grid is realized from the
saved jitter state (the one ``random(n)`` the run jumped over) and
``apply_probe_faults`` edits the mask; counts and loss timestamps read
the hooked mask.  Clock skew is applied to the loss timestamps.  Either
one means both runs of every path are evaluated, as the plan counts its
injections on both.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.internet.pathmodel import (
    DROP_PROB_RANGE, DURATION_FLOOR, DURATION_RTT_FRACTION, EPISODE_RATE_MEAN,
    RANDOM_LOSS_RANGE,
)
from repro.internet.paths import _BASE_RTT
from repro.internet.probe import (
    MIN_LOSSES, PROBE_SIZES, ProbeConfig, ProbeRun, validate_pair,
)
from repro.sim.rng import FastStreams

__all__ = [
    "ProbeKernel",
    "run_experiment_fast",
    "run_shard",
]

#: Stream-state batch size (paths per chunk): big enough to amortize the
#: vectorized SeedSequence mixing, small enough that per-shard memory
#: stays constant (the supervisor's tracemalloc invariant).
_CHUNK = 512

_EMPTY = np.empty(0, dtype=np.float64)

# sample_path_loss_model's uniform draws as ``lo + range * random()``.
_DROP_P_LO = DROP_PROB_RANGE[0]
_DROP_P_RANGE = DROP_PROB_RANGE[1] - DROP_PROB_RANGE[0]
_RAND_P_LOG_LO = np.log(RANDOM_LOSS_RANGE[0])
_RAND_P_LOG_RANGE = np.log(RANDOM_LOSS_RANGE[1]) - np.log(RANDOM_LOSS_RANGE[0])

_TWO_PI = 2.0 * np.pi

# (region, region) -> base RTT, both orders: the tuple lookup replaces
# synthesize_path's per-path frozenset allocation.
_BASE_RTT_PAIR = {}
for _fs, _v in _BASE_RTT.items():
    _a, _b = tuple(_fs) if len(_fs) == 2 else (next(iter(_fs)),) * 2
    _BASE_RTT_PAIR[(_a, _b)] = _v
    _BASE_RTT_PAIR[(_b, _a)] = _v


class _Counts:
    """Loss-count view of a probe run, shaped for ``validate_pair``.

    The acceptance rule reads only sizes and counts, so the kernel can
    run it without materializing loss timestamps.
    """

    __slots__ = ("packet_size", "n_sent", "n_lost")

    def __init__(self, packet_size: int, n_sent: int, n_lost: int):
        self.packet_size = packet_size
        self.n_sent = n_sent
        self.n_lost = n_lost

    @property
    def loss_rate(self) -> float:
        return self.n_lost / self.n_sent if self.n_sent else float("nan")


class ProbeKernel:
    """Fused 48 B/400 B probe-pair evaluation against one path's weather.

    Holds preallocated per-run buffers (loss uniforms and the loss mask)
    sized for one :class:`ProbeConfig`, so a shard's whole path loop
    allocates nothing n-sized per path.  The jittered send grid is never
    materialized: a run jumps the generator over its ``n`` jitter draws,
    keeps the state it jumped from, and realizes send times later for
    exactly the probes somebody reads (see the module docstring).
    Single-threaded by design — one kernel per worker.

    Raises ``ValueError`` for a config whose jitter is so close to 1
    that neighbouring probes could swap order (see ``__init__``).
    """

    def __init__(self, config: Optional[ProbeConfig] = None):
        cfg = config or ProbeConfig()
        self.cfg = cfg
        self.n = n = cfg.n_probes
        self.interval = cfg.interval
        self.jitter = cfg.jitter
        #: jitter amplitude: times = base + c * (r - 0.5)
        self._c = cfg.interval * cfg.jitter
        #: the unjittered arithmetic send grid
        self.base = np.arange(n) * cfg.interval
        # |times[i] - base[i]| <= c/2 plus the roundings of the three
        # ufuncs and of ``x -+ reach`` below, together under 3e-16 *
        # duration; the margin is 2**-50 * duration.
        margin = cfg.duration * 2.0 ** -50
        #: how far from ``base[i]`` probe ``i`` can have been sent
        self._reach = 0.5 * self._c + margin
        # The shortcut the kernel stands on: a closed window of width
        # 2 * reach holds at most one point of the base grid.  Then the
        # jittered grid is strictly increasing (run_probe's
        # maximum.accumulate is the identity except that index 0 may
        # clamp to zero) and an episode bound's position in it is known
        # up to one undecided probe.
        if cfg.interval * (1.0 - cfg.jitter) <= 4.0 * margin:
            raise ValueError(
                f"probe grid is not strictly monotone: interval * (1 - jitter) "
                f"must exceed 2**-48 * duration = {4.0 * margin:.3g}, got "
                f"interval={cfg.interval}, jitter={cfg.jitter!r}, "
                f"duration={cfg.duration}"
            )
        self._u = [np.empty(n), np.empty(n)]
        self._lost = [np.empty(n, dtype=bool), np.empty(n, dtype=bool)]
        #: PCG64 state in front of each run's jitter draws
        self._jitter_state: list[Optional[dict]] = [None, None]
        self._aux_bits = np.random.PCG64(0)
        self._aux = np.random.Generator(self._aux_bits)
        #: whether a slot was evaluated for the pair now in the kernel
        self._ran = [False, False]
        self.counts = [0, 0]

    # ------------------------------------------------------------------
    def _run_one(self, slot: int, rng: np.random.Generator,
                 starts: np.ndarray, durations: np.ndarray,
                 drop_p: float, rand_p: float,
                 mask_hook: Optional[Callable] = None) -> int:
        u = self._u[slot]
        lost = self._lost[slot]
        if slot == 0:
            self._ran[1] = False  # a new pair: the 400 B slot is the old one's
        if self.jitter > 0.0:
            # Jump over the n jitter draws (one 64-bit output per
            # double) instead of making them.
            bits = rng.bit_generator
            if type(bits) is not np.random.PCG64:
                raise TypeError(
                    f"ProbeKernel needs a PCG64 generator, got {type(bits).__name__}"
                )
            state = self._jitter_state[slot] = bits.state
            bits.advance(self.n)
            if state["has_uint32"]:
                # advance() forgets a buffered 32-bit half-draw that
                # random(n) would have left alone.
                bits.state = {**bits.state, "has_uint32": 1,
                              "uinteger": state["uinteger"]}
        rng.random(out=u)
        np.less(u, rand_p, out=lost)
        n_ep = len(starts)
        if n_ep:
            # Window bounds s0 <= e0 <= s1 <= e1 ...: lost_mask indexes
            # by the *last* start <= t, so an episode's effective window
            # is clipped by its successor's start.
            xs = np.empty(2 * n_ep)
            xs[0::2] = starts
            ends = xs[1::2]
            np.add(starts, durations, out=ends)
            np.minimum(ends[:-1], starts[1:], out=ends[:-1])
            # Position of each bound in the jittered grid = number of
            # probes sent strictly before it.
            base = self.base
            pos = base.searchsorted(xs - self._reach)
            undecided = np.flatnonzero(
                base.searchsorted(xs + self._reach, side="right") > pos
            )
            if len(undecided):
                # clipped ends repeat their successor's start
                probes, back = np.unique(pos[undecided], return_inverse=True)
                sent = self._send_times(slot, probes)[back]
                pos[undecided] += sent < xs[undecided]
            first = pos[0::2]
            length = pos[1::2] - first
            stop = np.cumsum(length)
            idx = np.arange(stop[-1]) + np.repeat(first - (stop - length), length)
            lost[idx] = u[idx] < drop_p
        if mask_hook is not None:
            # run_probe's seam: the hook sees the whole send grid.
            lost[:] = mask_hook(self._send_times(slot, np.arange(self.n)), lost)
        self._ran[slot] = True
        count = int(np.count_nonzero(lost))
        self.counts[slot] = count
        return count

    def _send_times(self, slot: int, idx: np.ndarray) -> np.ndarray:
        """Exact send times of run ``slot``'s probes ``idx`` (strictly
        increasing): the floats run_probe's full grid holds there."""
        times = self.base[idx]
        if self.jitter > 0.0 and len(idx):
            r = self._jitter_draws(slot, idx)
            np.subtract(r, 0.5, out=r)
            np.multiply(r, self._c, out=r)
            np.add(r, times, out=times)
            if idx[0] == 0 and times[0] < 0.0:
                times[0] = 0.0
        return times

    def _jitter_draws(self, slot: int, idx: np.ndarray) -> np.ndarray:
        """The jitter doubles ``r[idx]`` of run ``slot``: an auxiliary
        generator restarts from the saved state and jumps from one
        stretch of consecutive indices to the next."""
        bits = self._aux_bits
        bits.state = self._jitter_state[slot]
        advance = bits.advance
        draw = self._aux.random
        out = np.empty(len(idx))
        cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
        heads = [0] + cuts
        at = 0  # stream position, in draws
        for lo, hi, first in zip(heads, cuts + [len(idx)], idx[heads].tolist()):
            advance(first - at)
            draw(out=out[lo:hi])
            at = first + hi - lo
        return out

    def run_pair(self, rng: np.random.Generator,
                 episodes: tuple[np.ndarray, np.ndarray],
                 drop_p: float, rand_p: float,
                 mask_hook: Optional[Callable] = None) -> tuple[int, int]:
        """Evaluate both probe runs (48 B then 400 B) of one experiment.

        Consumes ``rng`` exactly as two back-to-back ``run_probe`` calls
        would; returns the two loss counts.  ``mask_hook(times, lost) ->
        lost`` is ``run_probe``'s: applied to each run's full send grid
        and mask before anything is counted.
        """
        starts, durations = episodes
        return (
            self._run_one(0, rng, starts, durations, drop_p, rand_p, mask_hook),
            self._run_one(1, rng, starts, durations, drop_p, rand_p, mask_hook),
        )

    def validate(self) -> bool:
        """The paper's 48 B/400 B acceptance rule on the latest pair."""
        return validate_pair(
            _Counts(PROBE_SIZES[0], self.n, self.counts[0]),
            _Counts(PROBE_SIZES[1], self.n, self.counts[1]),
        )

    def loss_times(self, slot: int) -> np.ndarray:
        """Send timestamps of the probes lost in run ``slot`` (0=48 B)."""
        if not self._ran[slot]:
            raise RuntimeError(
                f"run {slot} was not evaluated for the current probe pair"
            )
        return self._send_times(slot, np.flatnonzero(self._lost[slot]))


def sample_model_params(rng: np.random.Generator, base_rtt: float) -> tuple[float, float, float, float]:
    """``sample_path_loss_model``'s draws, without the object: returns
    ``(episode_rate, episode_mean_duration, episode_drop_prob,
    random_loss_prob)`` consuming ``rng`` identically."""
    rate = float(EPISODE_RATE_MEAN * rng.lognormal(mean=0.0, sigma=0.8))
    drop_p = _DROP_P_LO + _DROP_P_RANGE * rng.random()
    rand_p = float(np.exp(_RAND_P_LOG_LO + _RAND_P_LOG_RANGE * rng.random()))
    mean_dur = max(DURATION_FLOOR, DURATION_RTT_FRACTION * base_rtt)
    return rate, mean_dur, drop_p, rand_p


def sample_episodes_fast(rng: np.random.Generator, rate: float,
                         mean_duration: float, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """``PathLossModel.sample_episodes`` minus the zero-size draws.

    ``Generator.uniform``/``exponential`` with ``size=0`` consume no
    state, so the episode-free case can skip them (and the sort)
    entirely while staying on the same stream positions.
    """
    n = int(rng.poisson(rate * horizon))
    if n == 0:
        return _EMPTY, _EMPTY
    starts = rng.uniform(0.0, horizon, size=n)
    if n > 1:
        starts = np.sort(starts)
    durations = rng.exponential(mean_duration, size=n)
    return starts, durations


def _rtt_at(base_rtt: float, amplitude: float, phase: float, t: float) -> float:
    """``PathRtt.rtt_at`` on bare floats (same numpy scalar roundings)."""
    swing = 1.0 + amplitude * np.sin(_TWO_PI * t / 86_400.0 + phase)
    return base_rtt * float(swing)


# Per-worker caches: the supervisor runs many shards of the same
# campaign per process — the mesh, the kernel buffers, and the stream
# deriver are all reusable.
# One entry each (replaced on a key change): bounded memory by design.
_MESH_CACHE: dict = {}
_KERNEL_CACHE: dict = {}
_STREAMS_CACHE: dict = {}


def _cached(cache: dict, key, build):
    hit = cache.get(key)
    if hit is None:
        cache.clear()
        hit = cache[key] = build()
    return hit


def _kernel_for(cfg: ProbeConfig) -> ProbeKernel:
    """This worker's kernel for ``cfg`` (built, or refused, on first use)."""
    return _cached(
        _KERNEL_CACHE, (cfg.interval, cfg.duration, cfg.jitter),
        lambda: ProbeKernel(cfg),
    )


def _masks_probes(plan) -> bool:
    """Whether ``plan`` needs a run's send grid (outages, loss spikes)."""
    return plan is not None and bool(plan.flaps or plan.spikes)


def injected_since(plan, before: dict) -> dict:
    """Injections ``plan`` realized since the ``dict(plan.injected)``
    snapshot ``before`` (a plan outlives the call that reports them)."""
    if plan is None:
        return {}
    delta = {k: v - before.get(k, 0) for k, v in plan.injected.items()}
    return {k: v for k, v in delta.items() if v > 0}


def run_experiment_fast(seed: int, cfg: ProbeConfig, path, index: int,
                        started_at: float, fault_plan=None, attempt: int = 1):
    """One campaign experiment on the fused kernel.

    The measurement half of ``campaign._experiment_worker``: the
    ``loss/<src>/<dst>`` and ``exp/<index>`` streams, one reseeded
    generator, preallocated buffers, and no intermediate model object.
    Unlike the shard path it always materializes both runs' loss
    timestamps, because the campaign record keeps them for invalid
    pairs too.  ``fault_plan`` may crash the experiment on this
    ``attempt``, mask probes (outages, spikes) and skew the timestamps.

    Returns ``(small, large, valid)`` with real :class:`ProbeRun`
    objects.
    """
    plan = fault_plan
    if plan is not None:
        plan.crash_check(index, attempt)
    kernel = _kernel_for(cfg)
    fs = _cached(_STREAMS_CACHE, seed, lambda: FastStreams(seed))

    rng = fs.stream(f"loss/{path.src.hostname}/{path.dst.hostname}")
    rate, mean_dur, drop_p, rand_p = sample_model_params(rng, path.base_rtt)
    rng = fs.stream(f"exp/{index}")
    episodes = sample_episodes_fast(rng, rate, mean_dur, cfg.duration * 1.01)
    hook = None
    if _masks_probes(plan):
        hook = partial(plan.apply_probe_faults, started_at=started_at, index=index)
    kernel.run_pair(rng, episodes, drop_p, rand_p, hook)
    loss_times = [kernel.loss_times(0), kernel.loss_times(1)]
    if plan is not None:
        loss_times = [plan.skew_times(t) for t in loss_times]
    rtt_now = path.rtt_at(started_at)
    small, large = (
        ProbeRun(path=path, packet_size=size, n_sent=kernel.n,
                 loss_times=times, rtt=rtt_now)
        for size, times in zip(PROBE_SIZES, loss_times)
    )
    return small, large, validate_pair(small, large)


def run_shard(spec, probe_config: Optional[ProbeConfig] = None,
              fault_plan=None,
              heartbeat: Optional[Callable[[int], None]] = None,
              attempt: int = 1, allow_process_faults: bool = False):
    """Execute one shard: probe every path in ``[start, stop)`` and fold
    the validated loss gaps into a streaming
    :class:`~repro.internet.shards.GapHistogram`.

    Per-path randomness derives from ``(seed, path hostnames, path
    index)`` — never from the shard boundaries — so re-sharding the same
    campaign, retrying a shard, or resuming after a kill all reproduce
    identical results.  ``heartbeat(done_paths)`` is called after every
    path (the supervisor's liveness signal).  ``fault_plan`` folds the
    campaign-leg faults in (outages, spikes, skew, probe crashes) and —
    only when ``allow_process_faults`` is set by a process-isolated
    worker — the worker-level SIGKILL/hang faults.

    One kernel, chunk-batched stream derivation, loss timestamps only
    for validated paths: the same floats as the per-path object stack
    (``tests/internet/probe_oracle.py``), which it never builds.
    """
    from repro.internet.shards import (
        CAMPAIGN_SPAN_SECONDS, GapHistogram, ShardResult, SyntheticMesh,
    )
    from repro.core.intervals import intervals_from_trace

    cfg = probe_config or ProbeConfig()
    kernel = _kernel_for(cfg)
    plan = fault_plan
    masked = _masks_probes(plan)
    skewed = plan is not None and plan.skew is not None
    injected_before = dict(plan.injected) if plan is not None else {}

    mesh = _cached(
        _MESH_CACHE, (spec.n_sites, spec.seed),
        lambda: SyntheticMesh(spec.n_sites, seed=spec.seed),
    )
    sites = mesh.sites
    hostnames = [s.hostname for s in sites]
    regions = [s.region for s in sites]
    min_rtt = mesh.min_rtt
    n_paths_total = mesh.n_paths
    n_dst = len(sites) - 1
    horizon = cfg.duration * 1.01
    fs = _cached(_STREAMS_CACHE, spec.seed, lambda: FastStreams(spec.seed))
    hist = GapHistogram()
    fold = hist.fold
    n_valid = 0
    n_rejected = 0
    run_one = kernel._run_one
    use = fs.use128

    done = 0
    for chunk_start in range(spec.start, spec.stop, _CHUNK):
        chunk = range(chunk_start, min(chunk_start + _CHUNK, spec.stop))
        pairs = []
        names = []
        for k in chunk:
            i, r = divmod(k, n_dst)  # SyntheticMesh.pair_of, inlined
            j = r if r < i else r + 1
            pairs.append((i, j))
            src, dst = hostnames[i], hostnames[j]
            names.append(f"rtt/{src}/{dst}")
            names.append(f"loss/{src}/{dst}")
            names.append(f"shard-exp/{k}")
        words = fs.states128_for(names)

        for ci, k in enumerate(chunk):
            if plan is not None:
                if allow_process_faults:
                    plan.shard_fault_check(spec.shard_id, done, attempt)
                plan.crash_check(k, attempt)
            i, j = pairs[ci]

            # synthesize_path's draws (rtt/<src>/<dst> stream)
            rng = use(words, 3 * ci)
            base = _BASE_RTT_PAIR[(regions[i], regions[j])]
            jit = float(rng.lognormal(mean=0.0, sigma=0.35))
            base_rtt = max(min_rtt, base * jit)
            amplitude = 0.15 * rng.random()
            phase = _TWO_PI * rng.random()

            # sample_path_loss_model's draws (loss/<src>/<dst> stream)
            rng = use(words, 3 * ci + 1)
            rate, mean_dur, drop_p, rand_p = sample_model_params(rng, base_rtt)

            # the experiment stream: episodes, then both probe runs
            rng = use(words, 3 * ci + 2)
            starts, durations = sample_episodes_fast(rng, rate, mean_dur, horizon)
            started_at = CAMPAIGN_SPAN_SECONDS * ((k + 0.5) / n_paths_total)
            hook = None
            if masked:
                hook = partial(plan.apply_probe_faults,
                               started_at=started_at, index=k)
            c_small = run_one(0, rng, starts, durations, drop_p, rand_p, hook)

            # When the 48 B run already fails the min-losses bar the pair
            # is rejected whatever the 400 B run counts, and since the
            # shard-exp stream is single-use, its draws can be skipped
            # outright — the common case at short probe durations.  Not
            # under a plan that masks or skews: it counts its injections
            # on both runs, kept or not.
            if c_small >= MIN_LOSSES or masked or skewed:
                run_one(1, rng, starts, durations, drop_p, rand_p, hook)
                valid = kernel.validate()
            else:
                valid = False
            if skewed:
                small_t = plan.skew_times(kernel.loss_times(0))
                large_t = plan.skew_times(kernel.loss_times(1))
            elif valid:
                small_t, large_t = kernel.loss_times(0), kernel.loss_times(1)
            if valid:
                n_valid += 1
                rtt_now = _rtt_at(base_rtt, amplitude, phase, started_at)
                fold(intervals_from_trace(small_t, rtt_now))
                fold(intervals_from_trace(large_t, rtt_now))
            else:
                n_rejected += 1
            done += 1
            if heartbeat is not None:
                heartbeat(done)

    return ShardResult(
        spec=spec,
        histogram=hist,
        n_experiments=spec.n_paths,
        n_valid=n_valid,
        n_rejected=n_rejected,
        injected=injected_since(plan, injected_before),
    )

# The e2e ledger's tracer (benchmarks/e2e/tracing.py) wraps this name.
run_shard_fast = run_shard
