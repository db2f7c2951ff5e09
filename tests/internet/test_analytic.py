"""The analytic kernel must be bit-identical to the references it replaced.

Three layers of equivalence, each pinned exactly (no tolerances):

* ``FastStreams`` vs ``RngStreams``/``SeedSequence`` — the reimplemented
  SeedSequence pool hash and PCG64 seeding, fuzzed over seeds and names;
* ``ProbeKernel``/``run_shard``/``_experiment_worker`` vs ``run_probe``
  and the per-path object loops built from it, which since PR 23 live
  only in ``tests/internet/probe_oracle.py`` — fault plan armed or not;
* the analytic probe vs the *event-driven* simulation: a CBR source
  through a ``LossyLink`` drops the same packets at the same timestamps.

The calibration constants are named once (``pathmodel.py``, ``probe.py``)
and imported by the kernel, so there is no copy to pin; what stays pinned
is that the kernel's draw chain consumes the stream like
``sample_path_loss_model``.  (PR 23 deleted ``test_validate_pair_defaults``
— it compared two copies of the thresholds, and there is one now — and
``test_knob_routes_run_shard`` with the environment knob it routed
by.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, ProbeCrashError
from repro.internet import analytic
from repro.internet.analytic import (
    ProbeKernel,
    run_experiment_fast,
    sample_episodes_fast,
    sample_model_params,
)
from repro.internet.pathmodel import PathLossModel, sample_path_loss_model
from repro.internet.paths import RttMatrix, synthesize_path
from repro.internet.probe import PROBE_SIZES, ProbeConfig, run_probe, validate_pair
from repro.internet.shards import CAMPAIGN_SPAN_SECONDS, plan_shards, run_shard
from repro.internet.sites import synthetic_sites
from repro.sim.rng import FastStreams, RngStreams
from tests.internet import matrix_paths
from tests.internet.probe_oracle import experiment_worker_objects, run_shard_objects


def _fresh_caches():
    analytic._MESH_CACHE.clear()
    analytic._KERNEL_CACHE.clear()
    analytic._STREAMS_CACHE.clear()


# ----------------------------------------------------------------------
# FastStreams vs RngStreams / SeedSequence
# ----------------------------------------------------------------------
class TestFastStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2006, 2**31 - 1, 2**63 - 7])
    def test_scalar_stream_matches_rngstreams(self, seed):
        names = [f"loss/a{i}.example/b{i}.example" for i in range(5)]
        names += [f"shard-exp/{k}" for k in (0, 1, 649)]
        fast = FastStreams(seed)
        for name in names:
            want = RngStreams(seed).stream(name).random(7)
            got = fast.stream(name).random(7)
            assert want.tolist() == got.tolist()

    def test_fuzz_many_seeds_and_names(self):
        rng = np.random.default_rng(0)
        fails = 0
        for trial in range(60):
            seed = int(rng.integers(0, 2**63))
            name = f"s/{trial}/{int(rng.integers(0, 10_000))}"
            a = RngStreams(seed).stream(name)
            b = FastStreams(seed).stream(name)
            if a.random(3).tolist() != b.random(3).tolist():
                fails += 1
        assert fails == 0

    def test_batch_states_match_scalar_path(self):
        fs = FastStreams(2006)
        names = [f"rtt/x{i}/y{i}" for i in range(40)]
        words = fs.states_for(names)
        for j in (0, 7, 39):
            got = fs.use(words, j).random(4).tolist()
            want = RngStreams(2006).stream(names[j]).random(4).tolist()
            assert got == want

    def test_vectorized_pcg64_seeding_matches_scalar(self):
        """states128_for/use128 (uint64 limb arithmetic) must agree with
        the scalar 128-bit Python-int seeding for every column."""
        rng = np.random.default_rng(3)
        for _ in range(8):
            seed = int(rng.integers(0, 2**63))
            fs = FastStreams(seed)
            names = [f"loss/h{i}/h{j}" for i in range(6) for j in range(4)]
            words = fs.states_for(names)
            limbs = fs.states128_for(names)
            for col in range(len(names)):
                want = fs.use(words, col).random(3).tolist()
                got = fs.use128(limbs, col).random(3).tolist()
                assert want == got

    def test_distribution_methods_match(self):
        """The reseeded generator must track every distribution the
        campaign draws from, not just raw doubles."""
        a = RngStreams(7).stream("loss/a/b")
        b = FastStreams(7).stream("loss/a/b")
        assert a.lognormal(mean=0.0, sigma=0.8) == b.lognormal(mean=0.0, sigma=0.8)
        assert a.uniform(0.6, 0.95) == b.uniform(0.6, 0.95)
        assert a.poisson(3.3) == b.poisson(3.3)
        assert a.exponential(0.01, size=5).tolist() == b.exponential(0.01, size=5).tolist()

    def test_seed_type_validation(self):
        with pytest.raises(TypeError):
            FastStreams("42")


# ----------------------------------------------------------------------
# The kernel's draw chain vs the model object's
# ----------------------------------------------------------------------
class TestInlinedConstants:
    def test_model_params_match_sample_path_loss_model(self):
        """The inlined draw chain must consume the stream exactly like
        sample_path_loss_model and produce the same model."""
        streams = RngStreams(11)
        sites = synthetic_sites(4)
        path = synthesize_path(streams, sites[0], sites[1])
        model = sample_path_loss_model(path, streams)

        fast = FastStreams(11)
        # consume the rtt stream identically first
        synthesize_path(RngStreams(11), sites[0], sites[1])
        rng = fast.stream(f"loss/{path.src.hostname}/{path.dst.hostname}")
        rate, mean_dur, drop_p, rand_p = sample_model_params(rng, path.base_rtt)
        assert model.episode_rate == rate
        assert model.episode_mean_duration == mean_dur
        assert model.episode_drop_prob == drop_p
        assert model.random_loss_prob == rand_p

    def test_sample_episodes_fast_matches_model(self):
        model = PathLossModel(
            rtt=0.05, episode_rate=0.4, episode_mean_duration=0.01,
            episode_drop_prob=0.8, random_loss_prob=1e-4,
        )
        for seed in (0, 3, 9):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            s1, d1 = model.sample_episodes(101.0, a)
            s2, d2 = sample_episodes_fast(b, 0.4, 0.01, 101.0)
            assert s1.tolist() == s2.tolist()
            assert d1.tolist() == d2.tolist()
            # and the generators are left at the same stream position
            assert a.random() == b.random()

    def test_sample_episodes_fast_empty_case_stream_position(self):
        """size-0 uniform/exponential draws consume no state, so the
        skip must leave the stream exactly where the legacy path does."""
        model = PathLossModel(
            rtt=0.05, episode_rate=1e-9, episode_mean_duration=0.01,
            episode_drop_prob=0.8, random_loss_prob=1e-4,
        )
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        s1, _ = model.sample_episodes(1.0, a)
        s2, _ = sample_episodes_fast(b, 1e-9, 0.01, 1.0)
        assert len(s1) == len(s2) == 0
        assert a.random() == b.random()


# ----------------------------------------------------------------------
# ProbeKernel vs run_probe
# ----------------------------------------------------------------------
def _probe_fixture(seed, cfg):
    streams = RngStreams(seed)
    sites = synthetic_sites(6)
    path = synthesize_path(streams, sites[0], sites[3])
    model = sample_path_loss_model(path, streams)
    horizon = cfg.duration * 1.01
    rng = streams.stream("exp/0")
    episodes = model.sample_episodes(horizon, rng)
    return path, model, rng, episodes


class TestProbeKernel:
    @pytest.mark.parametrize("cfg", [
        ProbeConfig(duration=1.0),
        ProbeConfig(duration=10.0),
        ProbeConfig(duration=2.0, jitter=0.0),
        ProbeConfig(duration=2.0, jitter=0.3),
        ProbeConfig(),
        ProbeConfig(duration=10.0, jitter=0.9),
        ProbeConfig(duration=10.0, jitter=0.99),
    ], ids=["d1", "d10", "nojitter", "bigjitter", "d300", "jitter0.9", "jitter0.99"])
    @pytest.mark.parametrize("seed", [0, 2006, 77])
    def test_pair_matches_run_probe(self, cfg, seed):
        path, model, rng, episodes = _probe_fixture(seed, cfg)
        small = run_probe(path, model, rng, cfg, packet_size=PROBE_SIZES[0],
                          episodes=episodes)
        large = run_probe(path, model, rng, cfg, packet_size=PROBE_SIZES[1],
                          episodes=episodes)

        _, _, rng2, episodes2 = _probe_fixture(seed, cfg)
        kernel = ProbeKernel(cfg)
        c_small, c_large = kernel.run_pair(
            rng2, episodes2, model.episode_drop_prob, model.random_loss_prob,
        )
        assert (c_small, c_large) == (small.n_lost, large.n_lost)
        assert kernel.loss_times(0).tolist() == small.loss_times.tolist()
        assert kernel.loss_times(1).tolist() == large.loss_times.tolist()
        assert kernel.validate() == validate_pair(small, large)

    def test_kernel_reuse_is_stateless_across_runs(self):
        """Buffer reuse must not leak one path's draws into the next."""
        cfg = ProbeConfig(duration=1.0)
        kernel = ProbeKernel(cfg)
        results = []
        for seed in (1, 2, 1):
            path, model, rng, episodes = _probe_fixture(seed, cfg)
            counts = kernel.run_pair(rng, episodes, model.episode_drop_prob,
                                     model.random_loss_prob)
            results.append((counts, kernel.loss_times(0).tolist()))
        assert results[0] == results[2]

        # A read taken after the *next* path went through the kernel is
        # that path's, never the one before it ...
        cfg = ProbeConfig(duration=30.0)
        kernel = ProbeKernel(cfg)
        want = {}
        for seed in (1, 2):
            path, model, rng, episodes = _probe_fixture(seed, cfg)
            kernel.run_pair(rng, episodes, model.episode_drop_prob,
                            model.random_loss_prob)
            _, _, rng, episodes = _probe_fixture(seed, cfg)
            run_probe(path, model, rng, cfg, episodes=episodes)
            want[seed] = run_probe(path, model, rng, cfg,
                                   episodes=episodes).loss_times.tolist()
        assert want[1] != want[2]
        assert kernel.loss_times(1).tolist() == want[2]
        # ... and when the next path stopped after its 48 B run (the
        # shard loop's early skip), the 400 B slot is refused, not stale.
        path, model, rng, (starts, durations) = _probe_fixture(3, cfg)
        kernel._run_one(0, rng, starts, durations, model.episode_drop_prob,
                        model.random_loss_prob)
        kernel.loss_times(0)
        with pytest.raises(RuntimeError, match="not evaluated"):
            kernel.loss_times(1)

    @pytest.mark.parametrize("jitter", [0.0, 0.05, 0.9])
    def test_run_pair_leaves_the_stream_where_run_probe_does(self, jitter):
        """The jump over the jitter draws lands exactly where drawing
        them would have — no leaning on "the stream is single-use"."""
        cfg = ProbeConfig(duration=2.0, jitter=jitter)
        path, model, rng, episodes = _probe_fixture(5, cfg)
        run_probe(path, model, rng, cfg, episodes=episodes)
        run_probe(path, model, rng, cfg, episodes=episodes)

        _, _, rng2, episodes2 = _probe_fixture(5, cfg)
        ProbeKernel(cfg).run_pair(rng2, episodes2, model.episode_drop_prob,
                                  model.random_loss_prob)
        assert rng2.random() == rng.random()
        assert rng2.bit_generator.state == rng.bit_generator.state

    def test_jump_keeps_a_buffered_32bit_half_draw(self):
        """``advance`` drops the generator's buffered uint32; drawing
        the doubles would not have."""
        cfg = ProbeConfig(duration=1.0)
        path, model, _, episodes = _probe_fixture(5, cfg)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        for rng in (a, b):
            rng.integers(0, 2**32, dtype=np.uint32)  # buffers the other half
        assert a.bit_generator.state["has_uint32"] == 1
        run_probe(path, model, a, cfg, episodes=episodes)
        ProbeKernel(cfg)._run_one(0, b, *episodes, model.episode_drop_prob,
                                  model.random_loss_prob)
        assert b.bit_generator.state == a.bit_generator.state

    def test_rejects_generators_it_cannot_jump(self):
        cfg = ProbeConfig(duration=1.0)
        rng = np.random.Generator(np.random.Philox(1))
        with pytest.raises(TypeError, match="PCG64"):
            ProbeKernel(cfg).run_pair(rng, (analytic._EMPTY, analytic._EMPTY),
                                      0.8, 1e-4)

    def test_loss_times_idempotent_and_order_independent(self):
        cfg = ProbeConfig(duration=30.0)
        path, model, rng, episodes = _probe_fixture(2006, cfg)
        kernel = ProbeKernel(cfg)
        kernel.run_pair(rng, episodes, model.episode_drop_prob,
                        model.random_loss_prob)
        position = rng.bit_generator.state
        first = [kernel.loss_times(0).tolist(), kernel.loss_times(1).tolist()]
        assert len(first[0]) > 0 and len(first[1]) > 0
        assert first[0] != first[1]
        for slot in (1, 0, 0, 1, 1):
            assert kernel.loss_times(slot).tolist() == first[slot]
        # reading never touches the caller's stream
        assert rng.bit_generator.state == position

    def test_resident_buffers_are_one_double_and_one_bool_per_probe(self):
        """The kernel keeps, per run, n loss uniforms and an n-byte mask
        — 2*(8n + n) bytes, where the 2n draw block made it 2*(16n + n)
        — next to the shared 8n base grid."""
        kernel = ProbeKernel(ProbeConfig())
        n = kernel.n
        assert n == 300_000

        def nbytes(value):
            if isinstance(value, np.ndarray):
                return (value if value.base is None else value.base).nbytes
            if isinstance(value, (list, tuple)):
                return sum(nbytes(v) for v in value)
            return 0

        per_attr = {k: nbytes(v) for k, v in vars(kernel).items()}
        base = per_attr.pop("base")
        assert base == 8 * n
        assert sum(per_attr.values()) == 2 * (8 * n + n)
        # and a full pair with timestamps read leaves nothing n-sized behind
        path, model, rng, episodes = _probe_fixture(0, kernel.cfg)
        kernel.run_pair(rng, episodes, model.episode_drop_prob,
                        model.random_loss_prob)
        kernel.loss_times(0), kernel.loss_times(1)
        assert sum(nbytes(v) for v in vars(kernel).values()) == 8 * n + 2 * 9 * n


# ----------------------------------------------------------------------
# Episode bounds on, just below and just above realized send times
# ----------------------------------------------------------------------
def _full_grid(cfg, rng):
    """The oracle: run_probe's fully realized send grid (consumes the
    jitter draws from ``rng``)."""
    times = np.arange(cfg.n_probes) * cfg.interval
    if cfg.jitter > 0:
        times = times + cfg.interval * cfg.jitter * (rng.random(cfg.n_probes) - 0.5)
        times = np.maximum.accumulate(np.maximum(times, 0.0))
    return times


def _nudge(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


#: where a bound is planted: ("probe", index fraction, ulps off its send
#: time) or ("free", fraction of the 1.01 * duration horizon)
_anchor = st.one_of(
    st.tuples(st.just("probe"),
              st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
              st.sampled_from([-1, 0, 1])),
    st.tuples(st.just("free"), st.floats(0.0, 1.0)),
)
#: an episode: a start anchor and an end — another anchor, a zero-length
#: window, a window running far past the horizon, or a repeat of the
#: previous episode's start
_episode = st.tuples(
    st.one_of(_anchor, st.just(("dup",))),
    st.one_of(_anchor, st.just(("zero",)), st.just(("far",))),
)


def _planted_episodes(spec, times, horizon):
    def place(anchor, previous):
        if anchor[0] == "dup":
            return previous
        if anchor[0] == "probe":
            i = min(int(anchor[1] * len(times)), len(times) - 1)
            return max(0.0, _nudge(times[i], anchor[2]))
        return anchor[1] * horizon

    starts, durations = [], []
    s = 0.5 * horizon  # what a leading "dup" repeats
    for start, end in spec:
        s = place(start, s)
        if end[0] == "zero":
            d = 0.0
        elif end[0] == "far":
            d = 10.0 * horizon
        else:
            # the guard test below checks s + d lands on the planted end
            d = max(0.0, place(end, s) - s)
        starts.append(s)
        durations.append(d)
    order = np.argsort(np.array(starts), kind="stable")
    return np.array(starts)[order], np.array(durations)[order]


class TestEpisodeBoundaries:
    """With ``drop_p = 1`` and ``rand_p = 0`` the loss mask *is* the
    inside-a-window mask, so one probe on the wrong side of one bound
    shows."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32),
        jitter=st.sampled_from([0.0, 0.05, 0.5, 0.9, 0.99]),
        n=st.integers(1, 80),
        spec=st.lists(_episode, min_size=1, max_size=6),
    )
    def test_mask_and_timestamps_match_lost_mask_on_the_full_grid(
            self, seed, jitter, n, spec):
        cfg = ProbeConfig(duration=n * 0.001, jitter=jitter)
        assert cfg.n_probes == n
        times = _full_grid(cfg, np.random.default_rng(seed))
        episodes = _planted_episodes(spec, times, cfg.duration * 1.01)
        model = PathLossModel(rtt=0.05, episode_rate=1.0,
                              episode_mean_duration=0.01,
                              episode_drop_prob=1.0, random_loss_prob=0.0)

        ref_rng = np.random.default_rng(seed)
        _full_grid(cfg, ref_rng)
        want = model.lost_mask(times, ref_rng, episodes=episodes)

        kernel = ProbeKernel(cfg)
        rng = np.random.default_rng(seed)
        count = kernel._run_one(0, rng, *episodes, 1.0, 0.0)
        assert kernel._lost[0].tolist() == want.tolist()
        assert count == int(want.sum())
        assert kernel.loss_times(0).tolist() == times[want].tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_the_fuzz_reaches_the_undecided_probe(self):
        """Guard on the strategy itself: a bound planted on a send time
        must land in the kernel's undecided branch, with ``s + d``
        reproducing the planted end exactly."""
        cfg = ProbeConfig(duration=0.05, jitter=0.5)
        times = _full_grid(cfg, np.random.default_rng(4))
        spec = [(("probe", 0.3, 0), ("probe", 0.6, 0))]
        starts, durations = _planted_episodes(spec, times, cfg.duration * 1.01)
        assert starts[0] == times[15] and starts[0] + durations[0] == times[30]
        kernel = ProbeKernel(cfg)
        seen = []
        realize = kernel._send_times
        kernel._send_times = lambda slot, idx: seen.append(idx.tolist()) or realize(slot, idx)
        kernel._run_one(0, np.random.default_rng(4), starts, durations, 1.0, 0.0)
        assert seen == [[15, 30]]
        assert np.flatnonzero(kernel._lost[0]).tolist() == list(range(15, 30))


# ----------------------------------------------------------------------
# Shard and campaign-worker equivalence (against tests/internet/probe_oracle.py)
# ----------------------------------------------------------------------
def _shard_image(res):
    h = res.histogram
    return (res.fingerprint(), res.n_experiments, res.n_valid, res.n_rejected,
            h.n, list(h.n_below), h._exact_sum, dict(res.injected))


def _started_at(spec, k):
    n = spec.n_sites
    return CAMPAIGN_SPAN_SECONDS * ((k + 0.5) / (n * (n - 1)))


def _campaign_jobs(cfg, plan_for=lambda starts: None, n=4):
    matrix = RttMatrix(RngStreams(2006))
    starts = [1000.0 * (i + 0.5) for i in range(n)]
    return [(2006, cfg, p, i, starts[i], plan_for(starts))
            for i, p in enumerate(matrix_paths(matrix)[:n])]


class TestShardEquivalence:
    @pytest.mark.parametrize("duration", [1.0, 10.0, 300.0])
    def test_run_shard_fast_matches_legacy(self, duration):
        _fresh_caches()
        cfg = ProbeConfig(duration=duration)
        spec = plan_shards(26, 6, seed=2006, n_paths=120)[2]
        legacy = run_shard_objects(spec, probe_config=cfg)
        assert _shard_image(run_shard(spec, probe_config=cfg)) == _shard_image(legacy)

    def test_campaign_worker_records_identical(self):
        from repro.internet.campaign import _experiment_worker

        _fresh_caches()
        jobs = _campaign_jobs(ProbeConfig(duration=3.0))
        fast = [_experiment_worker(j) for j in jobs]
        slow = [experiment_worker_objects(j) for j in jobs]
        assert fast == slow

    def test_run_experiment_fast_returns_real_probe_runs(self):
        _fresh_caches()
        matrix = RttMatrix(RngStreams(2006))
        path = matrix_paths(matrix)[0]
        small, large, valid = run_experiment_fast(
            2006, ProbeConfig(duration=2.0), path, 0, 500.0)
        assert small.packet_size == PROBE_SIZES[0]
        assert large.packet_size == PROBE_SIZES[1]
        assert small.n_sent == large.n_sent == 2000
        assert isinstance(valid, bool)
        assert small.rtt == path.rtt_at(500.0)


# ----------------------------------------------------------------------
# Fault plans are masks over the kernel
# ----------------------------------------------------------------------
def _seam_plan(starts, crash_index, span=30.0):
    """Two flaps, one spike and one probe crash
    laid over the experiments that start at ``starts`` and last ``span``
    seconds: an outage inside one experiment with the spike running over
    its tail and past it, and an outage that is already on when another
    experiment begins."""
    a, b = starts[1], starts[3]
    return (
        FaultPlan(5)
        .add_link_flap(a + span / 6, a + 0.4 * span)
        .add_link_flap(b - 10.0, b + span / 10)
        .add_loss_spike(a + span / 3, 0.8 * span, 0.05)
        .add_probe_crash(crash_index)
    )


_SEAM_CONFIGS = [
    ProbeConfig(duration=30.0),
    ProbeConfig(duration=30.0, jitter=0.0),
    ProbeConfig(duration=30.0, jitter=0.9),
    ProbeConfig(duration=30.0, interval=0.005),
]
_SEAM_IDS = ["d30", "nojitter", "jitter0.9", "interval0.005"]


class TestFaultSeam:
    """What flaps, spikes and crashes do to a shard and to a
    campaign record, against the object loops: the measurement *and* the
    plan's injection counts."""

    @pytest.mark.parametrize("cfg", _SEAM_CONFIGS, ids=_SEAM_IDS)
    def test_shard_under_flaps_spike_and_crash(self, cfg):
        _fresh_caches()
        spec = plan_shards(16, 8, seed=2006)[3]  # paths 90..119
        paths = range(spec.start, spec.stop)
        images = []
        for run in (run_shard_objects, run_shard):
            plan = _seam_plan([_started_at(spec, k) for k in paths],
                              crash_index=spec.start + 5)
            with pytest.raises(ProbeCrashError, match="attempt 1"):
                run(spec, probe_config=cfg, fault_plan=plan)
            # the retry's ``injected`` is its own: not the crash, and not
            # what the five paths before it counted on the first attempt
            res = run(spec, probe_config=cfg, fault_plan=plan, attempt=2)
            assert plan.injected["probe_crash"] == 1
            assert "probe_crash" not in res.injected
            images.append(_shard_image(res))
        want, got = images
        assert got == want
        injected = want[-1]
        assert set(injected) == {"outage_loss", "spike_loss"}
        assert 0 < want[2] < spec.n_paths  # pairs kept and pairs rejected

    @pytest.mark.parametrize("cfg", _SEAM_CONFIGS, ids=_SEAM_IDS)
    def test_campaign_record_under_flaps_spike_and_crash(self, cfg):
        from repro.internet.campaign import _experiment_worker

        _fresh_caches()
        records = []
        for worker in (experiment_worker_objects, _experiment_worker):
            jobs = _campaign_jobs(cfg, lambda starts: _seam_plan(starts, 2))
            with pytest.raises(ProbeCrashError, match="experiment 2, attempt 1"):
                worker(jobs[2])
            records.append([worker(j, attempt=2) for j in jobs])
        want, got = records
        assert got == want
        assert [sorted(r["injected"]) for r in want] == [
            [],
            ["outage_loss", "spike_loss"],
            [],
            ["outage_loss"],
        ]

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32),
        jitter=st.sampled_from([0.0, 0.05, 0.9]),
        flaps=st.lists(st.tuples(st.integers(0, 5), st.floats(-1.0, 1.0),
                                 st.floats(0.01, 1.5)), max_size=3),
        spikes=st.lists(st.tuples(st.integers(0, 5), st.floats(-1.0, 1.0),
                                  st.floats(0.01, 1.5), st.floats(0.01, 1.0)),
                        max_size=2),
    )
    def test_random_windows_match_the_object_loop(self, seed, jitter, flaps,
                                                  spikes):
        """Windows as (path, start, length), in probe durations, relative
        to that path's experiment: before it, across either end, inside."""
        _fresh_caches()
        cfg = ProbeConfig(duration=5.0, jitter=jitter)
        spec = plan_shards(8, 8, seed=seed % 1000, n_paths=48)[seed % 8]
        t0 = [_started_at(spec, k) for k in range(spec.start, spec.stop)]

        def plan():
            p = FaultPlan(seed)
            for path, start, length in flaps:
                down = max(0.0, t0[path] + start * cfg.duration)
                p.add_link_flap(down, down + length * cfg.duration)
            for path, start, length, prob in spikes:
                p.add_loss_spike(max(0.0, t0[path] + start * cfg.duration),
                                 length * cfg.duration, prob)
            return p

        want = run_shard_objects(spec, probe_config=cfg, fault_plan=plan())
        got = run_shard(spec, probe_config=cfg, fault_plan=plan())
        assert _shard_image(got) == _shard_image(want)


class TestWhatAPlanCosts:
    """A plan realizes a send grid only when it masks probes."""

    CFG = ProbeConfig(duration=30.0)

    @pytest.fixture
    def grid_reads(self, monkeypatch):
        """Lengths of every index array handed to ``_send_times``."""
        reads = []
        realize = ProbeKernel._send_times

        def spy(kernel, slot, idx):
            reads.append(len(idx))
            return realize(kernel, slot, idx)

        monkeypatch.setattr(ProbeKernel, "_send_times", spy)
        return reads

    def test_process_faults_only_plan_realizes_no_grid(self, grid_reads):
        _fresh_caches()
        spec = plan_shards(16, 4, seed=2006, n_paths=80)[1]
        clean = run_shard(spec, probe_config=self.CFG)
        clean_reads = list(grid_reads)
        del grid_reads[:]

        plan = FaultPlan.sample_shard_faults(7, n_shards=4,
                                             shard_paths=spec.n_paths)
        assert plan.worker_kills and plan.worker_hangs
        armed = run_shard(spec, probe_config=self.CFG, fault_plan=plan)
        assert armed.fingerprint() == clean.fingerprint()
        assert armed.injected == {}
        # the undecided episode bounds and the lost probes, nothing else
        assert grid_reads == clean_reads
        assert self.CFG.n_probes not in grid_reads

    def test_one_flap_realizes_the_grid_once_per_evaluated_run(self, grid_reads):
        _fresh_caches()
        spec = plan_shards(16, 4, seed=2006, n_paths=80)[1]
        plan = FaultPlan(1).add_link_flap(_started_at(spec, spec.start) + 1.0,
                                          _started_at(spec, spec.start) + 2.0)
        res = run_shard(spec, probe_config=self.CFG, fault_plan=plan)
        assert res.injected["outage_loss"] > 0
        # with a hook armed both runs of every path are evaluated
        assert grid_reads.count(self.CFG.n_probes) == 2 * spec.n_paths

    def test_near_unit_jitter_is_refused_by_name(self):
        cfg = ProbeConfig(jitter=1 - 1e-12)
        with pytest.raises(ValueError) as err:
            ProbeKernel(cfg)
        for part in ("interval=0.001", f"jitter={cfg.jitter!r}", "duration=300.0"):
            assert part in str(err.value)

    def test_callers_surface_the_refusal(self):
        from repro.internet.campaign import Campaign

        _fresh_caches()
        cfg = ProbeConfig(duration=1.0, jitter=1 - 1e-14)
        with pytest.raises(ValueError, match="not strictly monotone"):
            run_shard(plan_shards(8, 2)[0], probe_config=cfg)
        with pytest.raises(ValueError, match="not strictly monotone"):
            Campaign(probe_config=cfg).run(1)


# ----------------------------------------------------------------------
# Analytic vs event-driven simulation
# ----------------------------------------------------------------------
class TestAnalyticVsSimulated:
    def test_identical_loss_timestamps(self):
        """The same (seed, path): the analytic probe and a CBR source
        through a LossyLink must drop the same packets at the same
        femtosecond — the fig4-path end-to-end oracle.

        The event-driven side only matches because the CBR timer grid is
        anchored (t0 + k*interval): under the old drifting schedule the
        k-th send time accumulated k roundings and the masks diverged.
        """
        from repro.internet.simpath import LossyLink
        from repro.sim.engine import Simulator
        from repro.sim.node import Host
        from repro.tcp.cbr import CbrSource

        streams = RngStreams(2006)
        sites = synthetic_sites(6)
        path = synthesize_path(streams, sites[1], sites[4])
        model = sample_path_loss_model(path, streams)
        cfg = ProbeConfig(duration=30.0, jitter=0.0)
        horizon = cfg.duration * 1.01

        # analytic reference
        rng_a = streams.spawn("oracle").stream("exp/0")
        episodes = model.sample_episodes(horizon, rng_a)
        ref = run_probe(path, model, rng_a, cfg, packet_size=48,
                        episodes=episodes)

        # event-driven twin: same generator family, episodes drawn by the
        # LossyLink constructor, per-packet uniforms drawn at send time
        rng_s = streams.spawn("oracle").stream("exp/0")
        sim = Simulator()
        src = Host(sim, name="src")
        sink = Host(sim, name="sink")
        from repro.sim.trace import DropTrace
        trace = DropTrace("oracle")
        link = LossyLink(sim, sink, rate_bps=1e9, delay=0.0, model=model,
                         rng=rng_s, horizon=horizon, drop_trace=trace)
        src.uplink = link
        cbr = CbrSource(
            sim, src, flow_id=1, dst=sink.node_id,
            rate_bps=48 * 8.0 / cfg.interval, packet_size=48,
            duration=cfg.duration,
        )
        cbr.start(0.0)
        sim.run()

        assert cbr.next_seq == ref.n_sent
        assert len(trace.times) == ref.n_lost > 0
        assert trace.times.tolist() == ref.loss_times.tolist()

    def test_cbr_grid_matches_analytic_grid_exactly(self):
        """Anchored CBR send times == arange(n) * interval, bit for bit
        (the schedule_every-style drift regression at the source level)."""
        from repro.sim.engine import Simulator
        from repro.sim.node import Host
        from repro.sim.link import Link
        from repro.tcp.cbr import CbrSource

        sim = Simulator()
        src = Host(sim, name="src")
        sink = Host(sim, name="sink")
        src.uplink = Link(sim, sink, 1e9, 0.0)
        cbr = CbrSource(sim, src, flow_id=1, dst=sink.node_id,
                        rate_bps=48 * 8.0 / 0.001, packet_size=48,
                        duration=5.0)
        cbr.start(0.0)
        sim.run()
        want = (np.arange(5000) * 0.001).tolist()
        assert cbr.send_times == want
