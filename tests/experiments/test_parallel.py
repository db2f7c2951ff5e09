"""Tests for process-parallel experiment execution."""

import os

import pytest

from repro.experiments import Scale
from repro.experiments.parallel import Result, default_workers, parallel_map


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"worker failure on {x}")


def boom_on_two(x):
    if x == 2:
        raise RuntimeError("worker failure on 2")
    return x * x


def die_on_two(x):
    if x == 2:
        os._exit(1)  # the worker process dies: no exception, no result
    return x * x


def succeed_second_attempt(x, attempt):
    if attempt < 2:
        raise RuntimeError(f"transient failure on {x}")
    return x * x


def values(results):
    return [r.value for r in results]


class TestParallelMap:
    def test_serial_fallback_matches(self):
        items = list(range(20))
        assert values(parallel_map(square, items, workers=1)) == [x * x for x in items]
        assert values(parallel_map(square, items, workers=None)) == [x * x for x in items]

    def test_parallel_preserves_order(self):
        items = list(range(50))
        out = parallel_map(square, items, workers=2)
        assert values(out) == [x * x for x in items]

    def test_single_item_stays_serial(self):
        assert values(parallel_map(square, [7], workers=8)) == [49]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("on_error", ["raise", "skip", "retry"])
    def test_every_policy_returns_results(self, on_error, workers):
        """One return shape: a first-try ``Result`` per item, in item
        order, whatever the policy or the execution mode."""
        out = parallel_map(square, [1, 2, 3], workers=workers, on_error=on_error)
        assert all(isinstance(r, Result) for r in out)
        assert [(r.index, r.ok, r.value, r.attempts) for r in out] == [
            (0, True, 1, 1), (1, True, 4, 1), (2, True, 9, 1)]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2, 3], workers=2)

    def test_on_error_validated(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1], on_error="explode")

    def test_default_workers_positive(self):
        assert default_workers() >= 1


ENV_WORKERS = "REPRO_WORKERS"


class TestEnvWorkers:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert default_workers() == 3

    def test_env_reaches_parallel_map(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "2")
        items = list(range(12))
        assert values(parallel_map(square, items)) == [x * x for x in items]

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "zero")
        with pytest.raises(ValueError, match=ENV_WORKERS):
            default_workers()
        monkeypatch.setenv(ENV_WORKERS, "0")
        with pytest.raises(ValueError, match=ENV_WORKERS):
            default_workers()
        with pytest.raises(ValueError, match=ENV_WORKERS):
            parallel_map(square, [1, 2])

    def test_unset_env_means_cpu_based(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert default_workers() >= 1


class TestFaultsResilientModes:
    """on_error policies, retries, and completed-work reporting."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_mode_attaches_completed_indices(self, workers):
        with pytest.raises(RuntimeError) as exc_info:
            parallel_map(boom_on_two, [0, 1, 2, 3], workers=workers)
        done = exc_info.value.completed_indices
        assert 2 not in done
        assert set(done) <= {0, 1, 3}
        if workers == 1:
            assert done == [0, 1]  # serial order: everything before the failure

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skip_mode_returns_results(self, workers):
        out = parallel_map(boom_on_two, [1, 2, 3], workers=workers, on_error="skip")
        assert all(isinstance(r, Result) for r in out)
        assert [r.ok for r in out] == [True, False, True]
        assert out[0].value == 1 and out[2].value == 9
        assert "worker failure on 2" in out[1].error_text
        assert out[1].attempts == 1  # skip never retries

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_mode_recovers_transients(self, workers):
        out = parallel_map(
            succeed_second_attempt, [1, 2, 3], workers=workers,
            on_error="retry", pass_attempt=True,
        )
        assert [r.ok for r in out] == [True, True, True]
        assert values(out) == [1, 4, 9]
        assert all(r.attempts == 2 for r in out)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_mode_exhausts_to_failure(self, workers):
        out = parallel_map(boom, [5], workers=workers, on_error="retry")
        assert not out[0].ok
        assert out[0].attempts == 3  # RetryPolicy(): 1 try + 2 retries


class TestWorkerDeath:
    """A worker process that dies breaks the pool; the items it takes
    down are failed ``Result``s, never a raise under skip/retry."""

    @pytest.mark.parametrize("on_error", ["skip", "retry"])
    def test_dead_worker_fails_items_without_raising(self, on_error):
        out = parallel_map(die_on_two, [1, 2, 3, 4], workers=2, on_error=on_error)
        assert [r.index for r in out] == [0, 1, 2, 3]
        assert all(isinstance(r, Result) for r in out)
        assert not out[1].ok and out[1].attempts == 1
        assert "BrokenProcessPool" in out[1].error_text
        for r in out:  # the rest either finished or went down with the pool
            assert (r.ok and r.value == (r.index + 1) ** 2) or (
                "BrokenProcessPool" in r.error_text)

    def test_raise_mode_reraises_the_broken_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool) as exc_info:
            parallel_map(die_on_two, [1, 2, 3, 4], workers=2)
        assert 1 not in exc_info.value.completed_indices


TINY = Scale(
    name="fast", capacity_bps=10e6, n_tcp_flows=4, n_noise_flows=2, noise_load=0.1,
    measure_duration=5.0, fig7_capacity_bps=20e6, fig7_flows_per_class=2,
    fig7_duration=5.0, fig8_capacity_bps=10e6, fig8_total_bytes=1 * 2**20,
    fig8_flow_counts=(2,), fig8_rtts=(0.01, 0.05), fig8_repetitions=2,
    campaign_experiments=10, campaign_probe_duration=10.0,
)


class TestParallelFig8:
    def test_parallel_equals_serial(self):
        """Determinism across execution modes: every repetition carries
        its own seed, so process scheduling cannot change the numbers."""
        from repro.experiments import run_fig8

        serial = run_fig8(seed=3, scale=TINY, workers=1)
        parallel = run_fig8(seed=3, scale=TINY, workers=2)
        assert parallel.to_text() == serial.to_text()
        assert parallel.failures == serial.failures


class TestParallelMapReduce:
    def test_parallel_equals_serial(self):
        from repro.experiments.mapreduce_shuffle import run_mapreduce

        serial = run_mapreduce(seed=3, scale=TINY, n_seeds=2, workers=1)
        parallel = run_mapreduce(seed=3, scale=TINY, n_seeds=2, workers=2)
        assert parallel.to_text() == serial.to_text()
        assert parallel.failures == serial.failures
