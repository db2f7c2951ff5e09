"""Tests for process-parallel experiment execution."""

import os

import numpy as np
import pytest

from repro.experiments import Scale
from repro.experiments.parallel import (
    Result,
    RetryPolicy,
    default_workers,
    parallel_map,
)


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"worker failure on {x}")


def boom_on_two(x):
    if x == 2:
        raise RuntimeError("worker failure on 2")
    return x * x


def succeed_second_attempt(x, attempt):
    if attempt < 2:
        raise RuntimeError(f"transient failure on {x}")
    return x * x


def slow(x):
    import time

    time.sleep(2.0)
    return x


class TestParallelMap:
    def test_serial_fallback_matches(self):
        items = list(range(20))
        assert parallel_map(square, items, workers=1) == [x * x for x in items]
        assert parallel_map(square, items, workers=None) == [x * x for x in items]

    def test_parallel_preserves_order(self):
        items = list(range(50))
        out = parallel_map(square, items, workers=2)
        assert out == [x * x for x in items]

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [7], workers=8) == [49]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2, 3], workers=2)

    def test_chunksize_validated(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1, 2, 3], workers=2, chunksize=0)

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
        assert parallel_map(square, items) == [x * x for x in items]

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
            on_error="retry", retry=RetryPolicy(retries=2, base=0.0),
            pass_attempt=True,
        )
        assert [r.ok for r in out] == [True, True, True]
        assert [r.value for r in out] == [1, 4, 9]
        assert all(r.attempts == 2 for r in out)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_mode_exhausts_to_failure(self, workers):
        out = parallel_map(
            boom, [5], workers=workers,
            on_error="retry", retry=RetryPolicy(retries=1, base=0.0),
        )
        assert not out[0].ok
        assert out[0].attempts == 2

    def test_timeout_produces_item_timeout(self):
        out = parallel_map(
            slow, [1, 2], workers=2, on_error="skip", timeout=0.25,
        )
        assert all(not r.ok for r in out)
        assert all("ItemTimeoutError" in r.error_text for r in out)

    def test_timeout_validated(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1], timeout=0.0)


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
        assert set(serial.cells) == set(parallel.cells)
        for key in serial.cells:
            np.testing.assert_allclose(
                np.sort(serial.cells[key].samples),
                np.sort(parallel.cells[key].samples),
            )
