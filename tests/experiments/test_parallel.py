"""Tests for process-parallel experiment execution."""

import os
import signal
import time

import pytest

from repro.experiments import Scale
from repro.experiments.parallel import (
    Result,
    WorkerDied,
    default_workers,
    fan_out,
    parallel_map,
    report_progress,
)
from repro.faults import RetryPolicy


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


def sigkill_on_two(x):
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def die_on_even(x):
    if x % 2 == 0:
        os._exit(1)
    return x * x


def pid_of(_):
    return os.getpid()


def always_value_error(_):
    raise ValueError("always")


def sleep_on_one(x):
    if x == 1:
        time.sleep(60.0)
    return x


class NeedsTwoArgs(Exception):
    """Pickles, but cannot be unpickled: ``args`` holds one of the two."""

    def __init__(self, a, b):
        super().__init__(a)


def raise_needs_two(x):
    raise NeedsTwoArgs(x, "lost")


def report_three_steps(x):
    for step in range(3):
        report_progress((x, step))
    return x


def report_then_die_on_one(x):
    if x == 1:
        report_progress("last words")
        os._exit(1)
    return x


def unreadable_progress_on_zero(x):
    if x == 0:
        report_progress(NeedsTwoArgs(x, "lost"))
        time.sleep(0.2)
    return x * 10


def die_first_attempt_on_thirds(x, attempt):
    if x % 3 == 0 and attempt == 1:
        os._exit(1)
    return x * x


@pytest.fixture(autouse=True)
def deadline():
    """Fail, instead of hanging the suite, if a run stops waking up."""
    def expire(signum, frame):
        raise TimeoutError("the run did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def run_fan_out(fn, items, workers, policy=RetryPolicy(retries=0), **hooks):
    """``fan_out``'s final results, in item order."""
    got = {}
    fan_out(fn, items, workers, policy, lambda res: got.__setitem__(res.index, res),
            **hooks)
    return [got[i] for i in range(len(items))]


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
    """A worker process that dies fails only the item it was running,
    with ``WorkerDied``; the runner forks a replacement for the rest."""

    @pytest.mark.parametrize("on_error", ["skip", "retry"])
    def test_dead_worker_fails_items_without_raising(self, on_error):
        out = parallel_map(die_on_two, [1, 2, 3, 4], workers=2, on_error=on_error)
        assert [r.index for r in out] == [0, 1, 2, 3]
        # skip: one attempt; retry: RetryPolicy()'s 1 try + 2 retries, each
        # in a fresh worker, and each dying again.
        attempts = 1 if on_error == "skip" else RetryPolicy().retries + 1
        assert not out[1].ok and out[1].attempts == attempts
        assert isinstance(out[1].error, WorkerDied)
        assert out[1].error_text == "WorkerDied: exit code 1"
        assert out[1].error.exitcode == 1
        assert [(r.ok, r.value, r.attempts) for r in out if r.index != 1] == [
            (True, 1, 1), (True, 9, 1), (True, 16, 1)]

    def test_raise_mode_reraises_the_worker_death(self):
        with pytest.raises(WorkerDied, match="exit code 1") as exc_info:
            parallel_map(die_on_two, [1, 2, 3, 4], workers=2)
        assert 1 not in exc_info.value.completed_indices
        assert set(exc_info.value.completed_indices) <= {0, 2, 3}

    def test_sigkilled_worker_names_the_signal(self):
        out = parallel_map(sigkill_on_two, [1, 2, 3], workers=2, on_error="skip")
        assert out[1].error_text == "WorkerDied: signal SIGKILL"
        assert out[1].error.exitcode == -signal.SIGKILL
        assert [r.value for r in out if r.ok] == [1, 9]

    def test_every_death_gets_a_replacement_worker(self):
        out = parallel_map(die_on_even, list(range(8)), workers=2, on_error="skip")
        assert [r.ok for r in out] == [False, True] * 4
        assert [r.value for r in out if r.ok] == [1, 9, 25, 49]

    def test_deaths_under_load_all_recover(self):
        """More workers than cores, a third of the items killing their
        worker once: every item still lands, in order, on its retry."""
        out = parallel_map(die_first_attempt_on_thirds, list(range(30)), workers=4,
                           on_error="retry", pass_attempt=True)
        assert [r.value for r in out] == [x * x for x in range(30)]
        assert [r.attempts for r in out] == [2 if x % 3 == 0 else 1 for x in range(30)]


class TestFanOut:
    """The runner itself: workers that outlive items, the one retry loop
    (in this process and in workers alike), and the supervisor's hooks."""

    def test_workers_stay_alive_across_items(self):
        out = parallel_map(pid_of, list(range(12)), workers=2)
        pids = {r.value for r in out}
        assert len(pids) <= 2 and os.getpid() not in pids

    @pytest.mark.parametrize("workers", [0, 2])
    def test_first_try_success(self, workers):
        got = run_fan_out(lambda x: x + 1, [10], workers)
        assert [(r.ok, r.value, r.attempts) for r in got] == [(True, 11, 1)]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retries_until_success(self, workers):
        def flaky(item, attempt):
            if attempt < 3:
                raise RuntimeError(f"transient {attempt}")
            return (item, attempt)

        got = run_fan_out(flaky, ["x"], workers,
                          RetryPolicy(retries=3, base=0.0), pass_attempt=True)
        assert got[0].ok and got[0].value == ("x", 3) and got[0].attempts == 3

    @pytest.mark.parametrize("workers", [0, 2])
    def test_exhausted_retries_return_error(self, workers):
        got = run_fan_out(always_value_error, [1], workers,
                          RetryPolicy(retries=2, base=0.0))
        assert not got[0].ok
        assert isinstance(got[0].error, ValueError)
        assert got[0].attempts == 3  # 1 initial + 2 retries

    @pytest.mark.parametrize("workers", [0, 2])
    def test_no_retries_means_single_attempt(self, workers):
        got = run_fan_out(always_value_error, [1, 2], workers, RetryPolicy(retries=0))
        assert [(r.ok, r.attempts) for r in got] == [(False, 1), (False, 1)]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_retry_waits_follow_the_policy(self, workers):
        seen = []
        pol = RetryPolicy(retries=2, base=0.05, factor=2.0, jitter=0.0)
        t0 = time.monotonic()
        got = run_fan_out(always_value_error, [1], workers, pol,
                          on_retry=lambda res, delay: seen.append((res.attempts, delay)))
        assert seen == [(1, pytest.approx(0.05)), (2, pytest.approx(0.1))]
        assert time.monotonic() - t0 >= 0.15
        assert got[0].attempts == 3

    def test_on_start_names_the_worker(self):
        starts = []
        got = run_fan_out(pid_of, [0, 1, 2], 2,
                          on_start=lambda i, a, pid: starts.append((i, a, pid)))
        assert sorted((i, a) for i, a, _ in starts) == [(0, 1), (1, 1), (2, 1)]
        assert {pid for _, _, pid in starts} == {r.value for r in got}

    def test_watch_reaps_a_stuck_item(self):
        seen = {}

        def watch(running):
            now = time.monotonic()
            reap = {i: TimeoutError("stuck") for i in running
                    if i == 1 and now - seen.setdefault(i, now) > 0.2}
            return reap, 0.05

        got = run_fan_out(sleep_on_one, [0, 1, 2], 2, watch=watch)
        assert [r.ok for r in got] == [True, False, True]
        assert got[1].error_text == "TimeoutError: stuck"
        assert [got[0].value, got[2].value] == [0, 2]

    def test_progress_reaches_watch_in_order(self):
        seen = {}

        def watch(running):
            for i, (attempt, progress) in running.items():
                got = seen.setdefault(i, [])
                if progress is not None and (not got or got[-1] != progress):
                    got.append(progress)
            return {}, None

        got = run_fan_out(report_three_steps, [0, 1, 2], 2, watch=watch)
        assert [r.value for r in got] == [0, 1, 2]
        assert seen == {i: [(i, 0), (i, 1), (i, 2)] for i in range(3)}
        # In-process there is no parent to report to: a no-op.
        assert [r.value for r in run_fan_out(report_three_steps, [5], 0)] == [5]

    def test_death_right_after_progress_is_worker_died(self):
        seen = []

        def watch(running):
            seen.extend(p for _, p in running.values() if p is not None)
            return {}, None

        got = run_fan_out(report_then_die_on_one, [0, 1, 2], 2, watch=watch)
        assert [r.ok for r in got] == [True, False, True]
        assert isinstance(got[1].error, WorkerDied)
        assert got[1].error.exitcode == 1
        assert "last words" in seen

    def test_unreadable_progress_fails_only_its_item(self):
        got = run_fan_out(unreadable_progress_on_zero, [0, 1, 2, 3], 1,
                          watch=lambda running: ({}, None))
        assert isinstance(got[0].error, TypeError)
        assert [r.value for r in got[1:]] == [10, 20, 30]

    def test_unsendable_value_fails_only_its_item(self):
        got = run_fan_out(lambda x: (lambda: x) if x == 1 else x, [0, 1, 2], 2)
        assert [r.ok for r in got] == [True, False, True]
        assert "item 1: result could not be sent" in got[1].error_text

    def test_unreadable_error_fails_only_its_item(self):
        got = run_fan_out(raise_needs_two, [0], 2)
        assert isinstance(got[0].error, TypeError) and got[0].attempts == 1

    def test_finish_raising_stops_the_run(self):
        def finish(res):
            raise KeyError(res.index)

        with pytest.raises(KeyError):
            fan_out(sleep_on_one, [0, 1], 2, RetryPolicy(retries=0), finish)


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
