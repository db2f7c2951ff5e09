"""Process-parallel, failure-resilient experiment execution.

The figure grids (Figure 8's 20 cells x 5 repetitions, the 300-experiment
campaign) are embarrassingly parallel: every cell builds its own simulator
from its own seed, so cells can run in separate processes with no shared
state and bit-identical results regardless of scheduling.

:func:`parallel_map` is the execution core.  Beyond order-preserving
process fan-out it provides what a lossy measurement harness needs
(paper §3.1: PlanetLab sites go down mid-campaign, probe runs die):

* an ``on_error`` policy — ``"raise"`` (default, legacy behavior),
  ``"skip"`` (failed items become failed :class:`~repro.faults.Result`
  records), or ``"retry"`` (bounded retries with exponential backoff and
  deterministic jitter, then skip);
* a per-item ``timeout`` (workers>1: a stuck worker's item is abandoned
  and treated as failed/retried; serial runs cannot preempt and ignore it);
* per-item :class:`~repro.faults.Result` values carrying
  ``(ok, value, error, attempts)`` so callers degrade gracefully instead
  of discarding every completed cell;
* even in ``"raise"`` mode, the raised worker exception carries a
  ``completed_indices`` attribute listing the items that *did* finish, so
  callers can report progress instead of losing it silently.

Worker counts resolve explicitly (``workers=``), then from
:class:`repro.config.RunConfig`'s ``workers`` (``REPRO_WORKERS``, the
CLI's ``--workers`` flag), then serial.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.config import RunConfig
from repro.faults.resilient import (
    ON_ERROR_POLICIES,
    ItemTimeoutError,
    Result,
    RetryPolicy,
    run_with_retry,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "default_workers", "Result", "RetryPolicy"]


def default_workers() -> int:
    """The worker count to use when fanning out: ``REPRO_WORKERS`` when
    set (CI and users pin it there), else physical parallelism minus one,
    always >= 1."""
    workers = RunConfig.from_env().workers
    if workers is not None:
        return workers
    return max(1, (os.cpu_count() or 2) - 1)


def _invoke(fn, item, attempt, pass_attempt):
    """Picklable worker shim: optionally forwards the attempt number."""
    return fn(item, attempt) if pass_attempt else fn(item)


def parallel_map(
    fn: Callable[..., R],
    items: Sequence[T],
    workers: Optional[int] = None,
    chunksize: int = 1,
    *,
    on_error: str = "raise",
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    pass_attempt: bool = False,
    on_result: Optional[Callable[[Result], None]] = None,
    tracer=None,
    span_name: str = "item",
) -> Union[list[R], list[Result]]:
    """Order-preserving, failure-policied map over ``items``.

    ``fn`` and every item must be picklable (module-level functions and
    plain data).  ``workers=None`` falls back to ``$REPRO_WORKERS`` and
    then to serial execution — the results are identical either way
    because each work item carries its own seed.

    Returns raw values when ``on_error="raise"`` (legacy behavior: the
    first worker exception is re-raised, annotated with the
    ``completed_indices`` of items that already finished).  With
    ``on_error="skip"`` or ``"retry"`` every item resolves to a
    :class:`Result` and nothing raises.  ``on_result`` (parent-side) is
    called with each item's final :class:`Result` as it completes —
    checkpoint writers hook in here.  With ``pass_attempt`` the callable
    receives the 1-based attempt number as a second argument.

    ``tracer`` (a :class:`repro.obs.SpanTracer`, parent-side) records one
    retroactive ``span_name`` span per item as it completes, carrying the
    item's index, outcome, and attempt count — workers cannot reach the
    tracer, so item spans are logged here at the fan-in point.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    policy = retry if retry is not None else (
        RetryPolicy() if on_error == "retry" else RetryPolicy(retries=0)
    )
    if on_error != "retry":
        policy = RetryPolicy(
            retries=0, base=policy.base, factor=policy.factor,
            max_delay=policy.max_delay, jitter=policy.jitter,
        )
    if tracer is not None:
        user_on_result = on_result

        def on_result(res: Result, _user=user_on_result) -> None:
            tracer.record_span(
                span_name, index=res.index, ok=res.ok, attempts=res.attempts
            )
            if _user is not None:
                _user(res)

    items = list(items)
    if workers is None:
        workers = RunConfig.from_env().workers
    if workers is None or workers <= 1 or len(items) <= 1:
        return _serial_map(fn, items, on_error, policy, pass_attempt, on_result)
    return _pool_map(
        fn, items, min(workers, len(items)), on_error, policy, timeout,
        pass_attempt, on_result,
    )


def _finish(
    res: Result,
    results: list,
    completed: list[int],
    on_error: str,
    on_result: Optional[Callable[[Result], None]],
) -> None:
    """Record one item's final result; raises in ``"raise"`` mode."""
    if on_result is not None:
        on_result(res)
    if res.ok:
        completed.append(res.index)
        results[res.index] = res.value if on_error == "raise" else res
        return
    if on_error == "raise":
        err = res.error
        assert err is not None
        err.completed_indices = sorted(completed)
        raise err
    results[res.index] = res


def _serial_map(fn, items, on_error, policy, pass_attempt, on_result) -> list:
    results: list = [None] * len(items)
    completed: list[int] = []
    for i, item in enumerate(items):
        res = run_with_retry(
            fn, item, index=i, policy=policy, pass_attempt=pass_attempt,
        )
        _finish(res, results, completed, on_error, on_result)
    return results


def _pool_map(
    fn, items, n_workers, on_error, policy, timeout, pass_attempt, on_result
) -> list:
    results: list = [None] * len(items)
    completed: list[int] = []
    attempts = [0] * len(items)
    #: (ready_at_monotonic, index) retries waiting out their backoff.
    backlog: list[tuple[float, int]] = []
    running: dict[Future, int] = {}
    deadlines: dict[Future, float] = {}

    with ProcessPoolExecutor(max_workers=n_workers) as pool:

        def submit(index: int) -> None:
            attempts[index] += 1
            f = pool.submit(_invoke, fn, items[index], attempts[index], pass_attempt)
            running[f] = index
            if timeout is not None:
                deadlines[f] = time.monotonic() + timeout

        def settle(index: int, error: BaseException) -> None:
            """A failed attempt: schedule a retry or finalize the failure."""
            if attempts[index] <= policy.retries:
                ready = time.monotonic() + policy.delay(
                    attempts[index], key=str(index)
                )
                backlog.append((ready, index))
                return
            res = Result(
                index=index, ok=False, error=error, attempts=attempts[index]
            )
            try:
                _finish(res, results, completed, on_error, on_result)
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise

        for i in range(len(items)):
            submit(i)
        while running or backlog:
            now = time.monotonic()
            due = sorted(b for b in backlog if b[0] <= now)
            if due:
                backlog[:] = [b for b in backlog if b[0] > now]
                for _, index in due:
                    submit(index)
            if not running:
                # Only backed-off retries remain; sleep until the first.
                time.sleep(max(0.0, min(b[0] for b in backlog) - now))
                continue
            poll = 0.05 if (timeout is not None or backlog) else None
            done, _ = wait(list(running), timeout=poll, return_when=FIRST_COMPLETED)
            for f in done:
                index = running.pop(f)
                deadlines.pop(f, None)
                exc = f.exception()
                if exc is None:
                    _finish(
                        Result(index=index, ok=True, value=f.result(),
                               attempts=attempts[index]),
                        results, completed, on_error, on_result,
                    )
                else:
                    settle(index, exc)
            if timeout is not None:
                now = time.monotonic()
                for f, dl in list(deadlines.items()):
                    if dl <= now and f in running:
                        # Abandon the attempt: stop tracking the future (a
                        # running worker cannot be preempted; its eventual
                        # result is dropped) and fail/retry the item.
                        index = running.pop(f)
                        deadlines.pop(f, None)
                        f.cancel()
                        settle(index, ItemTimeoutError(
                            f"item {index} exceeded {timeout}s "
                            f"(attempt {attempts[index]})"
                        ))
    return results
