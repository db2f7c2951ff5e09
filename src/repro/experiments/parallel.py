"""Process-parallel, failure-resilient experiment execution.

The figure grids (Figure 8's 20 cells x 5 repetitions, the 300-experiment
campaign) are embarrassingly parallel: every cell builds its own simulator
from its own seed, so cells can run in separate processes with no shared
state and bit-identical results regardless of scheduling.

:func:`parallel_map` is the execution core.  Beyond order-preserving
process fan-out it provides what a lossy measurement harness needs
(paper §3.1: PlanetLab sites go down mid-campaign, probe runs die):

* one return shape — every item resolves to a :class:`~repro.faults.Result`
  carrying ``(ok, value, error, attempts)``, so callers degrade gracefully
  instead of discarding every completed cell;
* an ``on_error`` policy — ``"raise"`` (default: the first failure is
  re-raised, carrying a ``completed_indices`` attribute listing the items
  that *did* finish), ``"skip"`` (failures stay failed ``Result``s), or
  ``"retry"`` (:class:`~repro.faults.RetryPolicy` defaults: bounded
  retries with exponential backoff and deterministic jitter, then skip);
* one retry loop — :func:`~repro.faults.run_with_retry` runs each item,
  in the parent when serial and as the worker job in a pool, so an
  item's retries stay in the process that ran its first attempt.

Worker counts resolve explicitly (``workers=``), then from
:class:`repro.config.RunConfig`'s ``workers`` (``REPRO_WORKERS``, the
CLI's ``--workers`` flag), then serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Optional, Sequence

from repro.config import RunConfig
from repro.faults.resilient import (
    ON_ERROR_POLICIES,
    Result,
    RetryPolicy,
    run_with_retry,
)

__all__ = ["parallel_map", "default_workers", "Result"]


def default_workers() -> int:
    """The worker count to use when fanning out: ``REPRO_WORKERS`` when
    set (CI and users pin it there), else physical parallelism minus one,
    always >= 1."""
    workers = RunConfig.from_env().workers
    if workers is not None:
        return workers
    return max(1, (os.cpu_count() or 2) - 1)


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: Optional[int] = None,
    *,
    on_error: str = "raise",
    pass_attempt: bool = False,
    on_result: Optional[Callable[[Result], None]] = None,
    tracer=None,
    span_name: str = "item",
) -> list[Result]:
    """Order-preserving, failure-policied map over ``items``.

    ``fn`` and every item must be picklable (module-level functions and
    plain data).  ``workers=None`` falls back to ``$REPRO_WORKERS`` and
    then to serial execution — the results are identical either way
    because each work item carries its own seed.

    Returns one :class:`Result` per item, in item order, under every
    policy.  With ``on_error="raise"`` the first failure is re-raised
    instead, annotated with the ``completed_indices`` of items that
    already finished; ``"skip"`` and ``"retry"`` never raise.
    ``on_result`` (parent-side) is called with each item's final
    :class:`Result` as it completes — checkpoint writers hook in here.
    With ``pass_attempt`` the callable receives the 1-based attempt number
    as a second argument.

    A worker process that dies (``os._exit``, SIGKILL, OOM) breaks the
    pool: every item the pool had not finished — the dead worker's and
    all still queued — fails with ``BrokenProcessPool`` and is not
    retried.  Crash-tolerant fan-out is the campaign supervisor's job.

    ``tracer`` (a :class:`repro.obs.SpanTracer`, parent-side) records one
    retroactive ``span_name`` span per item as it completes, carrying the
    item's index, outcome, and attempt count — workers cannot reach the
    tracer, so item spans are logged here at the fan-in point.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    policy = RetryPolicy() if on_error == "retry" else RetryPolicy(retries=0)
    items = list(items)
    results: list[Result] = [None] * len(items)
    completed: list[int] = []

    def finish(res: Result) -> None:
        if tracer is not None:
            tracer.record_span(
                span_name, index=res.index, ok=res.ok, attempts=res.attempts
            )
        if on_result is not None:
            on_result(res)
        results[res.index] = res
        if res.ok:
            completed.append(res.index)
        elif on_error == "raise":
            res.error.completed_indices = sorted(completed)
            raise res.error

    if workers is None:
        workers = RunConfig.from_env().workers
    if workers is None or workers <= 1 or len(items) <= 1:
        for i, item in enumerate(items):
            finish(run_with_retry(fn, item, i, policy, pass_attempt))
        return results

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = {
            pool.submit(run_with_retry, fn, item, i, policy, pass_attempt): i
            for i, item in enumerate(items)
        }
        try:
            for f in as_completed(futures):
                exc = f.exception()
                finish(f.result() if exc is None
                       else Result(index=futures[f], ok=False, error=exc))
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return results
