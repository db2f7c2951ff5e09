"""Process-parallel, crash-tolerant experiment execution.

The figure grids (Figure 8's 20 cells x 5 repetitions, the 300-experiment
campaign) and the sharded campaign are embarrassingly parallel: every
item builds its own simulator or probe streams from its own seed, so
items run in separate processes with bit-identical results regardless
of scheduling.

:func:`fan_out` is the one process runner — the only code in the package
that starts processes — and holds what a lossy measurement harness needs
(paper §3.1: PlanetLab sites go down mid-campaign, probe runs die):
forked workers that outlive items (a fork costs about one small
experiment), a worker death that fails only its own item
(:class:`WorkerDied`), the one :class:`~repro.faults.RetryPolicy` retry
loop, and completion by waiting on pipes and process sentinels rather
than polling.  :func:`parallel_map` is the figure drivers' interface to
it; the campaign supervisor (:mod:`repro.internet.supervisor`) adds
hang verdicts and its ledger through the runner's hooks, fed by the
progress its shards send over their workers' pipes
(:func:`report_progress`).

Worker counts resolve explicitly (``workers=``), then from
:class:`repro.config.RunConfig`'s ``workers`` (``REPRO_WORKERS``, the
CLI's ``--workers`` flag), then serial.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import signal
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Callable, Optional, Sequence

from repro.config import RunConfig
from repro.faults.resilient import ON_ERROR_POLICIES, Result, RetryPolicy

__all__ = [
    "parallel_map", "fan_out", "report_progress", "default_workers", "Result",
    "WorkerDied",
]


class WorkerDied(RuntimeError):
    """The worker process running an item ended without returning it;
    ``exitcode`` is its exit status (negative: the killing signal)."""

    exitcode: Optional[int] = None


def _death(exitcode: Optional[int]) -> WorkerDied:
    if exitcode is not None and exitcode < 0:
        try:
            what = f"signal {signal.Signals(-exitcode).name}"
        except ValueError:
            what = f"signal {-exitcode}"
    else:
        what = f"exit code {exitcode}"
    err = WorkerDied(what)
    err.exitcode = exitcode
    return err


def default_workers() -> int:
    """The worker count to use when fanning out: ``REPRO_WORKERS`` when
    set (CI and users pin it there), else physical parallelism minus one,
    always >= 1."""
    workers = RunConfig.from_env().workers
    if workers is not None:
        return workers
    return max(1, (os.cpu_count() or 2) - 1)


def _attempt(fn, item, attempt: int, pass_attempt: bool) -> tuple:
    """``(True, value)`` or ``(False, exception)`` of one attempt."""
    try:
        return True, (fn(item, attempt) if pass_attempt else fn(item))
    except Exception as exc:  # noqa: BLE001 - failure is data here
        return False, exc


#: This worker process's end of its pipe to the parent (set by
#: :func:`_worker_main`); ``None`` in any other process.
_parent_conn = None


def report_progress(value) -> None:
    """Send ``value`` to the parent as the running item's latest
    progress: :func:`fan_out` hands it to its ``watch`` hook.  Called
    from inside ``fn``; a no-op outside a worker process (``workers=0``).
    """
    if _parent_conn is not None:
        _parent_conn.send((None, value))


def _worker_main(conn, fn, items, pass_attempt: bool, inherited) -> None:
    """A forked worker: run ``(index, attempt)`` tasks until the parent
    closes its end of the pipe."""
    global _parent_conn
    _parent_conn = conn
    # The parent's end of every worker's pipe, this one's included: a
    # copy held here would hide the parent's exit (or another worker's
    # death) from the process at the other end.
    for c in inherited:
        c.close()
    while True:
        try:
            index, attempt = conn.recv()
        except EOFError:
            return
        outcome = _attempt(fn, items[index], attempt, pass_attempt)
        try:
            conn.send(outcome)
        except OSError:  # the parent is gone: nobody is waiting for it
            return
        except Exception as exc:  # noqa: BLE001 - an unpicklable value or error
            conn.send((False, RuntimeError(
                f"item {index}: result could not be sent: "
                f"{type(exc).__name__}: {exc}")))


class _Worker:
    __slots__ = ("process", "conn", "task", "progress")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: Optional[int] = None  # index of the item it is running
        self.progress = None  # the task's latest report_progress value


def fan_out(
    fn: Callable,
    items: Sequence,
    workers: int,
    policy: RetryPolicy,
    finish: Callable[[Result], None],
    *,
    pass_attempt: bool = False,
    key: Callable[[int], str] = str,
    on_start: Optional[Callable[[int, int, int], None]] = None,
    on_retry: Optional[Callable[[Result, float], None]] = None,
    watch: Optional[Callable[[dict], tuple]] = None,
) -> None:
    """Run ``fn`` over ``items``; each item's final :class:`Result` goes
    to ``finish`` as it completes.

    ``workers=0`` runs every attempt in this process; ``workers >= 1`` on
    up to that many forked workers, which inherit ``fn`` and ``items``
    (values and exceptions are pickled on the way back).  With
    ``pass_attempt``, ``fn`` also receives the 1-based attempt number —
    the hook fault plans use to crash a first attempt only.

    A failed attempt (an exception, or :class:`WorkerDied`) is retried
    under ``policy`` after ``policy.delay(attempt, key(index))`` on
    whichever worker is free, reported to ``on_retry(result, delay)``;
    out of retries, the failure goes to ``finish``.  An exception from
    ``finish`` aborts the run (busy workers are killed) and propagates.

    ``on_start(index, attempt, pid)`` precedes each hand-off to a worker.
    ``watch({index: (attempt, progress)})`` runs whenever the runner
    wakes with attempts in flight — ``progress`` is the latest value the
    attempt sent with :func:`report_progress`, ``None`` before its
    first — and returns ``(reap, wake_in)``: the indices whose workers to
    kill, each with the error its attempt fails with, and the longest
    wait (seconds, or ``None``) before the next call.
    """
    n = len(items)
    attempts = [0] * n
    queue = deque(range(n))
    cooling: list[tuple[float, int]] = []  # (ready_at, index) heap
    pool: list[_Worker] = []
    busy: dict[int, _Worker] = {}

    def outcome(index: int, ok: bool, value) -> None:
        if ok:
            finish(Result(index=index, ok=True, value=value, attempts=attempts[index]))
            return
        res = Result(index=index, ok=False, error=value, attempts=attempts[index])
        if attempts[index] > policy.retries:
            finish(res)
            return
        delay = policy.delay(attempts[index], key=key(index))
        if on_retry is not None:
            on_retry(res, delay)
        heapq.heappush(cooling, (time.monotonic() + delay, index))

    def retire(w: _Worker) -> Optional[int]:
        """Reap a dead (or killed) worker; the index it was running."""
        w.process.join()
        w.conn.close()
        pool.remove(w)
        index, w.task = w.task, None
        if index is not None:
            del busy[index]
        return index

    ctx = multiprocessing.get_context("fork") if workers else None

    def spawn() -> _Worker:
        parent_end, child_end = ctx.Pipe()
        inherited = [w.conn for w in pool] + [parent_end]
        process = ctx.Process(
            target=_worker_main,
            args=(child_end, fn, items, pass_attempt, inherited),
            daemon=True,
        )
        process.start()
        child_end.close()
        w = _Worker(process, parent_end)
        pool.append(w)
        return w

    try:
        while queue or cooling or busy:
            now = time.monotonic()
            while cooling and cooling[0][0] <= now:
                queue.append(heapq.heappop(cooling)[1])

            if not workers:
                if queue:
                    index = queue.popleft()
                    attempts[index] += 1
                    outcome(index, *_attempt(fn, items[index], attempts[index],
                                             pass_attempt))
                elif cooling:
                    time.sleep(cooling[0][0] - now)
                continue

            while queue and len(busy) < workers:
                w = next((w for w in pool if w.task is None), None) or spawn()
                index = queue.popleft()
                attempts[index] += 1
                if on_start is not None:
                    on_start(index, attempts[index], w.process.pid)
                w.task = index
                w.progress = None
                busy[index] = w
                try:
                    w.conn.send((index, attempts[index]))
                except OSError:  # it died while idle: its exit code says how
                    w.process.kill()
                    outcome(retire(w), False, _death(w.process.exitcode))

            wake_in = None
            if watch is not None and busy:
                reap, wake_in = watch(
                    {i: (attempts[i], w.progress) for i, w in busy.items()})
                for index, error in reap.items():
                    w = busy[index]
                    w.process.kill()
                    outcome(retire(w), False, error)
                if reap:
                    continue  # hand the freed workers their next items first
            timeout = cooling[0][0] - time.monotonic() if cooling else None
            if wake_in is not None:
                timeout = wake_in if timeout is None else min(timeout, wake_in)
            if timeout is not None:
                timeout = max(timeout, 0.0)

            ready = set(wait([w.conn for w in busy.values()]
                             + [w.process.sentinel for w in pool], timeout))
            for w in list(pool):
                if w.conn not in ready and w.process.sentinel not in ready:
                    continue
                if w.task is not None:
                    # A dead worker's pipe reads EOF after whatever it sent,
                    # so this recv never blocks.
                    try:
                        ok, value = w.conn.recv()
                    except (EOFError, OSError):
                        outcome(retire(w), False, _death(w.process.exitcode))
                        continue
                    except Exception as exc:  # noqa: BLE001 - could not unpickle
                        # A worker may still be running the item after a
                        # progress message: whatever it sends next would be
                        # taken for another item's, so it goes with this one.
                        w.process.kill()
                        outcome(retire(w), False, exc)
                        continue
                    if ok is None:  # report_progress: the item runs on
                        w.progress = value
                        continue
                    index, w.task = w.task, None
                    del busy[index]
                    outcome(index, ok, value)
                if w.task is None and w.process.sentinel in ready:
                    retire(w)  # died idle: nothing of ours was lost
    finally:
        for w in pool:
            if w.task is not None:
                w.process.kill()
            w.conn.close()  # an idle worker reads EOF and exits
        for w in pool:
            w.process.join()


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

    ``workers=None`` falls back to ``$REPRO_WORKERS`` and then to serial
    execution in this process — the results are identical either way
    because each work item carries its own seed.

    Returns one :class:`Result` per item, in item order, under every
    policy.  With ``on_error="raise"`` the first failure is re-raised
    instead, annotated with the ``completed_indices`` of items that
    already finished; ``"skip"`` and ``"retry"`` never raise.  A worker
    that dies fails only its own item, with :class:`WorkerDied`.
    ``on_result`` (parent-side) is called with each item's final
    :class:`Result` as it completes — checkpoint writers hook in here;
    ``pass_attempt`` is :func:`fan_out`'s.  ``tracer`` (a
    :class:`repro.obs.SpanTracer`, parent-side) records one retroactive
    ``span_name`` span per item, carrying its index, outcome and attempt
    count.
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
        workers = 0
    fan_out(fn, items, workers, policy, finish, pass_attempt=pass_attempt)
    return results
