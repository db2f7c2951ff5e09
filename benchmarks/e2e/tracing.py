"""Per-layer tracing, installed from the harness around each layer's
public entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` holds one
table of ``(layer, class or module, public name)`` entry points
(:data:`ENTRY_POINTS`), replaces each with a timing wrapper at class /
module level *before* the scenario is built (hot paths cache bound
methods, so instance-level patching would be too late) and puts the
originals back afterwards.

Every wrapper is one span: it pushes an accumulator on the span stack,
times the call, and on return charges its own duration to the parent
span.  A span's **self time** is its duration minus the time its child
spans covered, so the per-layer numbers add up to the traced wall-clock
instead of overlapping.  Hot entry points (millions of calls) are
aggregated on the fly to ``[calls, total_s, self_s]``; coarse ones
(drivers, ``Simulator.run``, ``run_shard`` ...) additionally keep their
raw ``(name, start, end, parent, pid)`` records.  Everything stays in
memory until the run ends.

Callbacks the engine dispatches are not public entry points, so they are
attributed through the engine's own profiling hook: ``Simulator.run`` is
wrapped to enter the public ``Simulator.profile()`` context, and
``EventLoopProfile.record_event`` (called once per executed callback with
its duration) is wrapped to subtract the child spans that ran inside the
callback and to bucket the remainder by the module that defines the
callback.  A callback whose module maps to no layer is *unattributed*.

Both fan-out pools fork, so workers inherit the wrappers.  A worker
resets the inherited aggregates when its first coarse span opens and
writes its own aggregates to ``worker-<pid>.json`` whenever its outermost
span returns; the parent folds those files in (:meth:`Tracer.collect`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple, Optional

__all__ = ["ENTRY_POINTS", "LAYER_PREFIXES", "Entry", "Tracer", "layer_of"]

#: Module prefix -> layer, longest prefix wins.  Layer names are module
#: names; modules that only exist to serve one layer fold into it.
LAYER_PREFIXES = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.link", "sim.link"),
    ("repro.sim.reorder", "sim.link"),
    ("repro.emulation.dummynet", "sim.link"),
    ("repro.sim.queues", "sim.queues"),
    ("repro.extensions.ecn", "sim.queues"),
    ("repro.sim.node", "sim.node"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.tcp.fluid_maps", "sim.fluid"),
    ("repro.tcp", "tcp"),
    ("repro.core", "core"),
    ("repro.obs", "obs"),
    ("repro.experiments.parallel", "experiments.parallel"),
    ("repro.faults.resilient", "experiments.parallel"),
    ("repro.experiments", "experiments"),
    ("repro.apps", "experiments"),
    ("repro.internet.analytic", "internet.analytic"),
    ("repro.internet.shards", "internet.shards"),
    ("repro.internet.supervisor", "internet.supervisor"),
    ("repro.faults.checkpoint", "internet.supervisor"),
)

UNATTRIBUTED = "unattributed"


def layer_of(module: Optional[str]) -> str:
    """The layer owning ``module`` (:data:`UNATTRIBUTED` when none does)."""
    best, layer = -1, UNATTRIBUTED
    for prefix, name in LAYER_PREFIXES:
        if module and (module == prefix or module.startswith(prefix + ".")):
            if len(prefix) > best:
                best, layer = len(prefix), name
    return layer


class Entry(NamedTuple):
    """One wrapped entry point.

    ``target`` is ``module:function``, ``module:Class.method`` (the method
    is also wrapped on every loaded subclass that overrides it) or
    ``package.*`` (every public function of every module of the package).
    ``coarse`` entries keep raw span records and may carry ``measure``, a
    function of the call's result returning ``{count name: amount}``.
    """

    layer: str
    target: str
    coarse: bool = False
    measure: Optional[Callable[[object], dict]] = None


def _supervisor_counts(result) -> dict:
    attempts = [int(f.get("attempts", 1)) for f in result.fates.values()]
    spawned = sum(attempts) if result.meta.get("workers") else 0
    return {"spawns": spawned, "retries": sum(a - 1 for a in attempts)}


_RUN_FLUID = Entry("sim.fluid", "repro.sim.fluid:run_fluid",
                   coarse=True, measure=lambda res: {"steps": res.steps})

#: The entry-point table.  ``Simulator.schedule`` is absent on purpose: it
#: delegates to ``schedule_at``, which counts every slotted event once.
#: ``TcpSender.try_send`` likewise: all its callers are inside ``tcp``, so
#: a span there would add overhead and move no time between layers.
ENTRY_POINTS = (
    Entry("sim.engine", "repro.sim.engine:Simulator.schedule_fast"),
    Entry("sim.engine", "repro.sim.engine:Simulator.schedule_at"),
    Entry("sim.engine", "repro.sim.engine:Simulator.schedule_every"),
    Entry("sim.engine", "repro.sim.engine:Event.cancel"),
    Entry("sim.link", "repro.sim.link:Link.send"),
    Entry("sim.queues", "repro.sim.queues:Queue.push"),
    Entry("sim.queues", "repro.sim.queues:Queue.pop"),
    Entry("sim.node", "repro.sim.node:Node.receive"),
    Entry("sim.node", "repro.sim.node:Host.send"),
    Entry("tcp", "repro.tcp.base:TcpSender.receive"),
    Entry("tcp", "repro.tcp.sink:TcpSink.receive"),
    Entry("tcp", "repro.tcp.sink:UdpSink.receive"),
    Entry("sim.trace", "repro.sim.trace:DropTrace.record"),
    Entry("sim.trace", "repro.sim.trace:ThroughputTrace.record"),
    Entry("core", "repro.core.*"),
    Entry("experiments", "repro.experiments.fig8_parallel:run_fig8_cell", coarse=True),
    Entry("experiments", "repro.experiments.zoo_grid:run_zoo_cell", coarse=True),
    Entry("experiments.parallel", "repro.experiments.parallel:parallel_map",
          coarse=True, measure=lambda res: {"items": len(res)}),
    Entry("internet.analytic", "repro.internet.analytic:run_shard_fast",
          coarse=True, measure=lambda res: {"paths": res.n_experiments}),
    Entry("internet.shards", "repro.internet.shards:run_shard", coarse=True),
    Entry("internet.shards", "repro.internet.shards:reduce_shards", coarse=True),
    Entry("internet.shards", "repro.internet.shards:GapHistogram.fold"),
    Entry("internet.shards", "repro.internet.shards:GapHistogram.merge"),
    Entry("internet.supervisor", "repro.internet.supervisor:CampaignSupervisor.run",
          coarse=True, measure=_supervisor_counts),
    Entry("internet.supervisor", "repro.faults.checkpoint:Checkpoint.append",
          coarse=True),
    _RUN_FLUID,
    Entry("obs", "repro.obs.runtime:observe_run", coarse=True),
    Entry("obs", "repro.obs.runtime:RunObservation.finalize", coarse=True),
    Entry("obs", "repro.obs.telemetry:FlightRecorder.sample", coarse=True),
    Entry("obs", "repro.obs.invariants:InvariantChecker.check_all", coarse=True),
)

#: Raw span records kept per process; beyond it spans are only aggregated.
MAX_RAW_SPANS = 5000


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _subclasses(cls) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Installs the wrappers, aggregates spans, folds worker output in.

    With ``callbacks=False`` only ``Simulator.run`` and ``run_fluid`` are
    wrapped, without entering ``profile()``: the count-only mode the
    harness uses on its untimed warm-up repetition to read the exact
    amount of work (events, fluid steps) a repetition does.
    """

    def __init__(self, flush_dir: Path, callbacks: bool = True):
        self.flush_dir = Path(flush_dir)
        self.callbacks = callbacks
        self.pid = os.getpid()
        self.in_worker = False
        self.stack: list[float] = []
        self.open: list[int] = []  # indices into self.spans of open coarse spans
        self.stats: dict[str, list] = {}  # "layer:name" -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent index, pid]
        self.cb: dict = {}  # callback function -> [calls, own_s, inclusive_s]
        self.queues: list = []  # every Queue built while installed
        self.profile_depth = 0
        self._last_child = 0.0
        self._hook_stat: list = [0, 0.0, 0.0]
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point (once: a second install would wrap the
        wrappers)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.obs.profiling import EventLoopProfile
        from repro.sim.engine import Simulator

        self._set(Simulator, "run", self._wrap_run(Simulator.__dict__["run"]))
        if not self.callbacks:
            self._install_entry(_RUN_FLUID)
            return
        self._set(Simulator, "profile",
                  self._wrap_profile(Simulator.__dict__["profile"]))
        self._set(EventLoopProfile, "record_event",
                  self._wrap_record_event(EventLoopProfile.__dict__["record_event"]))
        for entry in ENTRY_POINTS:
            self._install_entry(entry)
        # Two entry points the class-level table cannot reach.  DropTrace
        # binds ``record`` per instance (a closure shadowing the class
        # method), so the instance attribute is wrapped after ``__init__``;
        # queues are remembered so their own drop counters can be read.
        from repro.sim.queues import Queue
        from repro.sim.trace import DropTrace

        record_stat = self._stat("sim.trace:DropTrace.record")

        def rebind_record(trace) -> None:
            if "record" in trace.__dict__:
                trace.record = self._hot(trace.record, record_stat)

        self._after_init(DropTrace, rebind_record)
        self._after_init(Queue, self.queues.append)

    def restore(self) -> None:
        """Put every original attribute back (reverse order)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def patched_attributes(self) -> list[tuple]:
        """``(owner, attribute)`` pairs currently replaced (for self-tests)."""
        return [(owner, name) for owner, name, _ in self._patched]

    def _set(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _after_init(self, cls, hook: Callable[[object], None]) -> None:
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            hook(obj)

        self._set(cls, "__init__", __init__)

    def _stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _install_entry(self, entry: Entry) -> None:
        if entry.target.endswith(".*"):
            package = importlib.import_module(entry.target[:-2])
            for info in pkgutil.iter_modules(package.__path__):
                module = importlib.import_module(f"{package.__name__}.{info.name}")
                for name in getattr(module, "__all__", ()):
                    fn = getattr(module, name, None)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        self._install_function(entry, fn, f"{info.name}.{name}")
            return
        module_name, _, qualname = entry.target.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            self._install_function(entry, getattr(module, qualname), qualname)
            return
        class_name, _, method = qualname.partition(".")
        base = getattr(module, class_name)
        stat = self._stat(f"{entry.layer}:{qualname}")
        for cls in (base, *_subclasses(base)):
            original = cls.__dict__.get(method)
            if inspect.isfunction(original):
                self._set(cls, method, self._wrap(entry, original, stat, qualname))

    def _install_function(self, entry: Entry, fn, label: str) -> None:
        # ``from module import fn`` copies the reference, so the wrapper has
        # to replace it in every loaded module that holds one.
        stat = self._stat(f"{entry.layer}:{label}")
        wrapper = self._wrap(entry, fn, stat, label)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, name, wrapper)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, entry: Entry, original, stat: list, label: str):
        if entry.coarse:
            return self._coarse(original, stat, f"{entry.layer}:{label}", entry.measure)
        return self._hot(original, stat)

    def _hot(self, original, stat: list):
        stack = self.stack
        clock = perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def _coarse(self, original, stat: list, name: str, measure=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, stat):
                result = original(*args, **kwargs)
            if measure is not None:
                for key, amount in measure(result).items():
                    self.counts[key] = self.counts.get(key, 0) + int(amount)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, stat: Optional[list] = None) -> Iterator[None]:
        """One coarse span; the harness opens the root span with this."""
        if os.getpid() != self.pid:
            self._become_worker()
        if stat is None:
            stat = self._stat(name)
        record = None
        if len(self.spans) < MAX_RAW_SPANS:
            record = [name, 0.0, 0.0, self.open[-1] if self.open else -1, self.pid]
            self.open.append(len(self.spans))
            self.spans.append(record)
        self.stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - self.stack.pop()
            if self.stack:
                self.stack[-1] += dt
            if record is not None:
                record[1], record[2] = t0, t1
                self.open.pop()
            if self.in_worker and not self.stack:
                self._flush_worker()

    def _wrap_run(self, original):
        tracer = self
        stat = self._stat("sim.engine:Simulator.run")
        obs_hook = self._stat("obs:EventLoopProfile.record_event")
        trace_hook = self._stat("trace:EventLoopProfile.record_event")

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            with tracer.span("sim.engine:Simulator.run", stat):
                tracer._last_child = 0.0
                if tracer.callbacks and tracer.profile_depth == 0:
                    # Nobody is profiling this run yet (the obs layer does
                    # when armed): enter the public context so the engine
                    # reports each dispatched callback to record_event.
                    # The hook's own cost is then tracing overhead, not obs.
                    tracer._hook_stat = trace_hook
                    with sim.profile():
                        original(sim, *args, **kwargs)
                else:
                    tracer._hook_stat = obs_hook
                    original(sim, *args, **kwargs)
            executed = sim.events_processed - before
            tracer.counts["events"] = tracer.counts.get("events", 0) + executed

        return run

    def _wrap_profile(self, original):
        tracer = self

        @contextlib.contextmanager
        @functools.wraps(original.__wrapped__)
        def profile(sim):
            tracer.profile_depth += 1
            try:
                with original(sim) as prof:
                    yield prof
            finally:
                tracer.profile_depth -= 1

        return profile

    def _wrap_record_event(self, original):
        tracer = self
        stack = self.stack
        callbacks = self.cb

        clock = perf_counter
        bookkeeping = self._stat("trace:record_event bookkeeping")

        @functools.wraps(original)
        def record_event(profile, fn, duration, heap_size):
            t0 = clock()
            original(profile, fn, duration, heap_size)
            t1 = clock()
            hook = tracer._hook_stat  # obs when obs armed the profile, else trace
            hook[0] += 1
            hook[1] += t1 - t0
            hook[2] += t1 - t0
            key = getattr(fn, "__func__", fn)
            stat = callbacks.get(key)
            if stat is None:
                stat = callbacks[key] = [0, 0.0, 0.0]
            # The top of the stack is the Simulator.run span; what it gained
            # since the previous callback is the child spans this callback
            # opened.  The remainder is the callback's own time, which is
            # then charged to the run span as a child as well (with the
            # hook's and this wrapper's), leaving the run span's self time
            # to the dispatch loop alone.
            own = duration - (stack[-1] - tracer._last_child)
            stat[0] += 1
            stat[1] += own
            stat[2] += duration
            t2 = clock()
            bookkeeping[0] += 1
            bookkeeping[1] += t2 - t1
            bookkeeping[2] += t2 - t1
            stack[-1] += own + (t2 - t0)
            tracer._last_child = stack[-1]

        return record_event

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        # In place: the wrappers hold references to these very objects.
        del self.stack[:]
        del self.open[:]
        del self.spans[:]
        del self.queues[:]
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.cb.clear()
        self.profile_depth = 0
        self._last_child = 0.0

    def _become_worker(self) -> None:
        self._reset()
        self.pid = os.getpid()
        self.in_worker = True

    def _flush_worker(self) -> None:
        path = self.flush_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def _callback_rows(self) -> list:
        rows = []
        for fn, (calls, own, inclusive) in self.cb.items():
            target = getattr(fn, "func", fn)  # functools.partial
            module = getattr(target, "__module__", None)
            name = getattr(target, "__qualname__", type(target).__name__)
            rows.append([module or "", name, calls, own, inclusive])
        return rows

    def snapshot(self) -> dict:
        """This process's aggregates as plain JSON-able data."""
        return {
            "pid": self.pid,
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": {**self.counts,
                       "queue_drops": sum(q.dropped_total for q in self.queues)},
            "callbacks": self._callback_rows(),
            "spans": [list(s) for s in self.spans],
        }

    def collect(self) -> dict:
        """Fold this process's aggregates and every worker file into one
        record, then reset for the next repetition."""
        merged = self.snapshot()
        workers = []
        for path in sorted(self.flush_dir.glob("worker-*.json")):
            workers.append(json.loads(path.read_text()))
            path.unlink()
        for snap in workers:
            for key, (calls, total, own) in snap["stats"].items():
                stat = merged["stats"].setdefault(key, [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += own
            for key, amount in snap["counts"].items():
                merged["counts"][key] = merged["counts"].get(key, 0) + amount
            merged["callbacks"].extend(snap["callbacks"])
            merged["spans"].extend(snap["spans"])
        merged["workers"] = len(workers)
        self._reset()
        return merged
