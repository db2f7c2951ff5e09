"""Reproducible fault injection: the :class:`FaultPlan`.

A fault plan is a declarative schedule of failures to inject into a run —
link flaps, transient loss-rate spikes, probe-process crashes, and worker
kills and hangs.  Plans are either built explicitly
(``plan.add_probe_crash(3)``) or *sampled* from a seed
(:meth:`FaultPlan.sample_sim`, :meth:`FaultPlan.sample_campaign`), in
which case every fault site/time is drawn from named
:class:`~repro.sim.rng.RngStreams`, so the exact same faults replay from
the same seed — failure becomes a first-class, testable input rather than
an environmental accident.

Two execution legs consume plans:

* **Simulator leg** — :meth:`FaultPlan.arm_links` schedules link
  down/up events on a :class:`~repro.sim.engine.Simulator`; a downed
  link drops every packet offered to it (accounted separately so the
  conservation invariants still hold, see
  :func:`repro.obs.invariants.check_link`).
* **Campaign leg** — the probe kernel (:mod:`repro.internet.analytic`)
  calls :meth:`crash_check` / :meth:`apply_probe_faults` per path, so
  flaps become path outages on the campaign clock, spikes add transient
  loss, and crashes raise :class:`ProbeCrashError` mid-run (resolved by
  the retry policy).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.sim.rng import RngStreams, stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

__all__ = [
    "InjectedFault",
    "ProbeCrashError",
    "LinkFlap",
    "LossSpike",
    "ProbeCrash",
    "WorkerKill",
    "WorkerHang",
    "FaultPlan",
]


class InjectedFault(RuntimeError):
    """Base class for failures raised *on purpose* by a fault plan."""


class ProbeCrashError(InjectedFault):
    """An injected probe-process crash (a path experiment dying mid-run)."""


@dataclass(frozen=True)
class LinkFlap:
    """A link goes down at ``down_at`` and comes back at ``up_at``.

    ``link`` names the target link for the simulator leg (``None`` means
    every armed link).  On the campaign leg the window lives on the
    campaign clock and models a site/path outage: probes sent inside it
    are lost.
    """

    down_at: float
    up_at: float
    link: Optional[str] = None

    def __post_init__(self):
        if self.down_at < 0:
            raise ValueError(f"down_at must be non-negative, got {self.down_at}")
        if self.up_at <= self.down_at:
            raise ValueError(
                f"up_at ({self.up_at}) must be after down_at ({self.down_at})"
            )


@dataclass(frozen=True)
class LossSpike:
    """Transient extra loss: every packet in the window is additionally
    lost with probability ``extra_loss_prob`` (campaign clock)."""

    start: float
    duration: float
    extra_loss_prob: float

    def __post_init__(self):
        if self.start < 0 or self.duration <= 0:
            raise ValueError("spike window must be non-negative start, positive duration")
        if not (0.0 < self.extra_loss_prob <= 1.0):
            raise ValueError(
                f"extra_loss_prob must be in (0, 1], got {self.extra_loss_prob}"
            )


@dataclass(frozen=True)
class ProbeCrash:
    """Experiment ``index`` raises :class:`ProbeCrashError` on its first
    ``crashes`` attempts — a retry policy then resolves it."""

    index: int
    crashes: int = 1

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"index must be non-negative, got {self.index}")
        if self.crashes < 1:
            raise ValueError(f"crashes must be >= 1, got {self.crashes}")


@dataclass(frozen=True)
class WorkerKill:
    """Shard ``shard_id``'s worker SIGKILLs itself after ``after_paths``
    completed paths, on its first ``kills`` attempts — modelling an OOM
    kill or node loss mid-shard.  Only realized by process-isolated
    workers (:mod:`repro.internet.supervisor`); the supervising parent
    detects the dead process and reschedules the shard."""

    shard_id: int
    after_paths: int = 0
    kills: int = 1

    def __post_init__(self):
        if self.shard_id < 0 or self.after_paths < 0:
            raise ValueError("shard_id and after_paths must be non-negative")
        if self.kills < 1:
            raise ValueError(f"kills must be >= 1, got {self.kills}")


@dataclass(frozen=True)
class WorkerHang:
    """Shard ``shard_id``'s worker wedges (stops heartbeating) after
    ``after_paths`` completed paths, on its first ``hangs`` attempts.

    ``duration=None`` hangs forever — the supervisor's hang detector must
    SIGKILL it; a finite ``duration`` just stalls (for serial tests)."""

    shard_id: int
    after_paths: int = 0
    hangs: int = 1
    duration: Optional[float] = None

    def __post_init__(self):
        if self.shard_id < 0 or self.after_paths < 0:
            raise ValueError("shard_id and after_paths must be non-negative")
        if self.hangs < 1:
            raise ValueError(f"hangs must be >= 1, got {self.hangs}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")


class FaultPlan:
    """A reproducible schedule of injected faults.

    Plans are cheap value-ish objects: picklable (they travel to worker
    processes with campaign jobs; the metrics registry is dropped in
    transit) and driven entirely by their own named RNG streams.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.streams = RngStreams(self.seed)
        self.flaps: list[LinkFlap] = []
        self.spikes: list[LossSpike] = []
        self.crashes: dict[int, ProbeCrash] = {}
        self.worker_kills: dict[int, WorkerKill] = {}
        self.worker_hangs: dict[int, WorkerHang] = {}
        #: Realized injections by kind (counted where the plan executes).
        self.injected: dict[str, int] = {}
        self._registry: Optional["MetricsRegistry"] = None
        self._observers: list = []

    # -- construction ----------------------------------------------------
    def add_link_flap(
        self, down_at: float, up_at: float, link: Optional[str] = None
    ) -> "FaultPlan":
        """Schedule a link (or path) outage window."""
        self.flaps.append(LinkFlap(down_at=down_at, up_at=up_at, link=link))
        return self

    def add_loss_spike(
        self, start: float, duration: float, extra_loss_prob: float
    ) -> "FaultPlan":
        """Schedule a transient loss-rate spike."""
        self.spikes.append(
            LossSpike(start=start, duration=duration, extra_loss_prob=extra_loss_prob)
        )
        return self

    def add_probe_crash(self, index: int, crashes: int = 1) -> "FaultPlan":
        """Crash experiment ``index`` on its first ``crashes`` attempts."""
        self.crashes[index] = ProbeCrash(index=index, crashes=crashes)
        return self

    def add_worker_kill(
        self, shard_id: int, after_paths: int = 0, kills: int = 1
    ) -> "FaultPlan":
        """SIGKILL shard ``shard_id``'s worker on its first ``kills``
        attempts, after ``after_paths`` completed paths."""
        self.worker_kills[shard_id] = WorkerKill(
            shard_id=shard_id, after_paths=after_paths, kills=kills
        )
        return self

    def add_worker_hang(
        self,
        shard_id: int,
        after_paths: int = 0,
        hangs: int = 1,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Wedge shard ``shard_id``'s worker (stop heartbeating) on its
        first ``hangs`` attempts, after ``after_paths`` completed paths."""
        self.worker_hangs[shard_id] = WorkerHang(
            shard_id=shard_id, after_paths=after_paths, hangs=hangs,
            duration=duration,
        )
        return self

    @classmethod
    def sample_sim(
        cls,
        seed: int,
        n_flaps: int = 2,
        window: tuple[float, float] = (0.2, 5.0),
        flap_duration: tuple[float, float] = (0.02, 0.1),
    ) -> "FaultPlan":
        """Sample a simulator-leg plan: ``n_flaps`` link flaps with start
        times uniform in ``window`` and durations uniform in
        ``flap_duration`` (seconds, deterministic per seed)."""
        plan = cls(seed)
        rng = plan.streams.stream("faults/flaps")
        for _ in range(n_flaps):
            t = float(rng.uniform(*window))
            d = float(rng.uniform(*flap_duration))
            plan.add_link_flap(t, t + d)
        return plan

    @classmethod
    def sample_campaign(
        cls,
        seed: int,
        n_experiments: int,
        span_seconds: float,
        n_flaps: int = 2,
        n_crashes: int = 2,
        n_spikes: int = 1,
        outage_frac: tuple[float, float] = (0.01, 0.05),
        spike_frac: tuple[float, float] = (0.02, 0.10),
        spike_extra_loss: tuple[float, float] = (0.02, 0.10),
    ) -> "FaultPlan":
        """Sample a campaign-leg plan on the campaign clock: path outages
        (flaps), probe-process crashes on random experiment indices, and
        transient loss spikes — all deterministic per seed.

        Outage and spike durations are drawn as *fractions* of
        ``span_seconds`` (``outage_frac`` / ``spike_frac``), so the same
        fault density holds whether the campaign spans minutes or days —
        degradation, never blackout.
        """
        if n_experiments <= 0:
            raise ValueError(f"need a positive experiment count, got {n_experiments}")
        plan = cls(seed)
        rng = plan.streams.stream("faults/campaign")
        for _ in range(n_flaps):
            t = float(rng.uniform(0.0, span_seconds))
            d = span_seconds * float(rng.uniform(*outage_frac))
            plan.add_link_flap(t, t + d)
        for _ in range(n_spikes):
            t = float(rng.uniform(0.0, span_seconds))
            d = span_seconds * float(rng.uniform(*spike_frac))
            p = float(rng.uniform(*spike_extra_loss))
            plan.add_loss_spike(t, d, p)
        picks = rng.choice(n_experiments, size=min(n_crashes, n_experiments), replace=False)
        for idx in picks:
            plan.add_probe_crash(int(idx))
        return plan

    @classmethod
    def sample_shard_faults(
        cls,
        seed: int,
        n_shards: int,
        shard_paths: int,
        n_kills: int = 2,
        n_hangs: int = 1,
    ) -> "FaultPlan":
        """Sample a supervisor-leg plan: ``n_kills`` worker SIGKILLs and
        ``n_hangs`` worker hangs on distinct random shards, each firing
        after a random number of completed paths (first attempt only, so
        a retrying supervisor always converges) — deterministic per seed.

        ``shard_paths`` is the (smallest) shard size; fault trigger points
        are drawn inside it so every armed fault actually fires.
        """
        if n_shards < 1 or shard_paths < 1:
            raise ValueError("need positive shard count and shard size")
        plan = cls(seed)
        rng = plan.streams.stream("faults/shards")
        n_faulty = min(n_kills + n_hangs, n_shards)
        picks = [int(s) for s in rng.choice(n_shards, size=n_faulty, replace=False)]
        for i, sid in enumerate(picks):
            at = int(rng.integers(0, shard_paths))
            if i < min(n_kills, n_faulty):
                plan.add_worker_kill(sid, after_paths=at)
            else:
                plan.add_worker_hang(sid, after_paths=at)
        return plan

    # -- accounting ------------------------------------------------------
    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Count realized injections as ``faults.injected.<kind>``."""
        self._registry = registry

    def add_observer(self, fn) -> None:
        """Register ``fn(kind, amount)`` to be called on every realized
        injection (the span tracer hooks in here so injections show up as
        trace events).  Observers, like the registry, do not pickle to
        workers — campaign injections are relayed via the result records."""
        self._observers.append(fn)

    def record(self, kind: str, amount: int = 1) -> None:
        """Note ``amount`` realized injections of ``kind``."""
        self.injected[kind] = self.injected.get(kind, 0) + amount
        if self._registry is not None:
            self._registry.counter(f"faults.injected.{kind}").inc(amount)
        for fn in self._observers:
            fn(kind, amount)

    def describe(self) -> dict:
        """JSON-able static spec of the plan (what *would* be injected)."""
        return {
            "seed": self.seed,
            "link_flaps": [
                {"down_at": f.down_at, "up_at": f.up_at, "link": f.link}
                for f in self.flaps
            ],
            "loss_spikes": [
                {"start": s.start, "duration": s.duration,
                 "extra_loss_prob": s.extra_loss_prob}
                for s in self.spikes
            ],
            "probe_crashes": [
                {"index": c.index, "crashes": c.crashes}
                for c in sorted(self.crashes.values(), key=lambda c: c.index)
            ],
            "worker_kills": [
                {"shard_id": k.shard_id, "after_paths": k.after_paths,
                 "kills": k.kills}
                for k in sorted(self.worker_kills.values(), key=lambda k: k.shard_id)
            ],
            "worker_hangs": [
                {"shard_id": h.shard_id, "after_paths": h.after_paths,
                 "hangs": h.hangs, "duration": h.duration}
                for h in sorted(self.worker_hangs.values(), key=lambda h: h.shard_id)
            ],
        }

    def __getstate__(self) -> dict:
        # Registries hold callback gauges into live components; workers
        # count via the returned records instead.
        state = self.__dict__.copy()
        state["_registry"] = None
        state["_observers"] = []
        return state

    # -- simulator leg ---------------------------------------------------
    def arm_links(self, sim: "Simulator", links: Iterable["Link"]) -> int:
        """Schedule this plan's flaps on ``links``; returns the number of
        flap windows armed.  A flap naming a link applies to that link
        only; unnamed flaps apply to every link given."""
        armed = 0
        links = list(links)
        for flap in self.flaps:
            targets = [
                l for l in links if flap.link is None or l.name == flap.link
            ]
            for link in targets:
                sim.schedule_at(flap.down_at, self._flap_down, link)
                sim.schedule_at(flap.up_at, self._flap_up, link)
                armed += 1
        return armed

    def _flap_down(self, link: "Link") -> None:
        link.take_down()
        self.record("link_down")

    def _flap_up(self, link: "Link") -> None:
        link.bring_up()
        self.record("link_up")

    # -- campaign leg ----------------------------------------------------
    def crash_check(self, index: int, attempt: int) -> None:
        """Raise :class:`ProbeCrashError` if experiment ``index`` is armed
        to crash on this ``attempt`` (1-based)."""
        crash = self.crashes.get(index)
        if crash is not None and attempt <= crash.crashes:
            self.record("probe_crash")
            raise ProbeCrashError(
                f"injected probe crash: experiment {index}, attempt {attempt} "
                f"of {crash.crashes} armed"
            )

    # -- supervisor leg --------------------------------------------------
    def shard_fault_check(self, shard_id: int, progress: int, attempt: int) -> None:
        """Realize an armed worker-level fault for ``shard_id`` at
        ``progress`` completed paths on ``attempt`` (1-based).

        A :class:`WorkerKill` SIGKILLs the calling process — no cleanup,
        no exception, exactly what a kernel OOM kill looks like to the
        supervisor.  A :class:`WorkerHang` stops making progress (sleeps
        forever, or ``duration`` seconds when finite) so the supervisor's
        heartbeat stall detector has to reap it.  Only process-isolated
        shard workers may call this; in-process execution must not
        (a self-SIGKILL would take the whole campaign down).
        """
        import signal
        import time as _time

        kill = self.worker_kills.get(shard_id)
        if kill is not None and progress == kill.after_paths and attempt <= kill.kills:
            self.record("worker_sigkill")
            os.kill(os.getpid(), signal.SIGKILL)
        hang = self.worker_hangs.get(shard_id)
        if hang is not None and progress == hang.after_paths and attempt <= hang.hangs:
            self.record("worker_hang")
            if hang.duration is not None:
                _time.sleep(hang.duration)
            else:
                while True:  # wedge until the supervisor reaps us
                    _time.sleep(3600.0)

    def outage_mask(self, send_times: np.ndarray, started_at: float) -> np.ndarray:
        """Which probes (relative send times) fall in an outage window."""
        t = np.asarray(send_times, dtype=np.float64) + started_at
        mask = np.zeros(len(t), dtype=bool)
        for flap in self.flaps:
            if flap.link is None:
                mask |= (t >= flap.down_at) & (t < flap.up_at)
        return mask

    def apply_probe_faults(
        self,
        send_times: np.ndarray,
        lost: np.ndarray,
        started_at: float,
        index: int,
    ) -> np.ndarray:
        """Fold outages and loss spikes into a probe run's loss mask.

        Deterministic per (plan seed, experiment index): spike randomness
        comes from a generator *re-derived on every call* from the plan
        seed and the experiment index, so a retried or resumed experiment
        sees the exact same injected weather as its first attempt.
        """
        lost = np.asarray(lost, dtype=bool).copy()
        if self.flaps:
            outage = self.outage_mask(send_times, started_at)
            extra = outage & ~lost
            if extra.any():
                self.record("outage_loss", int(extra.sum()))
            lost |= outage
        if self.spikes:
            t = np.asarray(send_times, dtype=np.float64) + started_at
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    (self.seed, stable_hash(f"faults/spike/{index}"))
                )
            )
            for spike in self.spikes:
                window = (t >= spike.start) & (t < spike.start + spike.duration)
                if not window.any():
                    continue
                u = rng.random(int(window.sum()))
                hit = np.zeros(len(t), dtype=bool)
                hit[window] = u < spike.extra_loss_prob
                extra = hit & ~lost
                if extra.any():
                    self.record("spike_loss", int(extra.sum()))
                lost |= hit
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} flaps={len(self.flaps)} "
            f"spikes={len(self.spikes)} crashes={len(self.crashes)}>"
        )
