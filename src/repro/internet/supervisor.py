"""Crash-tolerant supervision of sharded campaigns.

:mod:`repro.internet.shards` makes every shard a pure, re-runnable
function of ``(seed, path range)``; this module runs those shards under a
supervising parent that treats worker death as a normal input:

* **Heartbeats** — each worker reports ``(paths done, wall clock)`` to
  the parent over its pipe (:func:`~repro.experiments.parallel.report_progress`,
  at most one message per :data:`PROGRESS_INTERVAL`) as it walks its
  paths.  The parent judges liveness on its *own* monotonic clock: a
  worker whose progress has not advanced within ``hang_timeout`` is
  wedged and gets SIGKILLed, whatever its clock claims.  A heartbeat
  whose wall-clock stamp disagrees with the parent's by more than
  ``skew_tolerance`` is flagged (``worker.clock_skew`` span event) but
  never trusted for liveness decisions.
* **Retry with backoff** — a dead or reaped worker's shard is
  rescheduled under the :class:`~repro.faults.RetryPolicy` (deterministic
  jitter, so two supervisors back off identically).  Shards that keep
  failing are **quarantined** as poison: the campaign finishes DEGRADED
  with an explicit manifest of the lost path ranges instead of hanging
  forever or dying.
* **Durable, resumable state** — a completed shard is one fsynced line
  of the JSON-lines :class:`~repro.faults.Checkpoint` ledger: its fate,
  its fingerprint and the result record itself.  A killed campaign
  re-run with ``resume=True`` re-checks each record's spec and
  fingerprint, re-runs anything torn or mismatched, and produces a
  result **byte-identical** to an uninterrupted run with the same seed.

The fan-out itself — forked workers that outlive shards, crash
isolation, the retry/backoff loop, waiting on process sentinels — is
:func:`repro.experiments.parallel.fan_out`, the runner the figure grids
use too; this module adds only what is shard-specific through its hooks.
A shard's result travels back over the worker's pipe and the parent
appends its ledger record, so a dead worker leaves nothing half written.

``workers=0`` runs shards in-process (serial) through the same retry /
quarantine / ledger machinery — bit-identical results, no processes —
which is what most tests use; process-level fault injection
(:class:`~repro.faults.WorkerKill` / :class:`~repro.faults.WorkerHang`)
is only realized by real worker processes.
"""

from __future__ import annotations

import signal
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.experiments.parallel import fan_out, report_progress
from repro.faults.checkpoint import Checkpoint
from repro.faults.plan import FaultPlan
from repro.faults.resilient import Result, RetryPolicy
from repro.internet.probe import ProbeConfig
from repro.internet.shards import (
    GapHistogram,
    ShardResult,
    ShardSpec,
    canonical_fingerprint,
    plan_shards,
    reduce_shards,
    run_shard,
)
from repro.obs.bus import open_bus

__all__ = [
    "SupervisorConfig",
    "ShardedCampaignResult",
    "CampaignSupervisor",
    "run_sharded_campaign",
    "SHARD_LEDGER",
]

#: Ledger file name inside the campaign state directory.
SHARD_LEDGER = "shards.jsonl"

#: Least time between two heartbeats from one shard worker.
PROGRESS_INTERVAL = 0.05


class WorkerHung(RuntimeError):
    """A shard worker whose heartbeat stopped advancing; the supervisor
    SIGKILLed it."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs.

    ``workers=0`` executes shards in-process (serial, deterministic, no
    process faults); ``workers>=1`` fans out over that many forked worker
    processes.  ``hang_timeout`` is measured on the parent's monotonic
    clock since the last observed progress *advance* (never from
    worker-reported timestamps).  ``skew_tolerance`` bounds how far a
    heartbeat's wall clock may drift from the parent's before the worker
    is flagged as clock-skewed.
    """

    workers: int = 2
    hang_timeout: float = 30.0
    skew_tolerance: float = 300.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(retries=2, base=0.02, max_delay=0.5)
    )

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")
        if self.skew_tolerance <= 0:
            raise ValueError("skew_tolerance must be positive")


@dataclass
class ShardedCampaignResult:
    """Aggregated output of a supervised sharded campaign.

    ``histogram`` is the streaming Figure 4 reducer merged over every
    completed shard; ``fates`` maps shard id to its outcome record
    (``status``, ``attempts``, ``error``) — the shard-fate table the
    report renders.  ``quarantined`` lists the poison shards' specs: the
    explicit manifest of what a DEGRADED campaign lost.
    :meth:`fingerprint` covers measurement content and the quarantine
    manifest, never attempts/timing/errors, so a killed-and-resumed
    campaign fingerprints identically to an uninterrupted one.
    """

    histogram: GapHistogram
    n_experiments: int
    n_valid: int
    n_rejected: int
    fates: dict[int, dict] = field(default_factory=dict)
    quarantined: list[ShardSpec] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when any shard was quarantined (its paths are missing)."""
        return bool(self.quarantined)

    @property
    def status(self) -> str:
        return "DEGRADED" if self.degraded else "COMPLETE"

    def lost_paths(self) -> int:
        """Directed paths lost to quarantined shards."""
        return sum(s.n_paths for s in self.quarantined)

    def manifest(self) -> dict:
        """JSON-able account of what the campaign measured and lost."""
        return {
            "status": self.status,
            "n_experiments": self.n_experiments,
            "n_valid": self.n_valid,
            "n_rejected": self.n_rejected,
            "n_shards_done": sum(
                1 for f in self.fates.values() if f.get("status") == "done"
            ),
            "n_shards_quarantined": len(self.quarantined),
            "lost_paths": self.lost_paths(),
            "quarantined": [
                {**s.to_record(),
                 "error": self.fates.get(s.shard_id, {}).get("error", "")}
                for s in sorted(self.quarantined, key=lambda s: s.shard_id)
            ],
        }

    def to_interval_pdf(self):
        """The campaign's Figure 4 distribution."""
        return self.histogram.to_interval_pdf()

    def fingerprint(self) -> str:
        """SHA-256 over measurement content + quarantine manifest."""
        payload = {
            "histogram": self.histogram.to_record(),
            "n_experiments": self.n_experiments,
            "n_valid": self.n_valid,
            "n_rejected": self.n_rejected,
            "quarantined": [
                s.to_record()
                for s in sorted(self.quarantined, key=lambda s: s.shard_id)
            ],
        }
        return canonical_fingerprint(payload)

    def summary(self) -> str:
        """Human-readable campaign summary (the DEGRADED manifest)."""
        lines = [
            f"sharded campaign: {self.status}",
            f"  paths probed      : {self.n_experiments}",
            f"  validated pairs   : {self.n_valid}",
            f"  rejected pairs    : {self.n_rejected}",
            f"  shards done       : "
            f"{sum(1 for f in self.fates.values() if f.get('status') == 'done')}",
            f"  shards quarantined: {len(self.quarantined)}",
        ]
        if self.histogram.n:
            lines += [
                f"  loss gaps pooled  : {self.histogram.n}",
                f"  mean gap          : {self.histogram.mean_interval:.4f} RTT",
                f"  gaps < 0.01 RTT   : {self.histogram.fraction_within(0.01):.1%}",
                f"  gaps < 1 RTT      : {self.histogram.fraction_within(1.0):.1%}",
            ]
        for s in sorted(self.quarantined, key=lambda s: s.shard_id):
            err = self.fates.get(s.shard_id, {}).get("error", "")
            lines.append(
                f"  POISON shard {s.shard_id}: paths [{s.start}, {s.stop}) lost"
                + (f" ({err})" if err else "")
            )
        lines.append(f"  fingerprint       : {self.fingerprint()}")
        return "\n".join(lines)


class _Liveness:
    """Parent-side view of one shard attempt running in a worker."""

    __slots__ = ("attempt", "last_done", "last_advance", "skew_flagged")

    def __init__(self, attempt: int):
        self.attempt = attempt
        self.last_done = -1
        self.last_advance = time.monotonic()
        self.skew_flagged = False


class CampaignSupervisor:
    """Runs a sharded campaign to completion through kills and stalls.

    The supervisor owns a state directory: the shard ledger
    (``shards.jsonl``, one record per shard fate, a done shard's result
    inline) and the event bus (``events.jsonl``).  ``run(resume=True)`` picks up
    any prior state in that directory; ``resume=False`` demands a fresh
    directory (mixing two campaigns' state is an error, not a merge).
    """

    def __init__(
        self,
        n_sites: int,
        n_shards: int,
        state_dir: Union[str, Path],
        seed: int = 2006,
        n_paths: Optional[int] = None,
        probe_config: Optional[ProbeConfig] = None,
        config: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
    ):
        self.specs = plan_shards(n_sites, n_shards, seed=seed, n_paths=n_paths)
        self.n_sites = int(n_sites)
        self.n_shards = int(n_shards)
        self.seed = int(seed)
        self.total_paths = self.specs[-1].stop
        self.state_dir = Path(state_dir)
        self.probe_config = probe_config or ProbeConfig()
        self.config = config or SupervisorConfig()
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.bus = None  # opened per run(); lazy, so no files until an emit

    # -- tracing ---------------------------------------------------------
    def _event(self, name: str, **attrs) -> None:
        """One supervision event, mirrored to the span tracer (when
        tracing is armed) and the state-dir bus (while a run is live)."""
        if self.tracer is not None:
            self.tracer.event(name, **attrs)
        if self.bus is not None:
            self.bus.emit(name, **attrs)

    # -- durable state ---------------------------------------------------
    def _ledger(self) -> Checkpoint:
        return Checkpoint(
            self.state_dir / SHARD_LEDGER,
            meta={
                "kind": "sharded-campaign",
                "seed": self.seed,
                "n_sites": self.n_sites,
                "n_paths": self.total_paths,
                "n_shards": self.n_shards,
                "duration": self.probe_config.duration,
            },
        )

    @staticmethod
    def _resumed_result(spec: ShardSpec, rec: dict) -> Optional[ShardResult]:
        """A done ledger record's inline result, checked against the spec
        and the record's fingerprint; ``None`` — re-run it, never trust
        it — on any tear or mismatch."""
        try:
            result = ShardResult.from_record(rec["result"])
        except (KeyError, TypeError, ValueError, ArithmeticError):
            return None
        if result.spec != spec or result.fingerprint() != rec.get("fingerprint"):
            return None
        return result

    # -- the run ---------------------------------------------------------
    def run(self, resume: bool = False) -> ShardedCampaignResult:
        """Drive every shard to done-or-quarantined and reduce.

        With ``resume=True``, shards whose done record checks out are
        loaded from the ledger instead of re-run (quarantine decisions
        are durable too); anything torn or mismatched is re-executed —
        the reduced output is byte-identical either way.
        """
        ledger_path = self.state_dir / SHARD_LEDGER
        if not resume and ledger_path.exists():
            raise ValueError(
                f"{self.state_dir} already holds campaign state; "
                f"pass resume=True or use a fresh directory"
            )
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.bus = open_bus(self.state_dir, source="supervisor")

        ledger = self._ledger()
        prior = ledger.load() if resume else {}

        results: dict[int, ShardResult] = {}
        fates: dict[int, dict] = {}
        quarantined: dict[int, ShardSpec] = {}
        pending: list[ShardSpec] = []
        resumed = 0

        for spec in self.specs:
            rec = prior.get(spec.shard_id)
            if rec and rec.get("status") == "done":
                loaded = self._resumed_result(spec, rec)
                if loaded is not None:
                    results[spec.shard_id] = loaded
                    fates[spec.shard_id] = {
                        k: v for k, v in rec.items() if k != "result"}
                    resumed += 1
                    continue
                warnings.warn(
                    f"shard {spec.shard_id}: ledger result torn or mismatched "
                    f"on resume; re-running",
                    stacklevel=2,
                )
                self._event("shard.resume_mismatch", shard=spec.shard_id)
            elif rec and rec.get("status") == "quarantined":
                quarantined[spec.shard_id] = spec
                fates[spec.shard_id] = dict(rec)
                resumed += 1
                continue
            pending.append(spec)

        self._event(
            "campaign.start",
            seed=self.seed, n_sites=self.n_sites, n_paths=self.total_paths,
            n_shards=self.n_shards, workers=self.config.workers,
            resumed=resumed, pending=len(pending),
        )
        try:
            self._run_shards(pending, ledger, results, fates, quarantined)
        finally:
            ledger.close()

        merged, counters = reduce_shards(list(results.values()))
        injected: dict[str, int] = {}
        for res in results.values():
            for kind, count in res.injected.items():
                injected[kind] = injected.get(kind, 0) + int(count)
        result = ShardedCampaignResult(
            histogram=merged,
            n_experiments=counters["n_experiments"],
            n_valid=counters["n_valid"],
            n_rejected=counters["n_rejected"],
            fates=fates,
            quarantined=sorted(quarantined.values(), key=lambda s: s.shard_id),
            meta={
                "seed": self.seed,
                "n_sites": self.n_sites,
                "n_paths": self.total_paths,
                "n_shards": self.n_shards,
                "workers": self.config.workers,
                "resumed": resumed,
                "retried": {
                    sid: f["attempts"] for sid, f in sorted(fates.items())
                    if f.get("attempts", 1) > 1
                },
                "injected": injected,
                "fault_plan": (
                    None if self.fault_plan is None
                    else self.fault_plan.describe()
                ),
            },
        )
        self._event(
            "campaign.reduced",
            status=result.status,
            shards_done=len(results),
            shards_quarantined=len(quarantined),
            lost_paths=result.lost_paths(),
        )
        if self.bus is not None:
            self.bus.close()
            self.bus = None
        return result

    # -- shard execution -------------------------------------------------
    def _run_shards(
        self, pending: list[ShardSpec], ledger: Checkpoint,
        results: dict, fates: dict, quarantined: dict,
    ) -> None:
        """Drive ``pending`` through :func:`~repro.experiments.parallel.fan_out`
        under ``config.retry``: a shard that is out of retries is
        quarantined, never raised."""
        live: dict[int, _Liveness] = {}

        def on_start(index: int, attempt: int, pid: int) -> None:
            spec = pending[index]
            live[index] = _Liveness(attempt)
            self._event("worker.spawn", shard=spec.shard_id, attempt=attempt,
                        pid=pid)

        def on_retry(res: Result, delay: float) -> None:
            spec = pending[res.index]
            self._attempt_failed(spec, res)
            self._event(
                "shard.retry", shard=spec.shard_id, attempt=res.attempts,
                delay=round(delay, 4), error=res.error_text,
            )

        def finish(res: Result) -> None:
            spec = pending[res.index]
            if res.ok:
                self._shard_done(spec, res.value, res.attempts, ledger,
                                 results, fates)
                return
            self._attempt_failed(spec, res)
            fate = {"status": "quarantined", "attempts": res.attempts,
                    "error": res.error_text}
            ledger.append(spec.shard_id, fate)
            fates[spec.shard_id] = fate
            quarantined[spec.shard_id] = spec
            self._event(
                "shard.quarantined", shard=spec.shard_id, attempts=res.attempts,
                paths=spec.n_paths, error=res.error_text,
            )

        def watch(running: dict) -> tuple:
            # Heartbeats wake the runner; wake by the earliest hang
            # deadline at the latest.
            timeout = self.config.hang_timeout
            reap, wake_in = {}, timeout
            for index, (attempt, progress) in running.items():
                state = live[index]
                if progress is not None:
                    self._note_progress(pending[index], state, *progress)
                stalled_for = time.monotonic() - state.last_advance
                wake_in = min(wake_in, timeout - stalled_for)
                if stalled_for > timeout:
                    # Wedged: no observed progress on the parent's clock.
                    # SIGKILL — a hung worker can't be trusted to honor
                    # anything gentler.
                    self._event(
                        "worker.hang", shard=pending[index].shard_id,
                        attempt=attempt, last_done=max(state.last_done, 0),
                    )
                    reap[index] = WorkerHung(
                        "no heartbeat progress, reaped by supervisor")
            return reap, wake_in

        fan_out(
            self._run_attempt, pending, self.config.workers, self.config.retry,
            finish, pass_attempt=True,
            key=lambda i: f"shard/{pending[i].shard_id}",
            on_start=on_start, on_retry=on_retry, watch=watch,
        )

    def _run_attempt(self, spec: ShardSpec, attempt: int) -> ShardResult:
        """One shard attempt.

        In a worker process it heartbeats ``(done, wall)`` to the parent
        (at most one message per :data:`PROGRESS_INTERVAL`) and runs with
        process-level faults armed; a SIGKILL (real or injected) returns
        nothing, which is exactly the point — the parent must cope.
        In-process (``workers=0``) it does neither: a self-SIGKILL would
        take the campaign down.
        """
        if not self.config.workers:
            return run_shard(spec, probe_config=self.probe_config,
                             fault_plan=self.fault_plan, attempt=attempt)
        skew = self.fault_plan.skew if self.fault_plan is not None else None
        last_sent = float("-inf")

        def heartbeat(done: int) -> None:
            nonlocal last_sent
            now = time.monotonic()
            if done > 0 and now - last_sent < PROGRESS_INTERVAL:
                return
            last_sent = now
            wall = time.time()
            if skew is not None:
                wall += skew.offset  # a skewed worker stamps a skewed clock
            report_progress((done, wall))

        heartbeat(0)
        return run_shard(
            spec, probe_config=self.probe_config, fault_plan=self.fault_plan,
            heartbeat=heartbeat, attempt=attempt, allow_process_faults=True,
        )

    def _note_progress(self, spec: ShardSpec, state: _Liveness, done: int,
                       wall: float) -> None:
        """Fold the attempt's latest heartbeat into parent-side liveness
        state."""
        if done > state.last_done:
            state.last_done = done
            state.last_advance = time.monotonic()
            # Progress is bus-only (throttled by PROGRESS_INTERVAL): span
            # traces record decisions, the bus records liveness too.
            if self.bus is not None:
                self.bus.emit(
                    "shard.progress", shard=spec.shard_id,
                    done=done, attempt=state.attempt,
                )
        skew = abs(wall - time.time())
        if skew > self.config.skew_tolerance and not state.skew_flagged:
            state.skew_flagged = True
            self._event(
                "worker.clock_skew", shard=spec.shard_id,
                skew_seconds=round(skew, 3),
            )

    def _attempt_failed(self, spec: ShardSpec, res: Result) -> None:
        if getattr(res.error, "exitcode", None) == -signal.SIGKILL:
            self._event("worker.sigkill", shard=spec.shard_id,
                        attempt=res.attempts)

    def _shard_done(
        self, spec: ShardSpec, result: ShardResult, attempt: int,
        ledger: Checkpoint, results: dict, fates: dict,
    ) -> None:
        fate = {"status": "done", "attempts": attempt,
                "fingerprint": result.fingerprint()}
        ledger.append(spec.shard_id, {**fate, "result": result.to_record()})
        results[spec.shard_id] = result
        fates[spec.shard_id] = fate
        self._event(
            "shard.done", shard=spec.shard_id, attempts=attempt,
            paths=spec.n_paths, valid=result.n_valid,
        )


def run_sharded_campaign(
    n_sites: int,
    n_shards: int,
    state_dir: Union[str, Path],
    seed: int = 2006,
    n_paths: Optional[int] = None,
    probe_config: Optional[ProbeConfig] = None,
    workers: int = 0,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    tracer=None,
    config: Optional[SupervisorConfig] = None,
) -> ShardedCampaignResult:
    """One-call sharded campaign (the CLI's ``campaign`` command core)."""
    if config is None:
        config = SupervisorConfig(workers=workers)
    supervisor = CampaignSupervisor(
        n_sites=n_sites,
        n_shards=n_shards,
        state_dir=state_dir,
        seed=seed,
        n_paths=n_paths,
        probe_config=probe_config,
        config=config,
        fault_plan=fault_plan,
        tracer=tracer,
    )
    return supervisor.run(resume=resume)
