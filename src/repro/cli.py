"""Command-line interface: regenerate any paper figure/table.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig2 [--seed 1] [--scale fast|paper]
    python -m repro fig2 --check-invariants --metrics-out m.json
    python -m repro all                  # everything, in paper order

Each command runs the corresponding experiment driver and prints the
paper-shaped output (the same text the benchmarks print).

``python -m repro campaign --sites M --shards N --state-dir DIR`` runs a
crash-tolerant sharded measurement campaign
(:mod:`repro.internet.supervisor`): the O(sites²) path matrix is split
into deterministic shards, executed under a supervising parent
(hang reaping, retry backoff, poison-shard quarantine), and reduced into
the Figure 4 distribution.  ``--resume`` picks up a killed campaign from
its state directory, byte-identical to an uninterrupted run;
``--workers N`` fans shards over real worker processes; with
``--inject-faults SEED`` worker SIGKILLs and hangs are injected on top
(the chaos lane).

``--check-invariants`` arms the packet-conservation checker
(:mod:`repro.obs`) for drivers that support it: any accounting violation
aborts the run with a diagnostic ``InvariantViolation``.  ``--metrics-out
PATH`` writes a metrics JSON (per-queue conservation counters, link
utilization, event-loop statistics) next to the results; when several
experiments run, each gets its own ``PATH`` with the experiment name
spliced in before the extension.

Resilience flags (see :mod:`repro.faults`): ``--workers N`` fans
parallelizable drivers over N processes (bit-identical to serial);
``--on-error {raise,skip,retry}`` sets the failed-work policy;
``--checkpoint-dir DIR`` streams completed campaign cells to JSON-lines
files there so interrupted runs resume; ``--inject-faults SEED`` arms a
seed-reproducible fault plan (link flaps, loss spikes, probe crashes).
Each flag sets the corresponding ``REPRO_*`` environment variable for the
duration of the run (one flag->variable table, :data:`_ENV_FLAGS`), and
drivers read it back through :class:`repro.config.RunConfig` without new
parameters.

Flight-recorder flags (see :mod:`repro.obs`): ``--telemetry-out DIR``
arms per-run telemetry samplers and span tracing and writes the flight
record (``manifest.json`` / ``telemetry.json`` / ``spans.jsonl`` /
``metrics.json``) into DIR (one subdirectory per experiment when several
run); ``--report`` additionally renders ``report.md`` there.  A recorded
run directory renders later with ``python -m repro report <run-dir>``;
reports are byte-identical across runs of the same seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.config import RunConfig

__all__ = ["main", "EXPERIMENTS"]


def _fig2(seed, scale):
    from repro.experiments import run_fig2

    return run_fig2(seed=seed, scale=scale).to_text()


def _fig3(seed, scale):
    from repro.experiments import run_fig3

    return run_fig3(seed=seed, scale=scale).to_text()


def _fig4(seed, scale):
    from repro.experiments import run_fig4

    return run_fig4(seed=seed if seed != 1 else 2006, scale=scale).to_text()


def _fig7(seed, scale):
    from repro.experiments import run_fig7

    return run_fig7(seed=seed, scale=scale).to_text()


def _fig8(seed, scale):
    from repro.experiments import run_fig8

    return run_fig8(seed=seed, scale=scale).to_text()


def _table1(seed, scale):
    from repro.experiments import run_table1

    return run_table1().to_text()


def _eq12(seed, scale):
    from repro.experiments import analytic_table, run_eq12

    return analytic_table() + "\n\n" + run_eq12(seed=seed, scale=scale).to_text()


def _methodology(seed, scale):
    from repro.experiments import run_methodology

    return run_methodology(seed=seed, scale=scale).to_text()


def _mapreduce(seed, scale):
    from repro.experiments import run_mapreduce

    return run_mapreduce(seed=seed, scale=scale).to_text()


def _shortflows(seed, scale):
    from repro.experiments import run_shortflows

    return run_shortflows(seed=seed, scale=scale).to_text()


def _zoo(seed, scale):
    from repro.experiments import run_zoo

    return run_zoo(seed=seed, scale=scale).to_text()


def _manyflows(seed, scale):
    from repro.experiments import run_manyflows

    return run_manyflows(seed=seed, scale=scale).to_text()


def _red(seed, scale):
    from repro.extensions import run_red_sweep, sweep_table

    return sweep_table(run_red_sweep(seed=seed, scale=scale))


def _ecn(seed, scale):
    from repro.extensions import run_ecn_fairness

    return run_ecn_fairness(seed=seed, scale=scale).to_text()


def _delay(seed, scale):
    from repro.extensions import run_delay_based

    return run_delay_based(seed=seed, scale=scale).to_text()


#: name -> (runner, description).  Order = presentation order for ``all``.
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "table1": (_table1, "Table 1 — PlanetLab measurement sites"),
    "fig2": (_fig2, "Figure 2 — inter-loss PDF, NS-2-style simulation"),
    "fig3": (_fig3, "Figure 3 — inter-loss PDF, Dummynet-style emulation"),
    "fig4": (_fig4, "Figure 4 — inter-loss PDF, Internet campaign"),
    "eq12": (_eq12, "Equations (1)/(2) — loss-event detection by class"),
    "fig7": (_fig7, "Figure 7 — TCP Pacing vs NewReno competition"),
    "fig8": (_fig8, "Figure 8 — parallel-transfer latency grid"),
    "zoo": (_zoo, "Extension — protocol/AQM zoo grid (Fig. 7 + Eqs. 1-2)"),
    "manyflows": (_manyflows,
                  "Extension — many-flows convergence, packet vs fluid"),
    "methodology": (_methodology, "Extension — measurement methodology comparison"),
    "shortflows": (_shortflows, "Extension — slow-start churn burstiness (§3.3)"),
    "red": (_red, "Extension — RED tuning sweep"),
    "ecn": (_ecn, "Extension — persistent one-RTT ECN fairness"),
    "delay": (_delay, "Extension — delay-based vs loss-based control"),
    "mapreduce": (_mapreduce, "Extension — MapReduce shuffle predictability"),
}


#: Flag -> RunConfig field: the one channel from the flags to the drivers.
#: A flag that is given sets its field's REPRO_* variable for the run; the
#: table also generates the --help epilog (docs/API.md mirrors it).
_ENV_FLAGS = (
    ("--scale", "scale", "scenario scale, fast|paper"),
    ("--workers", "workers", "worker process count"),
    ("--on-error", "on_error", "raise|skip|retry"),
    ("--checkpoint-dir", "checkpoint_dir", "campaign checkpoint directory"),
    ("--inject-faults", "fault_seed", "fault-plan seed"),
    ("--metrics-out", "metrics_out", "metrics JSON path"),
    ("--check-invariants", "check_invariants", "1 = verify conservation"),
    ("--telemetry-out", "telemetry_out", "flight-record run directory"),
    ("--report", "report", "1 = auto-render report.md"),
    ("--metrics-port", "metrics_port", "/metrics port for fleet runs"),
)

_ENV_VAR = {f.name: f.metadata["var"] for f in dataclasses.fields(RunConfig)}

_ENV_EPILOG = "environment knobs (set by the flags above, or directly):\n" + "".join(
    f"  {_ENV_VAR[field]:<24} {text:<32} ({flag})\n"
    for flag, field, text in _ENV_FLAGS
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures/tables from the packet-loss-burstiness paper.",
        epilog=_ENV_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "list", "report", "campaign", "top", "history"],
        help="which figure/table to regenerate ('list' to enumerate; "
        "'report' renders a recorded telemetry run directory; 'campaign' "
        "runs a supervised sharded measurement campaign; 'top' is a live "
        "console over a campaign/zoo state directory; 'history' renders "
        "the cross-run health timeline)",
    )
    p.add_argument(
        "target",
        nargs="?",
        default=None,
        help="run directory for the 'report' command / state directory "
        "for the 'top' command / root directory for the 'history' "
        "command (ignored otherwise)",
    )
    p.add_argument("--seed", type=int, default=1, help="experiment seed (default 1)")
    p.add_argument(
        "--scale",
        choices=["fast", "paper"],
        default=None,
        help="scenario scale (default: $REPRO_SCALE or fast)",
    )
    p.add_argument(
        "--out",
        type=str,
        default=None,
        help="also append each result block to this file",
    )
    p.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write a metrics JSON (conservation counters, link utilization, "
        "event-loop stats) to this path",
    )
    p.add_argument(
        "--check-invariants",
        action="store_true",
        help="verify packet-conservation invariants during and after the run "
        "(aborts with InvariantViolation on any accounting error)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan parallelizable drivers over N worker processes "
        "(results are bit-identical to a serial run)",
    )
    p.add_argument(
        "--on-error",
        choices=["raise", "skip", "retry"],
        default=None,
        help="what resilient drivers do with failed work items "
        "(default raise; skip/retry record failures and keep going)",
    )
    p.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="stream completed campaign cells to JSON-lines checkpoints in "
        "DIR; re-running with the same DIR resumes interrupted campaigns",
    )
    p.add_argument(
        "--inject-faults",
        type=int,
        default=None,
        metavar="SEED",
        help="arm a seed-reproducible fault plan (link flaps, loss spikes, "
        "probe crashes) — for exercising the resilience machinery",
    )
    p.add_argument(
        "--telemetry-out",
        type=str,
        default=None,
        metavar="DIR",
        help="record flight telemetry (time-series samplers, phase spans) "
        "and write the run directory to DIR (per-experiment subdirectory "
        "when several experiments run)",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="auto-render report.md into the telemetry run directory at "
        "the end of each run (implies nothing without --telemetry-out)",
    )
    p.add_argument(
        "--html",
        action="store_true",
        help="with the 'report' and 'history' commands: also render HTML",
    )
    p.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log records (one per line) instead of "
        "the human-readable diagnostic text; result blocks are unchanged",
    )
    obs = p.add_argument_group("fleet observability")
    obs.add_argument(
        "--once",
        action="store_true",
        help="with the 'top' command: print one deterministic snapshot "
        "and exit (no ANSI; byte-stable for identical directory bytes)",
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SEC",
        help="with the 'top' command: live refresh interval (default 2.0)",
    )
    obs.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="with the 'campaign' and 'zoo' commands: serve Prometheus "
        "/metrics and /snapshot.json on this port during the run "
        "(0 = auto-assign; the bound port lands in the state directory's "
        "metrics-port file)",
    )
    camp = p.add_argument_group("campaign command")
    camp.add_argument(
        "--sites",
        type=int,
        default=26,
        metavar="M",
        help="campaign mesh size: first 26 sites are the paper's Table 1, "
        "the rest synthetic (default 26)",
    )
    camp.add_argument(
        "--shards",
        type=int,
        default=8,
        metavar="N",
        help="number of self-contained shard jobs the path matrix is "
        "partitioned into (default 8)",
    )
    camp.add_argument(
        "--paths",
        type=int,
        default=None,
        metavar="P",
        help="cap the campaign to the first P directed paths "
        "(default: the full sites*(sites-1) matrix)",
    )
    camp.add_argument(
        "--state-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="campaign state directory (shard ledger with the fingerprinted "
        "results + event bus); falls back to $REPRO_CHECKPOINT_DIR",
    )
    camp.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed campaign from its state directory "
        "(byte-identical to an uninterrupted run)",
    )
    camp.add_argument(
        "--probe-duration",
        type=float,
        default=None,
        metavar="SEC",
        help="per-path probe duration in seconds (default: ProbeConfig)",
    )
    camp.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        metavar="SEC",
        help="supervisor reaps a worker whose reported progress stalls "
        "this long (default 30)",
    )
    return p


def _run_report(target: Optional[str], html: bool) -> int:
    """The ``report`` command: render a recorded run directory."""
    from repro.obs.report import ReportError, generate_report, write_report

    if not target:
        print(
            "usage: repro report <run-dir>  (a directory written by "
            "--telemetry-out)",
            file=sys.stderr,
        )
        return 2
    try:
        path = write_report(target, html=html)
    except ReportError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 1
    print(generate_report(target), end="")
    print(f"[report written to {path}]", file=sys.stderr)
    return 0


def _run_campaign(args) -> int:
    """The ``campaign`` command: a supervised sharded campaign."""
    from repro.faults import CheckpointError, FaultPlan
    from repro.internet.probe import ProbeConfig
    from repro.internet.shards import plan_shards
    from repro.internet.supervisor import SupervisorConfig, run_sharded_campaign
    from repro.obs.bus import RunLog
    from repro.obs.httpd import maybe_obs_server
    from repro.obs.runtime import open_flight_log

    state_dir = args.state_dir or RunConfig.from_env().checkpoint_dir
    if not state_dir:
        print(
            "campaign: a state directory is required "
            "(--state-dir DIR or $REPRO_CHECKPOINT_DIR)",
            file=sys.stderr,
        )
        return 2
    seed = args.seed if args.seed != 1 else 2006
    probe_config = (
        ProbeConfig(duration=args.probe_duration)
        if args.probe_duration is not None
        else ProbeConfig()
    )
    workers = args.workers if args.workers is not None else 0
    specs = plan_shards(args.sites, args.shards, seed=seed, n_paths=args.paths)
    fault_plan = None
    if args.inject_faults is not None:
        fault_plan = FaultPlan.sample_shard_faults(
            args.inject_faults,
            n_shards=args.shards,
            shard_paths=min(s.n_paths for s in specs),
        )
    config = SupervisorConfig(workers=workers, hang_timeout=args.hang_timeout)
    log = open_flight_log(
        "campaign",
        manifest={
            "seed": seed,
            "sites": args.sites,
            "shards": args.shards,
            "paths": specs[-1].stop,
            "workers": workers,
            "resume": bool(args.resume),
        },
    )
    runlog = RunLog("campaign", mode="json" if args.log_json else "text")
    server = maybe_obs_server(state_dir)
    if server is not None:
        runlog.emit(
            "metrics",
            message=f"[campaign: serving /metrics on port {server.port}]",
            port=server.port,
        )
    t0 = time.perf_counter()
    try:
        result = run_sharded_campaign(
            n_sites=args.sites,
            n_shards=args.shards,
            state_dir=state_dir,
            seed=seed,
            n_paths=args.paths,
            probe_config=probe_config,
            resume=args.resume,
            fault_plan=fault_plan,
            tracer=log.tracer,
            config=config,
        )
    except (CheckpointError, ValueError) as exc:  # damaged or foreign state
        print(f"campaign: {exc}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.close()
    elapsed = time.perf_counter() - t0
    log.finalize()
    print(result.summary())
    rate = result.n_experiments / elapsed if elapsed > 0 else float("inf")
    runlog.emit(
        "finished",
        message=f"[campaign: {elapsed:.1f}s, {rate:.0f} paths/s]",
        status=result.status,
        elapsed_s=round(elapsed, 3),
        paths_per_s=round(rate, 1),
        shards_quarantined=len(result.quarantined),
    )
    return 0


def _resolve_scale(name: Optional[str]):
    if name is None:
        return None
    from repro.experiments import FAST, PAPER

    return {"fast": FAST, "paper": PAPER}[name]


@contextlib.contextmanager
def _flags_in_env(args, experiment: str, multi: bool):
    """Set the REPRO_* variable of every table flag given for one run,
    then put back exactly what the environment held before."""
    saved = {var: os.environ.get(var) for var in _ENV_VAR.values()}
    for flag, field, _ in _ENV_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None or value is False:
            continue
        if value is True:
            value = "1"
        elif multi and field in ("metrics_out", "telemetry_out"):
            # Several experiments share the paths: each gets its own.
            value = getattr(RunConfig(**{field: Path(value)}).named(experiment), field)
        os.environ[_ENV_VAR[field]] = str(value)
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.experiment == "report":
        return _run_report(args.target, html=args.html)

    if args.experiment == "top":
        from repro.obs.console import run_top

        if not args.target:
            print(
                "usage: repro top <state-dir>  (a campaign/zoo state "
                "directory)",
                file=sys.stderr,
            )
            return 2
        return run_top(args.target, once=args.once, interval=args.interval)

    if args.experiment == "history":
        from repro.obs.history import main as history_main

        history_argv = [args.target or "."]
        if args.out:
            history_argv += ["--out", args.out]
        if args.html:
            history_argv.append("--html")
        return history_main(history_argv)

    if args.experiment == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"  {name.ljust(width)}  {desc}")
        return 0

    if args.experiment == "campaign":
        with _flags_in_env(args, "campaign", multi=False):
            return _run_campaign(args)

    from repro.obs.bus import RunLog

    scale = _resolve_scale(args.scale)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    multi = len(names) > 1
    # Diagnostic chatter routes through the structured log (text mode
    # prints the historical lines verbatim); the experiment's result
    # block itself is the deliverable and always prints as-is.
    runlog = RunLog("cli", stream=sys.stdout,
                    mode="json" if args.log_json else "text")
    sink = open(args.out, "a") if args.out else None
    try:
        for name in names:
            runner, desc = EXPERIMENTS[name]
            runlog.emit(
                "experiment.start", message=f"=== {desc} ===",
                experiment=name, seed=args.seed,
            )
            t0 = time.perf_counter()
            with _flags_in_env(args, name, multi):
                text = runner(args.seed, scale)
            print(text)
            elapsed = time.perf_counter() - t0
            runlog.emit(
                "experiment.done", message=f"[{name}: {elapsed:.1f}s]\n",
                experiment=name, elapsed_s=round(elapsed, 3),
            )
            if sink is not None:
                sink.write(f"=== {desc} ===\n{text}\n\n")
    finally:
        if sink is not None:
            sink.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
