"""The seven benchmark workloads.

Each workload drives one public driver function, sized only through the
driver's public ``scale=`` / ``workers=`` / site-and-shard arguments, and
turns the driver's result into an :class:`Outcome`: the text that is
hashed for the correctness gate, the operations attempted and failed
inside the repetition, and the amount of work done.  ``--seed`` is the
only source of the seed handed to the driver.

Why these seven, which layer each one loads and which it bypasses, is in
``README.md`` next to this file; the one-line version is each
workload's ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from repro.experiments import FAST, run_fig2, run_fig7, run_fig8, run_zoo, run_zoo_cell
from repro.internet.supervisor import run_sharded_campaign

__all__ = ["Outcome", "WORKLOADS", "Workload", "armed_observability"]


class Outcome(NamedTuple):
    """What one repetition produced, as far as the harness cares."""

    text: str  # hashed for the correctness gate
    attempted: int  # operations inside the repetition (the repetition itself is one more)
    failed: int
    work: Optional[int]  # work units done; None = read from the count pass
    artifact_bytes: int = 0  # what the armed observability layer wrote


class Workload(NamedTuple):
    name: str
    unit: str  # what ``work_per_s`` counts
    sizes: dict  # {"full": {...}, "smoke": {...}}: the public arguments used
    # ("workers", where present, is the driver's own fan-out)
    run: Callable[[int, dict, Path], object]  # (seed, size, scratch dir) -> driver result
    outcome: Callable[[object, dict, Path], Outcome]
    count_key: Optional[str] = None  # tracer count holding the work, when the result does not
    panel: tuple = ()  # scenario seeds of equal work; empty = hand --seed through

    def scenario_seed(self, seed: int) -> int:
        """The seed handed to the driver for ``--seed``.

        Three scenarios are chaotic in their seed: another seed moves the
        amount of work by 8-17% (and the cost per event with it), which
        would turn every comparison of two runs into a comparison of
        inputs.  For those, ``--seed`` picks from a panel of scenario seeds
        whose work agrees within about 1% (chosen by ``panel.py``): the seed
        still varies the scenario (RTT draws, start jitter, AQM draws), not
        the amount of work.
        """
        return self.panel[seed % len(self.panel)] if self.panel else seed


@contextmanager
def armed_observability(out_dir: Path) -> Iterator[None]:
    """Arm metrics, invariant checks, telemetry and the run report through
    the environment knobs the ``repro`` CLI flags set."""
    knobs = {
        "REPRO_METRICS_OUT": str(out_dir / "metrics.json"),
        "REPRO_CHECK_INVARIANTS": "1",
        "REPRO_TELEMETRY_OUT": str(out_dir / "run"),
        "REPRO_REPORT": "1",
    }
    os.environ.update(knobs)
    try:
        yield
    finally:
        for key in knobs:
            del os.environ[key]


# -- packet engine, one process ------------------------------------------
def _run_dumbbell(seed: int, size: dict, scratch: Path):
    return run_fig2(seed, replace(FAST, measure_duration=size["measure_duration"]))


def _run_dumbbell_observed(seed: int, size: dict, scratch: Path):
    with armed_observability(scratch):
        return _run_dumbbell(seed, size, scratch)


def _text_outcome(result, size: dict, scratch: Path) -> Outcome:
    return Outcome(result.to_text(), 0, 0, None)


def _observed_outcome(result, size: dict, scratch: Path) -> Outcome:
    # The armed run is only the workload it claims to be if the artifacts
    # landed and the conservation sweeps ran clean.
    metrics = json.loads((scratch / "metrics.json").read_text())
    gauges = metrics["gauges"]
    ok = (
        gauges["invariants.checks_run"] > 0
        and gauges["invariants.violations"] == 0
        and (scratch / "run" / "report.md").stat().st_size > 0
        and (scratch / "run" / "telemetry.json").stat().st_size > 0
    )
    written = sum(f.stat().st_size for f in scratch.rglob("*") if f.is_file())
    return Outcome(result.to_text(), 1, 0 if ok else 1, None, written)


def _run_competition(seed: int, size: dict, scratch: Path):
    return run_fig7(seed, replace(FAST, fig7_duration=size["fig7_duration"]))


def _run_zoo_cell(seed: int, size: dict, scratch: Path):
    scale = replace(FAST, fig7_duration=size["fig7_duration"])
    return run_zoo_cell(seed, scale, "bbr", "fq-codel")


def _zoo_cell_outcome(cell, size: dict, scratch: Path) -> Outcome:
    text = json.dumps(cell.to_record(), sort_keys=True)
    series = b"".join(a.tobytes() for a in
                      (cell.times, cell.baseline_mbps, cell.challenger_mbps))
    return Outcome(text + series.hex(), 0, 0, None)


# -- fan-out ---------------------------------------------------------------
def _run_transfer_grid(seed: int, size: dict, scratch: Path):
    scale = replace(FAST, fig8_repetitions=1, fig8_total_bytes=size["fig8_total_bytes"])
    return run_fig8(seed, scale, workers=size["workers"])


def _transfer_grid_outcome(result, size: dict, scratch: Path) -> Outcome:
    cells = len(FAST.fig8_flow_counts) * len(FAST.fig8_rtts)
    unfinished = sum(1 for st in result.cells.values()
                     if not (st.mean == st.mean and st.mean != float("inf")))
    failed = len(result.failures) + unfinished + (cells - len(result.cells))
    return Outcome(result.to_text(), cells, failed, cells)


def _run_campaign(seed: int, size: dict, scratch: Path):
    # Default ProbeConfig: the paper's 300 s probes.
    return run_sharded_campaign(
        size["n_sites"], size["n_shards"], scratch / "state", seed,
        workers=size["workers"])


def _campaign_outcome(result, size: dict, scratch: Path) -> Outcome:
    shards = size["n_shards"]
    clean = sum(1 for fate in result.fates.values()
                if fate.get("status") == "done" and fate.get("attempts", 1) == 1)
    text = f"{result.status} {result.n_experiments} {result.fingerprint()}"
    return Outcome(text, shards, shards - clean, result.n_experiments)


# -- fluid engine ------------------------------------------------------------
def _run_fluid_grid(seed: int, size: dict, scratch: Path):
    scale = replace(FAST, fig7_duration=size["fig7_duration"])
    return run_zoo(seed, scale, backend="fluid")


def _fluid_grid_outcome(result, size: dict, scratch: Path) -> Outcome:
    # Cells without a fluid reduction are reported up front as failed with
    # a "fluid unsupported" reason: expected, not attempted, not failures.
    real_failures = [f for f in result.failed if "fluid unsupported" not in f]
    attempted = len(result.cells) + len(real_failures)
    return Outcome(result.to_text(), attempted, len(real_failures), None)


# Chosen by panel.py from seeds 1..160 at the full sizes: the 16 seeds whose
# event counts are closest to the median (within 0.8% / 1.0% / 3.3% of each
# other; all 160 seeds spread 6.5% / 5.5% / 19%, inter-quartile).
_DUMBBELL_PANEL = (34, 45, 57, 65, 75, 81, 91, 99, 115, 124, 126, 137, 139, 145, 149, 151)
_ZOO_PANEL = (27, 28, 41, 50, 67, 69, 75, 77, 82, 90, 99, 100, 114, 115, 125, 137)
_GRID_PANEL = (8, 13, 18, 21, 38, 44, 46, 47, 63, 69, 92, 97, 109, 125, 132, 151)

WORKLOADS = {w.name: w for w in (
    Workload(
        "dumbbell_droptail", "events",
        {"full": {"measure_duration": 8.0}, "smoke": {"measure_duration": 0.8}},
        _run_dumbbell, _text_outcome, count_key="events", panel=_DUMBBELL_PANEL,
    ),
    Workload(
        "dumbbell_observed", "events",
        {"full": {"measure_duration": 8.0}, "smoke": {"measure_duration": 0.8}},
        _run_dumbbell_observed, _observed_outcome, count_key="events",
        panel=_DUMBBELL_PANEL,
    ),
    Workload(
        "competition_paced", "events",
        {"full": {"fig7_duration": 4.0}, "smoke": {"fig7_duration": 0.5}},
        _run_competition, _text_outcome, count_key="events",
    ),
    Workload(
        "zoo_bbr_fqcodel", "events",
        {"full": {"fig7_duration": 4.0}, "smoke": {"fig7_duration": 0.5}},
        _run_zoo_cell, _zoo_cell_outcome, count_key="events", panel=_ZOO_PANEL,
    ),
    Workload(
        "transfer_grid", "cells",
        {"full": {"fig8_total_bytes": 2**20, "workers": 2},
         "smoke": {"fig8_total_bytes": 2**17, "workers": 2}},
        _run_transfer_grid, _transfer_grid_outcome, panel=_GRID_PANEL,
    ),
    Workload(
        "campaign_supervised", "paths",
        {"full": {"n_sites": 16, "n_shards": 4, "workers": 2},
         "smoke": {"n_sites": 6, "n_shards": 2, "workers": 2}},
        _run_campaign, _campaign_outcome,
    ),
    Workload(
        "fluid_zoo_grid", "fluid_steps",
        {"full": {"fig7_duration": 0.5}, "smoke": {"fig7_duration": 0.05}},
        _run_fluid_grid, _fluid_grid_outcome, count_key="steps",
    ),
)}
