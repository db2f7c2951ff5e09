"""RED parameter studies (paper §3.3 / §5).

The paper suggests RED as the deployable way to de-burst the loss process
but warns that "the parameter tunings of RED are difficult".  This module
runs the Figure 2 scenario with a RED bottleneck across a parameter grid
and reports the burstiness metrics per setting, quantifying both claims:
well-tuned RED sharply reduces sub-RTT clustering; badly-tuned RED either
barely helps (thresholds too high -> effectively DropTail) or destroys
utilization (thresholds too low / max_p too aggressive).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.burstiness import fraction_within
from repro.core.intervals import intervals_from_trace
from repro.core.report import format_table
from repro.experiments.common import Scale, current_scale
from repro.experiments.fig2_ns2 import fleet_spec
from repro.experiments.scenario import run_scenario
from repro.sim.queues import REDParams

__all__ = ["RedSetting", "RedOutcome", "run_red_sweep", "red_default_grid"]


@dataclass(frozen=True)
class RedSetting:
    """One RED configuration, thresholds as fractions of the buffer."""

    label: str
    min_th_frac: float
    max_th_frac: float
    max_p: float
    weight: float = 0.002


@dataclass
class RedOutcome:
    """Burstiness + performance of one queue configuration."""

    setting: Optional[RedSetting]  # None = DropTail baseline
    n_drops: int
    frac_001: float
    frac_1: float
    utilization: float

    @property
    def label(self) -> str:
        """Human-readable name of this configuration."""
        return self.setting.label if self.setting else "droptail"


def red_default_grid() -> tuple[RedSetting, ...]:
    """Classic / aggressive / timid / heavy-handed configurations."""
    return (
        RedSetting("classic", min_th_frac=0.15, max_th_frac=0.45, max_p=0.1),
        RedSetting("aggressive", min_th_frac=0.05, max_th_frac=0.15, max_p=0.5),
        RedSetting("timid", min_th_frac=0.7, max_th_frac=0.95, max_p=0.02),
        RedSetting("heavy", min_th_frac=0.02, max_th_frac=0.10, max_p=1.0),
    )


def _run_one(
    setting: Optional[RedSetting],
    seed: int,
    sc: Scale,
    buffer_bdp_fraction: float,
) -> RedOutcome:
    spec, mean_rtt = fleet_spec(seed, sc, buffer_bdp_fraction)
    buffer_pkts = max(8, spec.buffer_pkts)
    spec = replace(spec, buffer_pkts=buffer_pkts)
    if setting is not None:
        params = REDParams(
            min_th=max(1.0, setting.min_th_frac * buffer_pkts),
            max_th=max(2.0, setting.max_th_frac * buffer_pkts),
            max_p=setting.max_p,
            weight=setting.weight,
        )
        spec = replace(spec, queue="red", queue_kwargs={"params": params}, aqm_stream="red")
    run = run_scenario(spec, seed, f"red.{setting.label if setting else 'droptail'}")

    intervals = intervals_from_trace(run.drop_times, mean_rtt)
    return RedOutcome(
        setting=setting,
        n_drops=len(run.drop_times),
        frac_001=fraction_within(intervals, 0.01) if len(intervals) else float("nan"),
        frac_1=fraction_within(intervals, 1.0) if len(intervals) else float("nan"),
        utilization=run.utilization,
    )


def run_red_sweep(
    seed: int = 1,
    scale: Optional[Scale] = None,
    settings: Optional[tuple[RedSetting, ...]] = None,
    buffer_bdp_fraction: float = 0.5,
) -> list[RedOutcome]:
    """DropTail baseline plus every RED setting, same workload and seed."""
    sc = current_scale(scale)
    grid = settings if settings is not None else red_default_grid()
    outcomes = [_run_one(None, seed, sc, buffer_bdp_fraction)]
    for s in grid:
        outcomes.append(_run_one(s, seed, sc, buffer_bdp_fraction))
    return outcomes


def sweep_table(outcomes: list[RedOutcome]) -> str:
    """ASCII table of the sweep outcomes."""
    rows = [
        [o.label, o.n_drops, round(o.frac_001, 3), round(o.frac_1, 3),
         round(o.utilization, 3)]
        for o in outcomes
    ]
    return format_table(
        ["queue", "drops", "<0.01 RTT", "<1 RTT", "utilization"],
        rows,
        title="RED tuning sweep — loss burstiness vs queue discipline",
    )
