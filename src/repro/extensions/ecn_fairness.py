"""ECN fairness experiment: does the persistent signal fix Figure 7?

Paper §5: the persistent one-RTT ECN signal "solves the competition
problem of rate-based implementation and window-based implementations" —
because every flow sees the signal exactly once per congestion event, the
detection asymmetry of Eqs. (1)/(2) disappears.

This driver reruns the Figure 7 competition
(:func:`~repro.experiments.fig7_competition.fig7_spec`, half-BDP buffer)
twice — DropTail + loss signal vs. the ``"pecn"`` PersistentEcnQueue +
ECN-capable senders (``kwargs={"ecn": True}``) — and reports the pacing
deficit under each regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import repro.extensions.ecn  # noqa: F401  (registers the "pecn" queue kind)
from repro.experiments.common import Scale, current_scale
from repro.experiments.fig7_competition import fig7_spec
from repro.experiments.scenario import run_scenario

__all__ = ["EcnFairnessResult", "run_ecn_fairness"]


@dataclass
class EcnFairnessResult:
    """Pacing deficit with and without the persistent ECN signal."""

    droptail_newreno_mbps: float
    droptail_pacing_mbps: float
    ecn_newreno_mbps: float
    ecn_pacing_mbps: float
    signals_raised: int

    @property
    def droptail_deficit(self) -> float:
        """Pacing's fractional throughput loss under DropTail."""
        return _deficit(self.droptail_newreno_mbps, self.droptail_pacing_mbps)

    @property
    def ecn_deficit(self) -> float:
        """Pacing's fractional throughput loss under the ECN signal."""
        return _deficit(self.ecn_newreno_mbps, self.ecn_pacing_mbps)

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        return (
            "ECN fairness — persistent one-RTT signal vs DropTail loss signal\n"
            f"  droptail: NewReno {self.droptail_newreno_mbps:.2f} Mbps, "
            f"Pacing {self.droptail_pacing_mbps:.2f} Mbps "
            f"(deficit {self.droptail_deficit * 100:.1f}%)\n"
            f"  ecn:      NewReno {self.ecn_newreno_mbps:.2f} Mbps, "
            f"Pacing {self.ecn_pacing_mbps:.2f} Mbps "
            f"(deficit {self.ecn_deficit * 100:.1f}%)\n"
            f"  signals raised: {self.signals_raised}"
        )


def _deficit(newreno: float, pacing: float) -> float:
    if newreno <= 0:
        return float("nan")
    return (newreno - pacing) / newreno


def _competition(
    seed: int, sc: Scale, rtt: float, ecn: bool
) -> tuple[float, float, int]:
    # Half-BDP buffer: congestion onsets are frequent enough that the
    # signal comparison has plenty of events to average over.  [22] calls
    # for a signal persisting one RTT; in practice the echo takes ~1 RTT
    # to return and bursty flows have phase jitter, so a 1.5x margin
    # guarantees every flow's next burst sees the signal.
    queue = {"queue": "pecn", "queue_kwargs": {"signal_duration": 1.5 * rtt}} if ecn else {}
    spec = fig7_spec(sc, rtt, 0.5, 0.5, kwargs={"ecn": ecn}, **queue)
    run = run_scenario(spec, seed, f"ecn.{spec.queue}")
    signals = run.queue.signals_raised if ecn else 0  # type: ignore[attr-defined]
    return run.mean_mbps[0], run.mean_mbps[1], signals


def run_ecn_fairness(
    seed: int = 1, scale: Optional[Scale] = None, rtt: float = 0.050
) -> EcnFairnessResult:
    """Run the Figure 7 competition under both congestion signals."""
    sc = current_scale(scale)
    dt_nr, dt_pc, _ = _competition(seed, sc, rtt, ecn=False)
    ec_nr, ec_pc, signals = _competition(seed, sc, rtt, ecn=True)
    return EcnFairnessResult(
        droptail_newreno_mbps=dt_nr,
        droptail_pacing_mbps=dt_pc,
        ecn_newreno_mbps=ec_nr,
        ecn_pacing_mbps=ec_pc,
        signals_raised=signals,
    )
