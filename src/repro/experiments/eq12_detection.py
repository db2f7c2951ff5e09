"""Equations (1)/(2): loss-event detection, model vs. simulation.

The paper's ideal-case model (§4.1, Figures 5/6): when the bottleneck
drops ``M`` packets in one bursty loss event, ``L_rate = min(M, N)``
rate-based flows detect it but only ``L_win = max(M/K, 1)`` window-based
flows do (``K`` = packets a flow sends in that RTT), because window-based
traffic arrives in per-flow clumps while rate-based traffic is evenly
interleaved.

Empirical validation runs the *mixed* Figure 7 scenario (``fig7_spec``:
N window-based NewReno and N rate-based paced flows sharing the
bottleneck), clusters the drop trace into loss events, and counts the
distinct flows of each class actually hit per event
(``ScenarioRun.detection``).  The measured rate/window detection ratio
must exceed 1 and track the model's prediction at the measured M and K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.report import format_table
from repro.experiments.common import Scale, current_scale
from repro.experiments.fig7_competition import fig7_spec
from repro.experiments.scenario import run_scenario

__all__ = ["Eq12Result", "run_eq12", "analytic_table"]


@dataclass
class Eq12Result:
    """Per-event detection statistics from the mixed scenario."""

    n_flows_per_class: int
    n_events: int
    mean_event_size: float  # M over all drops
    k_packets_per_rtt: float  # K for the window class
    measured_window_hits: float  # distinct window flows hit per event
    measured_rate_hits: float  # distinct rate flows hit per event
    model_window_hits: float  # Eq (2) at measured class-M and K
    model_rate_hits: float  # Eq (1) at measured class-M

    @property
    def measured_ratio(self) -> float:
        """L_rate / L_win measured (paper: >> 1)."""
        if self.measured_window_hits <= 0:
            return float("nan")
        return self.measured_rate_hits / self.measured_window_hits

    @property
    def model_ratio(self) -> float:
        """Model-predicted L_rate / L_win at the measured M and K."""
        if self.model_window_hits <= 0:
            return float("nan")
        return self.model_rate_hits / self.model_window_hits

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        rows = [
            ["rate-based", self.n_flows_per_class,
             round(self.measured_rate_hits, 2), round(self.model_rate_hits, 2)],
            ["window-based", self.n_flows_per_class,
             round(self.measured_window_hits, 2), round(self.model_window_hits, 2)],
        ]
        head = format_table(
            ["class", "N", "measured L", "model L"],
            rows,
            title=(
                "Equations (1)/(2) — flows detecting each loss event "
                f"({self.n_events} events, mean M={self.mean_event_size:.1f}, "
                f"K={self.k_packets_per_rtt:.1f})"
            ),
        )
        return head + (
            f"\nL_rate/L_win: measured {self.measured_ratio:.2f}, "
            f"model {self.model_ratio:.2f} (paper: >> 1)"
        )


def run_eq12(
    seed: int = 1,
    scale: Optional[Scale] = None,
    rtt: float = 0.050,
    buffer_bdp_fraction: float = 1.0,
) -> Eq12Result:
    """Run the mixed competition and compare detection counts to the model."""
    sc = current_scale(scale)
    n = sc.fig7_flows_per_class
    run = run_scenario(fig7_spec(sc, rtt, buffer_bdp_fraction, None), seed, "eq12")
    det = run.detection(rtt)
    # Per-class drops per event, to evaluate the model at each class's own M.
    m_win, m_rate = (d / max(1, det.events) for d in det.drops)
    # K: packets a window flow sends per RTT, from delivered throughput.
    k = max(1e-9, run.queue.dequeued / (2 * n) * rtt / sc.fig7_duration)
    return Eq12Result(
        n_flows_per_class=n,
        n_events=det.events,
        mean_event_size=det.mean_m,
        k_packets_per_rtt=float(k),
        measured_window_hits=det.hits[0],
        measured_rate_hits=det.hits[1],
        # The paper's Eqs. (1)/(2) are uncapped ideals; when evaluating them
        # against a measured event we cap at N (no event can be detected by
        # more flows than exist), so huge events saturate both classes.
        model_window_hits=float(min(max(m_win / k, 1.0), n)),
        model_rate_hits=float(min(m_rate, n)),
    )


def analytic_table(
    ms: tuple[int, ...] = (1, 4, 16, 64),
    n: int = 16,
    k: float = 32.0,
) -> str:
    """Pure-model table of Eqs. (1)/(2) across event sizes."""
    from repro.core.detection import l_rate_based, l_window_based

    rows = [
        [m, l_rate_based(m, n), round(l_window_based(m, k), 2),
         round(l_rate_based(m, n) / l_window_based(m, k), 1)]
        for m in ms
    ]
    return format_table(
        ["M (drops)", f"L_rate (N={n})", f"L_win (K={k:g})", "ratio"],
        rows,
        title="Ideal-case detection model, Eqs. (1)-(2)",
    )
