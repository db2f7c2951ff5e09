"""Figure 4: PDF of inter-loss time over the Internet (PlanetLab substitute).

A random-pair CBR measurement campaign over the 26-site mesh (Table 1):
48 B / 400 B probe pairs per experiment, the paper's similarity validation,
per-path RTT normalization, intervals pooled over validated experiments.

Paper observations to reproduce: **~40% of losses within 0.01 RTT, ~60%
within 1 RTT**, and the loss process clearly burstier than Poisson inside
0–0.25 RTT despite the Internet's heterogeneity.

The driver runs the campaign *resiliently* (see :mod:`repro.faults`): the
:class:`repro.config.RunConfig` knobs ``REPRO_WORKERS`` /
``REPRO_ON_ERROR`` / ``REPRO_CHECKPOINT_DIR`` / ``REPRO_FAULTS`` (the
CLI's ``--workers`` / ``--on-error`` / ``--checkpoint-dir`` /
``--inject-faults``) fan experiments over processes, skip-or-retry failed
cells, resume interrupted campaigns from a checkpoint, and arm a sampled
fault plan.  A degraded campaign renders with an explicit note —
surviving cells, never silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import RunConfig
from repro.core.burstiness import fraction_within
from repro.core.pdf import IntervalPdf, interval_pdf, poisson_reference_pdf
from repro.core.poisson import PoissonComparison, compare_to_poisson
from repro.core.report import pdf_figure_text
from repro.experiments.common import Scale, current_scale
from repro.faults import FaultPlan
from repro.internet.campaign import Campaign, CampaignResult
from repro.internet.probe import ProbeConfig
from repro.obs.runtime import open_flight_log

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class Fig4Result:
    """Reproduced Figure 4 plus campaign statistics."""

    pdf: IntervalPdf
    poisson: np.ndarray
    frac_001: float
    frac_1: float
    comparison: PoissonComparison
    campaign: CampaignResult

    def to_text(self) -> str:
        """Render the paper-shaped text block for this result."""
        head = pdf_figure_text(
            self.pdf,
            self.poisson,
            "Figure 4 — PDF of inter-loss time (Internet campaign, PlanetLab substitute)",
            frac_001=self.frac_001,
            frac_1=self.frac_1,
        )
        tail = (
            f"\nexperiments: {len(self.campaign.experiments)} "
            f"(validated {self.campaign.n_valid}, rejected {self.campaign.n_rejected}); "
            f"paths covered: {len(self.campaign.paths_measured())}"
        )
        if self.campaign.degraded:
            failed = ", ".join(
                f"#{f.index} ({f.error})" for f in self.campaign.failures
            )
            tail += (
                f"\nDEGRADED: {len(self.campaign.failures)} experiment(s) "
                f"failed and were excluded: {failed}"
            )
        injected = self.campaign.meta.get("injected") or {}
        if injected:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(injected.items()))
            tail += f"\ninjected faults: {parts}"
        return head + tail


def run_fig4(
    seed: int = 2006,
    scale: Optional[Scale] = None,
    workers: Optional[int] = None,
    on_error: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Fig4Result:
    """Run the Internet campaign and analyze pooled intervals.

    Resilience knobs left at ``None`` fall back to the environment:
    ``workers`` to ``REPRO_WORKERS`` (then serial), ``on_error`` to
    ``REPRO_ON_ERROR`` (then ``"raise"``, or ``"retry"`` when a fault plan
    is armed), ``fault_plan`` to a plan sampled from ``REPRO_FAULTS``.
    With ``REPRO_CHECKPOINT_DIR`` set, completed experiments stream to
    ``fig4.jsonl`` there and an interrupted run resumes from it.
    """
    sc = current_scale(scale)
    cfg = RunConfig.from_env()
    if fault_plan is None and cfg.fault_seed is not None:
        fault_plan = FaultPlan.sample_campaign(
            cfg.fault_seed,
            n_experiments=sc.campaign_experiments,
            span_seconds=Campaign.CAMPAIGN_SPAN_SECONDS,
        )
    if on_error is None:
        # An armed plan *will* crash probes; default to riding them out.
        on_error = cfg.on_error or ("retry" if fault_plan is not None else "raise")
    camp = Campaign(
        seed=seed,
        probe_config=ProbeConfig(duration=sc.campaign_probe_duration),
        fault_plan=fault_plan,
    )
    # Campaigns have no single simulator clock: the flight record is a
    # parent-side FlightLog (manifest + per-experiment spans + fault
    # events relayed from the workers' result records).
    flight = open_flight_log(
        "fig4",
        manifest={
            "seed": seed,
            "scale": sc.name,
            "n_experiments": sc.campaign_experiments,
            "probe_duration": sc.campaign_probe_duration,
            "on_error": on_error,
            "fault_plan": None if fault_plan is None else fault_plan.describe(),
        },
    )
    with flight.span("campaign", n=sc.campaign_experiments):
        result = camp.run(
            sc.campaign_experiments,
            workers=workers,
            on_error=on_error,
            checkpoint=(None if cfg.checkpoint_dir is None
                        else cfg.checkpoint_dir / "fig4.jsonl"),
            tracer=flight.tracer,
        )
    intervals = result.all_intervals_rtt()
    pdf = interval_pdf(intervals)
    poisson = poisson_reference_pdf(pdf.rate_per_rtt(), pdf.edges)
    flight.finalize()
    return Fig4Result(
        pdf=pdf,
        poisson=poisson,
        frac_001=fraction_within(intervals, 0.01),
        frac_1=fraction_within(intervals, 1.0),
        comparison=compare_to_poisson(intervals),
        campaign=result,
    )
