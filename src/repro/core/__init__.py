"""Core contribution: sub-RTT packet-loss burstiness analysis and models.

This package is the analytical half of the paper:

* :mod:`repro.core.intervals` / :mod:`repro.core.pdf` — RTT-normalized
  inter-loss intervals and their PDF at the paper's 0.02-RTT resolution
  (Figures 2–4), with same-rate Poisson references.
* :mod:`repro.core.burstiness` — headline mass fractions (<0.01 RTT,
  <1 RTT), CV, dispersion, burst clustering.
* :mod:`repro.core.poisson` — formal Poisson comparisons (KS test,
  first-bin excess).
* :mod:`repro.core.gilbert` — Gilbert–Elliott fit/synthesis for loss
  traces (the "more rigorous model" of the paper's future work).
* :mod:`repro.core.events` — loss-event (congestion-event) clustering.
* :mod:`repro.core.detection` — Eqs. (1)/(2): per-class loss-detection
  model and throughput-ratio prediction.
"""

from repro.core.burstiness import (
    Burst,
    BurstinessSummary,
    burst_sizes,
    burstiness_summary,
    cluster_bursts,
    coefficient_of_variation,
    fraction_within,
    index_of_dispersion,
)
from repro.core.detection import (
    DetectionModel,
    detection_ratio,
    empirical_flows_per_event,
    l_rate_based,
    l_window_based,
    predicted_throughput_ratio,
)
from repro.core.events import (
    LossEvent,
    cluster_loss_events,
    distinct_flows_per_event,
    event_sizes,
    event_spans,
)
from repro.core.gilbert import (
    GilbertModel,
    conditional_loss_probability,
    fit_gilbert,
    loss_run_lengths,
)
from repro.core.intervals import intervals_from_trace, loss_intervals, normalize_by_rtt
from repro.core.pdf import IntervalPdf, interval_pdf, poisson_reference_pdf
from repro.core.fairness import jain_index, time_to_fair
from repro.core.queueing import (
    mm1_utilization,
    mm1k_blocking_probability,
    mm1k_distribution,
    mm1k_mean_occupancy,
)
from repro.core.poisson import (
    PoissonComparison,
    compare_to_poisson,
    exponential_ks_test,
    first_bin_excess,
    poisson_process,
)
from repro.core.report import (
    format_pdf_series,
    format_series,
    format_table,
    pdf_figure_text,
    write_csv,
)
from repro.core.selfsim import (
    SelfSimilarityReport,
    hurst_aggregated_variance,
    hurst_rescaled_range,
    idc_curve,
    self_similarity_report,
)
from repro.core.tcptrace import (
    MethodologyComparison,
    compare_methodologies,
    reconstruct_losses_from_retransmissions,
)

__all__ = [
    "Burst",
    "BurstinessSummary",
    "DetectionModel",
    "GilbertModel",
    "IntervalPdf",
    "LossEvent",
    "MethodologyComparison",
    "PoissonComparison",
    "SelfSimilarityReport",
    "burst_sizes",
    "burstiness_summary",
    "cluster_bursts",
    "cluster_loss_events",
    "coefficient_of_variation",
    "compare_methodologies",
    "compare_to_poisson",
    "conditional_loss_probability",
    "detection_ratio",
    "distinct_flows_per_event",
    "empirical_flows_per_event",
    "event_sizes",
    "event_spans",
    "exponential_ks_test",
    "first_bin_excess",
    "fit_gilbert",
    "format_pdf_series",
    "format_series",
    "format_table",
    "fraction_within",
    "hurst_aggregated_variance",
    "hurst_rescaled_range",
    "idc_curve",
    "index_of_dispersion",
    "interval_pdf",
    "intervals_from_trace",
    "jain_index",
    "l_rate_based",
    "l_window_based",
    "loss_intervals",
    "loss_run_lengths",
    "mm1_utilization",
    "mm1k_blocking_probability",
    "mm1k_distribution",
    "mm1k_mean_occupancy",
    "normalize_by_rtt",
    "pdf_figure_text",
    "poisson_process",
    "poisson_reference_pdf",
    "predicted_throughput_ratio",
    "reconstruct_losses_from_retransmissions",
    "self_similarity_report",
    "time_to_fair",
    "write_csv",
]
