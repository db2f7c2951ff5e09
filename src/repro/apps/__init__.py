"""Distributed-application models.

:mod:`repro.apps.latency` provides the theoretic lower bound that
normalizes Figure 8's parallel transfers (the workload itself is
:func:`repro.experiments.fig8_parallel.fig8_spec`), :class:`MapReduceShuffle`
the all-to-all shuffle and :class:`FlowChurn` short-flow arrivals.
"""

from repro.apps.churn import ChurnConfig, FlowChurn
from repro.apps.latency import LatencyStats, lower_bound, summarize_latencies
from repro.apps.mapreduce import MapReduceShuffle, ShuffleConfig, ShuffleResult

__all__ = [
    "ChurnConfig",
    "FlowChurn",
    "LatencyStats",
    "MapReduceShuffle",
    "ShuffleConfig",
    "ShuffleResult",
    "lower_bound",
    "summarize_latencies",
]
