"""Experiment drivers — one per paper figure/table (see DESIGN.md §4).

Each ``run_*`` function builds its scenario from a :class:`Scale` profile
(``REPRO_SCALE=fast|paper``), runs it, and returns a result object with
the paper's headline numbers plus ``to_text()`` producing the same rows /
series the paper reports.
"""

import importlib

#: Where each re-exported name lives.  Importing the package loads none
#: of them: a name's module is imported on first access (PEP 562), so
#: ``import repro.experiments.parallel`` does not pay for every driver.
_EXPORTS = {
    "FAST": "common",
    "PAPER": "common",
    "Scale": "common",
    "current_scale": "common",
    "Eq12Result": "eq12_detection",
    "analytic_table": "eq12_detection",
    "run_eq12": "eq12_detection",
    "Fig2Result": "fig2_ns2",
    "run_fig2": "fig2_ns2",
    "Fig3Result": "fig3_dummynet",
    "run_fig3": "fig3_dummynet",
    "Fig4Result": "fig4_planetlab",
    "run_fig4": "fig4_planetlab",
    "Fig7Result": "fig7_competition",
    "run_fig7": "fig7_competition",
    "Fig8Result": "fig8_parallel",
    "run_fig8": "fig8_parallel",
    "run_fig8_cell": "fig8_parallel",
    "ManyFlowsCell": "manyflows",
    "ManyFlowsResult": "manyflows",
    "ManyFlowsRow": "manyflows",
    "run_manyflows": "manyflows",
    "run_manyflows_fluid": "manyflows",
    "run_manyflows_packet": "manyflows",
    "MapReduceResult": "mapreduce_shuffle",
    "run_mapreduce": "mapreduce_shuffle",
    "MethodologyResult": "methodology",
    "run_methodology": "methodology",
    "default_workers": "parallel",
    "parallel_map": "parallel",
    "ShortFlowResult": "shortflows",
    "run_shortflows": "shortflows",
    "Table1Result": "table1_sites",
    "run_table1": "table1_sites",
    "ZooCellResult": "zoo_grid",
    "ZooGridResult": "zoo_grid",
    "run_zoo": "zoo_grid",
    "run_zoo_cell": "zoo_grid",
}


__all__ = [
    "FAST",
    "PAPER",
    "Eq12Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig7Result",
    "Fig8Result",
    "ManyFlowsCell",
    "ManyFlowsResult",
    "ManyFlowsRow",
    "MapReduceResult",
    "MethodologyResult",
    "Scale",
    "ShortFlowResult",
    "Table1Result",
    "ZooCellResult",
    "ZooGridResult",
    "analytic_table",
    "current_scale",
    "default_workers",
    "parallel_map",
    "run_eq12",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig7",
    "run_fig8",
    "run_fig8_cell",
    "run_manyflows",
    "run_manyflows_fluid",
    "run_manyflows_packet",
    "run_mapreduce",
    "run_methodology",
    "run_shortflows",
    "run_table1",
    "run_zoo",
    "run_zoo_cell",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
