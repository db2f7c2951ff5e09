"""Choose the scenario-seed panels of the seed-chaotic workloads.

    python3 benchmarks/e2e/panel.py [--candidates 160] [--size 16]

For each workload that has a panel it runs the driver once per candidate
seed (serially, with only ``Simulator.run`` wrapped, so the count is the
exact number of events), and prints the ``--size`` seeds whose work is
closest to the median as the tuple to paste into ``workloads.py``.  Run it
again when a change to the simulation moves the work of the panel seeds
apart (the spread it prints for the current panel says so).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from compare import spread  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--candidates", type=int, default=160)
    parser.add_argument("--size", type=int, default=16)
    args = parser.parse_args(argv)
    seen = set()
    for workload in WORKLOADS.values():
        if not workload.panel or workload.panel in seen:
            continue  # dumbbell_observed shares dumbbell_droptail's panel
        seen.add(workload.panel)
        size = {**workload.sizes["full"], "workers": 0}
        events = {}
        with tempfile.TemporaryDirectory() as tmp:
            tracer = Tracer(Path(tmp), callbacks=False)
            with tracer.installed():
                for seed in range(1, args.candidates + 1):
                    workload.run(seed, size, Path(tmp))
                    events[seed] = tracer.collect()["counts"]["events"]
        median = statistics.median(events.values())
        chosen = sorted(sorted(events, key=lambda s: abs(events[s] - median))[:args.size])
        print(f"{workload.name}: median work {median:.0f} events over "
              f"{args.candidates} seeds, spread {spread(list(events.values())):.3f}")
        print(f"  current panel spread "
              f"{spread([events[s] for s in workload.panel if s in events]):.4f}")
        print(f"  chosen panel  spread {spread([events[s] for s in chosen]):.4f}, "
              f"work {min(events[s] for s in chosen)}..{max(events[s] for s in chosen)}")
        print(f"  panel={tuple(chosen)},")
    return 0


if __name__ == "__main__":
    sys.exit(main())
