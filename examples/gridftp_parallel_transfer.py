#!/usr/bin/env python
"""GridFTP-style parallel transfer: how many flows should you use?

Reproduces the paper's §4.2 scenario (Figure 8): a fixed payload split
into equal chunks over N parallel TCP flows.  Because the bottleneck's
losses come in sub-RTT bursts, only some flows lose slow-start packets —
those flows drop to half speed (or worse) while their siblings race ahead,
and the *slowest* chunk defines the transfer's latency.  The result:
completion times far above the bandwidth bound and hard to predict,
especially at long RTTs with few flows.

Run:  python examples/gridftp_parallel_transfer.py
"""

from dataclasses import replace

import numpy as np

from repro.apps import lower_bound
from repro.core.report import format_table
from repro.experiments import FAST
from repro.experiments.fig8_parallel import fig8_spec
from repro.experiments.scenario import run_scenario

# Figure 8's fast cell (8 MB over a 20 Mbps interconnect; the paper moves
# 64 MB at 100 Mbps) at a rack-local and a cross-continent RTT.
SCALE = replace(FAST, fig8_rtts=(0.010, 0.200))
REPETITIONS = 3


def one_transfer(n_flows: int, rtt: float, seed: int) -> np.ndarray:
    """Run one transfer; returns every flow's finish time over the bound
    (1.0 = a fully-utilized bottleneck; ``inf`` = never finished)."""
    run = run_scenario(fig8_spec(n_flows, rtt, SCALE), seed, "gridftp")
    finish = [snd.stats.finish_time for snd, _ in run.flows]
    bound = lower_bound(SCALE.fig8_total_bytes, SCALE.fig8_capacity_bps)
    return np.array([np.inf if t is None else t for t in finish]) / bound


def main() -> None:
    bound = lower_bound(SCALE.fig8_total_bytes, SCALE.fig8_capacity_bps)
    print(f"payload {SCALE.fig8_total_bytes / 2**20:.0f} MB over "
          f"{SCALE.fig8_capacity_bps / 1e6:.0f} Mbps; theoretic lower bound {bound:.2f} s\n")

    rows = []
    for rtt in SCALE.fig8_rtts:
        for n in SCALE.fig8_flow_counts:
            runs = [one_transfer(n, rtt, seed=1000 * n + r) for r in range(REPETITIONS)]
            lats = np.array([f.max() for f in runs])
            spread = np.array([f.max() / f.min() for f in runs])
            rows.append([
                f"{rtt * 1e3:.0f}ms", n,
                f"{lats.mean():.2f}x", f"{lats.std():.2f}",
                f"{lats.min():.2f}-{lats.max():.2f}",
                f"{spread.mean():.2f}x",
            ])
    print(format_table(
        ["RTT", "flows", "mean latency", "std", "range", "last/first flow"],
        rows,
        title="Normalized transfer latency (1.0x = fully-utilized bottleneck)",
    ))
    print("""
reading the table (cf. paper Figure 8):
  * latency is always above the bound — slow start + loss recovery
  * long-RTT cells are far slower AND far noisier: losses hit flows
    unevenly, and the slowest flow is the transfer
  * sibling flows finish far apart (last/first flow): the ones that
    missed the loss bursts race ahead of the ones they hit
  * adding flows at long RTT first helps (more slow-start aggression),
    which is exactly why predicting the right N is hard""")


if __name__ == "__main__":
    main()
