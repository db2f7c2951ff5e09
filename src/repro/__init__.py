"""repro — reproduction of *Packet Loss Burstiness: Measurements and
Implications for Distributed Applications* (Wei, Cao, Low; IPDPS 2007).

Subpackages
-----------
``repro.core``
    The paper's analytical contribution: inter-loss-interval analysis,
    burstiness metrics, Poisson references, the Gilbert–Elliott model, and
    the Eq. (1)/(2) loss-detection model.
``repro.sim``
    Discrete-event network simulator (NS-2 equivalent): engine, links
    (optionally with the Dummynet pipe's per-packet processing noise),
    DropTail/RED queues, dumbbell topology, traces.
``repro.tcp``
    Transport protocols: TCP Reno / NewReno (window-based), TCP Pacing and
    TFRC (rate-based), CBR probes, exponential on-off noise.
``repro.internet``
    PlanetLab-equivalent Internet measurement substrate: 26-site registry,
    synthetic path RTT/loss models, CBR probing campaigns.
``repro.apps``
    Distributed-application models (parallel chunked transfers).
``repro.obs``
    Observability: metrics registry, packet-conservation invariant
    checker, event-loop profiling (wired into experiments and the CLI).
``repro.faults``
    Fault injection and resilient execution: seed-reproducible fault
    plans (link flaps, loss spikes, probe crashes), retry policies, and
    JSON-lines checkpoints for interruptible campaigns.
``repro.experiments``
    One driver per paper figure/table; see DESIGN.md for the index.
``repro.config``
    ``RunConfig``: the run's ``REPRO_*`` environment knobs, typed and
    parsed in one place (the CLI's flags set them).
``repro.extensions``
    Paper §5 / future-work features (persistent ECN signal, RED tuning).
"""

__version__ = "1.0.0"

__all__ = [
    "apps",
    "core",
    "experiments",
    "extensions",
    "faults",
    "internet",
    "obs",
    "sim",
    "tcp",
]
