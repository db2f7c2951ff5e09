# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test import-budget check-invariants faults report zoo-smoke fluid-smoke fluid-convergence chaos overhead-tripwire bench-e2e bench-e2e-smoke bench-micro bench-paper text-hashes figures examples clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The lanes listed here drive the CLI or a module; `import-budget`,
# `faults`, `zoo-smoke`, `fluid-smoke` and `chaos` are selections of
# the `pytest tests/` below and run by name only.
test: check-invariants report overhead-tripwire
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Start-up cost lane: `import repro...` must not load scipy, networkx,
# matplotlib or http.server, every driver must run with scipy
# un-importable, and the on-demand KS pair must equal scipy's.  The
# import ledger below it is informational (cumulative us; no threshold).
import-budget:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_import_budget.py
	PYTHONPATH=src $(PYTHON) -X importtime -c "import repro.experiments" 2>&1 | sort -t'|' -k2 -n | tail -10

# Chaos lane: SIGKILL the live campaign supervisor from outside, hang
# and kill its shard workers from inside, resume — every scenario must
# converge to bytes identical to a clean run.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/internet/test_chaos.py

# Protocol/AQM zoo lane: every registered sender and queue kind must run
# a grid cell (the registry-completeness tests fail on unregistered-but-
# untested variants), plus the full sender x queue conservation matrix.
zoo-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/experiments/test_zoo.py tests/integration/test_zoo_matrix.py tests/tcp/test_registry.py tests/sim/test_codel.py

# Fluid lane: mean-field engine invariants (conservation, determinism,
# dt-halving) plus the N=100 vs N=1k packet-vs-fluid convergence pair.
fluid-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/sim/test_fluid.py tests/experiments/test_manyflows.py

# Full convergence run: adds the N=10k leg (several minutes of packet
# simulation) and the 100x flows/sec assertion.  Opt-in, not in `test`.
fluid-convergence:
	REPRO_FLUID_FULL=1 PYTHONPATH=src $(PYTHON) -m pytest -q tests/experiments/test_manyflows.py

# Conservation smoke: run the two simulator-heavy figures with the
# invariant checker armed; any accounting violation aborts the run.
# The second fig2 line re-runs with fault injection armed: conservation
# identities must hold even while links flap (injected drops are
# accounted separately, see repro.obs.invariants.check_link).
check-invariants:
	PYTHONPATH=src $(PYTHON) -m repro fig2 --check-invariants --metrics-out metrics/fig2.json
	PYTHONPATH=src $(PYTHON) -m repro fig7 --check-invariants --metrics-out metrics/fig7.json
	PYTHONPATH=src $(PYTHON) -m repro fig2 --check-invariants --inject-faults 11 --metrics-out metrics/fig2-faults.json

# Fault-injection lane: armed fault plan, retry/skip policies,
# kill+resume bit-identity, link flaps under the invariant checker,
# tracefile corruption (a selection of `pytest tests/`).
faults:
	PYTHONPATH=src $(PYTHON) -m pytest -q -k faults

# Flight-recorder smoke: record a telemetry-armed fig2, render its
# report twice (once automatically via --report, once via the report
# command), and validate the required sections are present and ordered.
report:
	rm -rf runs/smoke
	PYTHONPATH=src $(PYTHON) -m repro fig2 --telemetry-out runs/smoke --report
	PYTHONPATH=src $(PYTHON) -m repro report runs/smoke --html > /dev/null
	PYTHONPATH=src $(PYTHON) -c "from pathlib import Path; from repro.obs import validate_report; validate_report(Path('runs/smoke/report.md').read_text()); print('report: ok')"

# Two tripwires on the packet path.  Disabled telemetry: inert
# observe_run wiring must cost < 5% over a bare run (min of five
# interleaved passes).  Frames per event: a sys.setprofile count over a
# seeded run_fig2, bare and with observability armed, <= 5.5 Python
# frames per dispatched event — exact on any box, and a helper frame back
# on the per-hop path (or a per-callback hook on the armed one) fails it
# by name.
overhead-tripwire:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/test_perf_micro.py::test_perf_disabled_telemetry_overhead benchmarks/test_perf_micro.py::test_perf_frames_per_event

# Command-level performance ledger (BENCHMARK.json, benchmarks/e2e/):
# the lane performance claims are judged in.  The smoke form is a
# sub-minute single repetition and is not part of default `make test`.
bench-e2e:
	python3 benchmarks/e2e/run.py

bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

# pytest-benchmark micro lane (multi-round statistical measurements).
bench-micro:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-paper:
	REPRO_SCALE=paper PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Byte-identity check for a behaviour-preserving change: the sha256 of
# every deterministic driver's `--seed 1` text with its `[cmd: 1.2s]`
# timing line stripped, one `<cmd> <sha256>` line each (~1 min).  Run it
# in both checkouts and diff the two outputs.
TEXT_HASH_CMDS = fig2 fig3 fig4 fig7 fig8 eq12 ecn red shortflows methodology delay mapreduce table1

text-hashes:
	@out=$$(mktemp) || exit 1; \
	for c in $(TEXT_HASH_CMDS); do \
	  PYTHONPATH=src $(PYTHON) -m repro $$c --seed 1 > $$out || { rm -f $$out; exit 1; }; \
	  echo "$$c $$(grep -v "^\[$$c: " $$out | sha256sum | cut -d' ' -f1)"; \
	done; rm -f $$out

figures:
	PYTHONPATH=src $(PYTHON) examples/export_figures.py figures/

examples:
	for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis figures metrics runs
	find . -name __pycache__ -type d -exec rm -rf {} +
