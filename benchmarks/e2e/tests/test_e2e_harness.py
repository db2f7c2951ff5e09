"""The harness checks itself: declared names, smoke output, tracer
hygiene, a second seed, ``--compare``, and the empty-checkout refusal."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_benchmark(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    proc = run_benchmark("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc, out


# -- the declaration -----------------------------------------------------
def test_declaration_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert runs * (BENCHMARK["run_seconds"] + 12) < 3420  # ~12 s set-up + warm-up + slack


def test_workloads_and_pins_cover_the_declaration():
    from workloads import WORKLOADS

    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert list(WORKLOADS) == declared
    pins = json.loads((E2E / "pins.json").read_text())
    assert sorted(pins["full"]) == sorted(pins["smoke"]) == sorted(declared)


# -- smoke output --------------------------------------------------------
def test_smoke_prints_exactly_the_declared_metrics(smoke):
    proc, _ = smoke
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {
        f"{w['name']}.{m['name']}": m["unit"]
        for w in BENCHMARK["workloads"]
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for m in BENCHMARK["end_to_end"]:
        for w in BENCHMARK["workloads"]:
            assert result["metrics"][f"{w['name']}.{m['name']}"]["value"] > 0


def test_layers_land_where_the_workloads_say(smoke):
    metrics = last_json(smoke[0])["metrics"]

    def value(workload, name):
        return metrics[f"{workload}.{name}"]["value"]

    for w in BENCHMARK["workloads"]:
        assert value(w["name"], "trace.unattributed_share") < 0.05
        assert value(w["name"], "trace.overhead_ratio") > 0
    assert 1.8 < value("dumbbell_droptail", "sim.link.events_per_send") <= 2.0
    assert value("dumbbell_observed", "obs.invariant_sweeps") > 0
    assert value("dumbbell_observed", "obs.overhead_ratio") > 1.0
    assert value("dumbbell_droptail", "obs.self_s") < 0.01
    assert value("competition_paced", "sim.engine.cancel_calls") > 0
    assert value("zoo_bbr_fqcodel", "sim.queues.drops") > 0
    assert value("transfer_grid", "experiments.parallel.items") == 16
    assert value("campaign_supervised", "internet.supervisor.ledger_records") == 2
    for packet_metric in ("sim.engine.events", "sim.link.sends", "tcp.receives"):
        assert value("campaign_supervised", packet_metric) == 0
        assert value("fluid_zoo_grid", packet_metric) == 0
    assert value("fluid_zoo_grid", "sim.fluid.steps") > 0


def test_compare_of_a_run_with_itself_is_clean(smoke):
    _, out = smoke
    proc = run_benchmark("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert "exact counts and result hashes: identical" in proc.stdout
    assert "regressed" not in proc.stdout.replace("0 metric(s) regressed", "")


def test_a_second_seed_runs_clean():
    proc = run_benchmark("--smoke", "--seed", "2")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert last_json(proc)["correct"] is True


# -- --compare verdicts ----------------------------------------------------
def test_verdicts():
    from compare import verdict

    def judge(a, b, better="lower"):
        best = min if better == "lower" else max
        return verdict(best(a), best(b), a, b, better, 0.10)[0]

    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert judge(steady, [1.03, 1.02, 1.04, 1.03, 1.05]) == "ok"
    assert judge(steady, [1.20, 1.21, 1.19, 1.22, 1.20]) == "regressed"
    assert judge(steady, [0.80, 0.81, 0.79, 0.82, 0.80], "higher") == "regressed"
    noisy = [0.8, 1.0, 1.3, 0.9, 1.2]
    assert judge(noisy, [0.9, 1.1, 1.4, 1.0, 1.3]) == "unresolved"
    # Wide spread but every run of B is worse than every run of A.
    assert judge(noisy, [2.0, 2.4, 2.9, 2.2, 2.6]) == "regressed"


def test_panels_map_every_seed_into_the_panel():
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        seeds = {workload.scenario_seed(s) for s in range(64)}
        if workload.panel:
            assert seeds == set(workload.panel) and len(workload.panel) >= 10
        else:
            assert seeds == set(range(64))


# -- tracer hygiene ----------------------------------------------------------
def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import repro.experiments  # noqa: F401 - load the layers first
    import repro.internet.supervisor  # noqa: F401
    from tracing import Tracer

    tracer = Tracer(tmp_path)
    tracer.install()
    patched = tracer.patched_attributes()
    originals = {(id(owner), name): original
                 for owner, name, original in tracer._patched}
    assert len(patched) > 40
    assert all(vars(owner)[name] is not originals[(id(owner), name)]
               for owner, name in patched)
    tracer.restore()
    assert tracer.patched_attributes() == []
    assert all(vars(owner)[name] is originals[(id(owner), name)]
               for owner, name in patched)


def test_worker_cover_is_a_union_not_a_sum():
    from layers import _covered

    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)


# -- the driver's empty checkout ---------------------------------------------
def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_benchmark("--workload", "dumbbell_droptail", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
