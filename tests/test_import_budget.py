"""Cold start pays only for what a command uses.

Module-set assertions, not timings: ``scipy`` (the KS p-value) and
``http.server`` (the ``--metrics-port`` endpoint) are loaded by the call
that needs them, never by ``import repro...``; and deferring the KS pair
changed when it is computed, not what it is.
"""

import json
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import compare_to_poisson, exponential_ks_test
from repro.experiments import FAST, run_fig2
from tests.conftest import cli_env


#: The e2e ledger's smoke sizes (benchmarks/e2e/workloads.py).
SMOKE_OVERRIDES = dict(
    measure_duration=0.8, fig7_duration=0.5,
    fig8_repetitions=1, fig8_total_bytes=2**17,
)
SMOKE = replace(FAST, **SMOKE_OVERRIDES)


@pytest.fixture(scope="module")
def fig2_smoke():
    return run_fig2(1, SMOKE)


def _python(code: str, cwd=None) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=cli_env(), cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _direct_ks(x: np.ndarray) -> tuple[float, float]:
    res = stats.kstest(x, "expon", args=(0, x.mean()))
    return float(res.statistic), float(res.pvalue)


class TestImportSet:
    def test_package_import_loads_no_heavy_module(self, tmp_path):
        """The whole public surface imports without scipy / http.server,
        and a server started afterwards still answers ``/metrics``."""
        out = _python(
            """
            import sys, urllib.request
            import repro, repro.cli, repro.core, repro.experiments
            import repro.internet.supervisor, repro.obs

            heavy = ("scipy", "networkx", "matplotlib", "http.server")
            print([m for m in heavy if m in sys.modules])
            with repro.obs.ObsServer(".", port=0) as server:
                url = f"http://127.0.0.1:{server.port}/metrics"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    print(resp.status, b"repro_fleet_status" in resp.read())
            print("http.server" in sys.modules)
            """,
            cwd=tmp_path,
        )
        assert out.splitlines() == ["[]", "200 True", "True"]

    def test_runner_import_loads_no_driver(self, tmp_path):
        """The process runner and the campaign supervisor load the
        package's ``__init__`` and ``parallel`` and no driver: the
        package re-exports its drivers lazily."""
        out = _python(
            """
            import sys
            import repro.internet.supervisor, repro.experiments.parallel
            print(sorted(m for m in sys.modules if m.startswith("repro.experiments")))
            """,
            cwd=tmp_path,
        )
        assert out.splitlines() == ["['repro.experiments', 'repro.experiments.parallel']"]

    def test_drivers_run_with_scipy_unimportable(self, tmp_path, fig2_smoke):
        """Every ledger workload's driver completes — fork workers
        included — when importing scipy raises; only reading the KS pair
        needs it (so the deferral is real, not a try/except fallback)."""
        out = _python(
            f"""
            import json, sys
            from dataclasses import replace

            class BlockScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError("scipy is blocked")

            sys.meta_path.insert(0, BlockScipy())

            from repro.experiments import (
                FAST, run_fig2, run_fig7, run_fig8, run_zoo, run_zoo_cell)
            from repro.internet.supervisor import run_sharded_campaign

            smoke = replace(FAST, **{SMOKE_OVERRIDES!r})
            fig2 = run_fig2(1, smoke)
            run_fig7(1, smoke)
            run_zoo_cell(1, smoke, "bbr", "fq-codel")
            fig8 = run_fig8(1, smoke, workers=2)
            campaign = run_sharded_campaign(6, 2, "state", 1, workers=2)
            fluid = run_zoo(1, replace(smoke, fig7_duration=0.05), backend="fluid")
            try:
                fig2.comparison.ks_pvalue
                blocked = None
            except ImportError as exc:
                blocked = str(exc)
            print(json.dumps({{
                "fig2": fig2.to_text(),
                "cv": fig2.comparison.cv,
                "fig8_failures": len(fig8.failures),
                "campaign": campaign.status,
                "fluid_failed": [f for f in fluid.failed
                                 if "fluid unsupported" not in f],
                "blocked": blocked,
                "scipy_loaded": "scipy" in sys.modules,
            }}))
            """,
            cwd=tmp_path,
        )
        got = json.loads(out.splitlines()[-1])
        assert got.pop("fig2") == fig2_smoke.to_text()
        assert got == {
            "cv": fig2_smoke.comparison.cv,
            "fig8_failures": 0,
            "campaign": "COMPLETE",
            "fluid_failed": [],
            "blocked": "scipy is blocked",
            "scipy_loaded": False,
        }


@st.composite
def interval_samples(draw):
    # scipy's kstest switches from the exact to the asymptotic p-value
    # above n = 10 000: sample both sides and the boundary itself.
    n = draw(st.one_of(
        st.integers(2, 40), st.integers(9_990, 10_010), st.integers(2, 20_000),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("exponential", "bursty", "ties", "lognormal")))
    if kind == "exponential":
        return rng.exponential(draw(st.floats(1e-6, 1e3)), n)
    if kind == "bursty":
        return np.where(rng.random(n) < 0.9, 1e-4, 5.0) * rng.random(n)
    if kind == "ties":
        x = rng.integers(0, 4, n).astype(np.float64)
        x[0] = 1.0  # not all zero: the zero-mean shortcut is tested apart
        return x
    return rng.lognormal(0.0, 2.0, n)


class TestKsIdentity:
    def test_fig2_comparison_equals_direct_scipy(self, fig2_smoke):
        cmp = fig2_smoke.comparison
        assert cmp._ks == _direct_ks(cmp.intervals)
        assert cmp.ks_pvalue == cmp._ks[1]
        assert cmp.rejects_poisson == (cmp.ks_pvalue < 0.01)

    @settings(max_examples=60)
    @given(interval_samples())
    def test_equals_direct_scipy(self, x):
        cmp = compare_to_poisson(x)
        assert cmp._ks == _direct_ks(x)
        assert cmp.ks_pvalue == cmp._ks[1]
        assert exponential_ks_test(x) == _direct_ks(x)

    def test_evaluated_once_on_first_read(self, monkeypatch):
        calls = []
        real = stats.kstest

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(stats, "kstest", counting)
        cmp = compare_to_poisson(np.random.default_rng(0).exponential(0.3, 500))
        assert calls == []
        first = (cmp._ks, cmp.ks_pvalue, cmp.rejects_poisson)
        assert len(calls) == 1
        assert (cmp._ks, cmp.ks_pvalue, cmp.rejects_poisson) == first
        assert len(calls) == 1

    def test_zero_mean_shortcut(self):
        assert exponential_ks_test(np.zeros(5)) == (1.0, 0.0)


class TestGarbageIntervals:
    @pytest.mark.parametrize("bad, message", [
        ([1.0, np.nan, 2.0], "1 of 3 intervals are non-finite"),
        ([np.inf, 1.0, -np.inf, np.nan], "3 of 4 intervals are non-finite"),
        ([1.0, -0.5, 2.0, -1e-9], "2 of 4 intervals are negative"),
        ([1.0], "need at least 2 intervals, got 1"),
    ])
    def test_rejected_eagerly_with_a_count(self, bad, message):
        with pytest.raises(ValueError, match=message):
            exponential_ks_test(np.array(bad))
        with pytest.raises(ValueError, match=message):
            compare_to_poisson(np.array(bad))  # not later, on attribute read
