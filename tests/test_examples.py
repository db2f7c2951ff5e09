"""Examples stay runnable.

Every example must at least compile and expose ``main``; the fast ones are
executed end-to-end (the slower, figure-scale ones are exercised through
the benchmark suite that shares their drivers).
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

FAST_EXAMPLES = ["quickstart.py", "internet_measurement.py", "mapreduce_shuffle.py"]


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 5


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_and_has_main(path):
    compile(path.read_text(), str(path), "exec")  # syntax, no .pyc written
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # imports only; __main__ guard blocks runs
    assert callable(getattr(mod, "main", None)), f"{path.name} lacks main()"


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_examples_run_clean(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    assert len(proc.stdout) > 200  # produced a real report
