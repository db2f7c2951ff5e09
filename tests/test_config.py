"""Tests for repro.config.RunConfig: the one reader of the REPRO_* knobs."""

import ast
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro.config
from repro.config import RunConfig

VAR = {f.name: f.metadata["var"] for f in fields(RunConfig)}

#: One well-formed raw value per field and the value it parses to.
GOOD = {
    "scale": (" Paper ", "paper"),
    "workers": ("3", 3),
    "on_error": ("RETRY", "retry"),
    "checkpoint_dir": ("state/ckpt", Path("state/ckpt")),
    "fault_seed": ("-11", -11),
    "metrics_out": ("m.json", Path("m.json")),
    "check_invariants": ("TRUE", True),
    "telemetry_out": ("runs/a", Path("runs/a")),
    "report": ("on", True),
    "metrics_port": (" 9100 ", 9100),
}

#: Every value a field must reject (path fields accept any text).
BAD = [
    ("scale", "galactic"),
    ("workers", "zero"),
    ("workers", "1.5"),
    ("workers", "0"),
    ("workers", "-2"),
    ("on_error", "explode"),
    ("fault_seed", "not-a-seed"),
    ("fault_seed", "1.5"),
    ("check_invariants", "ture"),
    ("check_invariants", "2"),
    ("report", "ture"),
    ("report", "y"),
    ("metrics_port", "80x"),
    ("metrics_port", "-1"),
    ("metrics_port", "65536"),
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in VAR.values():
        monkeypatch.delenv(var, raising=False)


def test_ten_fields_one_variable_each():
    assert list(VAR) == list(GOOD)
    assert VAR["fault_seed"] == "REPRO_FAULTS"
    for name, var in VAR.items():
        if name != "fault_seed":
            assert var == f"REPRO_{name.upper()}"


def test_unset_environment_is_the_defaults():
    cfg = RunConfig.from_env()
    assert cfg == RunConfig()
    assert cfg.scale == "fast"
    assert cfg.check_invariants is False and cfg.report is False
    assert cfg.workers is cfg.on_error is cfg.fault_seed is cfg.metrics_port is None
    assert cfg.checkpoint_dir is cfg.metrics_out is cfg.telemetry_out is None


@pytest.mark.parametrize("name", list(GOOD))
def test_each_field_parses(monkeypatch, name):
    raw, expected = GOOD[name]
    monkeypatch.setenv(VAR[name], raw)
    assert getattr(RunConfig.from_env(), name) == expected


@pytest.mark.parametrize("name", list(GOOD))
def test_blank_means_unset(monkeypatch, name):
    monkeypatch.setenv(VAR[name], "  ")
    assert RunConfig.from_env() == RunConfig()


@pytest.mark.parametrize("name, raw", BAD)
def test_bad_value_names_variable_and_value(monkeypatch, name, raw):
    monkeypatch.setenv(VAR[name], raw)
    with pytest.raises(ValueError) as exc:
        RunConfig.from_env()
    assert VAR[name] in str(exc.value)
    assert repr(raw) in str(exc.value)


def test_choices_match_their_owners(monkeypatch):
    # The stdlib-only parser repeats two lists its consumers own.
    from repro.experiments.common import _PROFILES
    from repro.faults.resilient import ON_ERROR_POLICIES

    for scale in _PROFILES:
        monkeypatch.setenv("REPRO_SCALE", scale)
        assert RunConfig.from_env().scale == scale
    for policy in ON_ERROR_POLICIES:
        monkeypatch.setenv("REPRO_ON_ERROR", policy)
        assert RunConfig.from_env().on_error == policy


@pytest.mark.parametrize("name", ["check_invariants", "report"])
@pytest.mark.parametrize("raw, expected", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("off", False), ("", False),
])
def test_boolean_sets(monkeypatch, name, raw, expected):
    monkeypatch.setenv(VAR[name], raw)
    assert getattr(RunConfig.from_env(), name) is expected


def test_port_bounds_inclusive(monkeypatch):
    for raw, port in (("0", 0), ("65535", 65535)):
        monkeypatch.setenv("REPRO_METRICS_PORT", raw)
        assert RunConfig.from_env().metrics_port == port


def test_nothing_is_cached(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert RunConfig.from_env().workers == 2
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert RunConfig.from_env().workers == 4
    monkeypatch.delenv("REPRO_WORKERS")
    assert RunConfig.from_env().workers is None


def test_frozen():
    with pytest.raises(AttributeError):
        RunConfig().workers = 2


def test_manifest_env_keeps_raw_strings(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCALE", "FAST")
    monkeypatch.setenv("REPRO_FAULTS", "011")
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "")
    # Path knobs stay out: reports must not depend on where artifacts land.
    monkeypatch.setenv("REPRO_TELEMETRY_OUT", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert RunConfig.manifest_env() == {"REPRO_SCALE": "FAST", "REPRO_FAULTS": "011"}


def test_imports_only_the_stdlib():
    tree = ast.parse(Path(repro.config.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(node.module.split(".")[0])
    assert roots - {"__future__"} <= set(sys.stdlib_module_names), roots
