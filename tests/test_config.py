"""Tests for repro.config.RunConfig: the one reader of the REPRO_* knobs."""

import ast
import re
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


def test_named_gives_each_run_its_own_artifacts(tmp_path):
    cfg = RunConfig(metrics_out=tmp_path / "m.json", telemetry_out=tmp_path / "D", workers=2)
    named = cfg.named("shortflows.churn")
    assert named.metrics_out == tmp_path / "m.shortflows.churn.json"
    assert named.telemetry_out == tmp_path / "D" / "shortflows.churn"
    assert named.workers == 2
    assert RunConfig(metrics_out=Path("m")).named("a").metrics_out == Path("m.a.json")
    assert RunConfig().named("a") == RunConfig()


def test_imports_only_the_stdlib():
    tree = ast.parse(Path(repro.config.__file__).read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(node.module.split(".")[0])
    assert roots - {"__future__"} <= set(sys.stdlib_module_names), roots


# -- the knob audit -------------------------------------------------------
PACKAGE = Path(repro.config.__file__).resolve().parent

#: Where the package may touch the environment: anywhere in ``config.py``
#: (the one reader), the CLI's flag round trip, and the top-smoke's copy
#: of the environment for its subprocess.  Keys are (module, function).
ENVIRON_USERS = {("config.py", None), ("cli.py", "_flags_in_env"),
                 ("obs/topsmoke.py", "_spawn_campaign")}

#: Spellings that read or write the process environment.
ENVIRON_NAMES = {"environ", "getenv", "putenv", "unsetenv", "environb", "getenvb"}


def _package_sources():
    return sorted(PACKAGE.rglob("*.py"))


def _environ_uses(tree):
    """``(function, line)`` of every ``os.environ``-style access, where
    ``function`` is the innermost enclosing ``def`` (None at module level)."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRON_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            uses.append((func, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            uses.extend((func, node.lineno) for a in node.names if a.name in ENVIRON_NAMES)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_run_config_owns_every_repro_variable():
    """The ``REPRO_*`` names anywhere in the package are exactly
    ``RunConfig``'s ten variables: a knob outside it would bypass the
    CLI's flag table, validation and the run manifest."""
    named = set()
    for path in _package_sources():
        named.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert named == set(VAR.values())


def test_environment_is_touched_only_by_the_knob_plumbing():
    stray = []
    for path in _package_sources():
        module = path.relative_to(PACKAGE).as_posix()
        for func, line in _environ_uses(ast.parse(path.read_text())):
            if (module, None) not in ENVIRON_USERS and (module, func) not in ENVIRON_USERS:
                stray.append(f"{module}:{line} in {func or '<module>'}")
    assert not stray


# -- the fan-out audit ----------------------------------------------------
#: Modules that start processes and what each may use: the one process
#: runner, and the top-smoke's launch of the CLI as a child.
PROCESS_STARTERS = {"multiprocessing": "experiments/parallel.py",
                    "subprocess": "obs/topsmoke.py"}

#: ``os`` functions that start a process.
OS_PROCESS_CALLS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen"}


def _process_starts(tree):
    """``(what, line)`` of every import that can start a process and every
    ``os`` process call in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.module.split(".")[0], node.lineno))
            if node.module == "os":
                found.extend((f"os.{a.name}", node.lineno) for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            found.append((f"os.{node.attr}", node.lineno))
    return [(what, line) for what, line in found
            if what in PROCESS_STARTERS or what == "concurrent"
            or (what.startswith("os.") and what[3:] in OS_PROCESS_CALLS)]


def test_processes_start_only_in_the_runner():
    """One process runner: ``concurrent.futures`` nowhere, ``multiprocessing``
    only in ``repro.experiments.parallel``, no ``os.fork`` at all — a
    second pool would bring back a second crash and retry contract."""
    stray = []
    for path in _package_sources():
        module = path.relative_to(PACKAGE).as_posix()
        for what, line in _process_starts(ast.parse(path.read_text())):
            if PROCESS_STARTERS.get(what) != module:
                stray.append(f"{module}:{line} {what}")
    assert not stray
