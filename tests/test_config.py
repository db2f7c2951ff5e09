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
#: (the one reader) and the CLI's flag round trip.  Keys are (module,
#: function).
ENVIRON_USERS = {("config.py", None), ("cli.py", "_flags_in_env")}

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
#: runner, and nothing else (``subprocess`` nowhere).
PROCESS_STARTERS = {"multiprocessing": "experiments/parallel.py",
                    "subprocess": None}

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
    """One process runner: ``concurrent.futures`` and ``subprocess``
    nowhere, ``multiprocessing`` only in ``repro.experiments.parallel``,
    no ``os.fork`` at all — a second pool would bring back a second crash and retry contract."""
    stray = []
    for path in _package_sources():
        module = path.relative_to(PACKAGE).as_posix()
        for what, line in _process_starts(ast.parse(path.read_text())):
            if PROCESS_STARTERS.get(what) != module:
                stray.append(f"{module}:{line} {what}")
    assert not stray


def _subprocess_envs(tree):
    """``(line, env expression)`` of every ``subprocess`` call that passes
    ``env=``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "subprocess"):
            found.extend((node.lineno, kw.value) for kw in node.keywords
                         if kw.arg == "env")
    return found


def test_subprocess_env_is_cli_env():
    """A test that hands a child ``python`` its own ``env`` builds it with
    ``tests.conftest.cli_env()``: a hand-built dict drops variables such
    as ``PYTHONDONTWRITEBYTECODE`` and leaves bytecode under ``src/``."""
    tests = PACKAGE.parent.parent / "tests"
    stray = []
    for path in sorted(tests.rglob("*.py")):
        for line, env in _subprocess_envs(ast.parse(path.read_text())):
            if not (isinstance(env, ast.Call) and isinstance(env.func, ast.Name)
                    and env.func.id == "cli_env" and not env.args):
                stray.append(f"{path.relative_to(tests)}:{line}")
    assert not stray


# -- the reachability audit -----------------------------------------------
REPO = PACKAGE.parent.parent

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: The defs no root reaches that stay anyway, each with its one reason.
#: A reason is one of four kinds: a test oracle, a stdlib override, an
#: open ROADMAP item that needs the def, or library API that
#: docs/TUTORIAL.md documents.  An entry covers the members of the class
#: it names.  This list only shrinks.
UNREACHED_ON_PURPOSE = {
    "repro.sim.reference.ReferenceSimulator":
        "test oracle: the original heap engine Simulator is held to",
    "repro.internet.probe.run_probe":
        "test oracle: the per-path probe run of tests/internet/probe_oracle.py",
    "repro.internet.pathmodel.PathLossModel.lost_mask":
        "test oracle: the per-probe loss decision the analytic kernel is held to",
    "repro.internet.shards.SyntheticMesh.path_by_index":
        "test oracle: the mesh accessor tests/internet/probe_oracle.py walks",
    "repro.core.queueing.mm1k_distribution":
        "test oracle: M/M/1/K closed form for the queue validation tests",
    "repro.core.queueing.mm1k_blocking_probability":
        "test oracle: M/M/1/K closed form for the queue validation tests",
    "repro.core.queueing.mm1k_mean_occupancy":
        "test oracle: M/M/1/K closed form for the queue validation tests",
    "repro.core.queueing.mm1_utilization":
        "test oracle: M/M/1 closed form for the queue validation tests",
    "repro.obs.httpd.ObsServer.__init__.Handler.do_GET":
        "stdlib override: http.server dispatches GET to it",
    "repro.obs.httpd.ObsServer.__init__.Handler.log_message":
        "stdlib override: silences http.server's per-request log",
    "repro.core.detection.DetectionModel":
        "ROADMAP 8 (a): the Eq. 1-2 expectations the clump-size law generalises",
    "repro.core.detection.empirical_flows_per_event":
        "ROADMAP 12 (b): measured Eq. 1-2 detections against planted truth",
    "repro.core.detection.predicted_throughput_ratio":
        "ROADMAP 3 (a): the sqrt(p) helper the AIMD predictor replaces",
    "repro.core.events.event_sizes":
        "ROADMAP 12 (b): the per-event drop counts M that Eq. 1-2 take",
    "repro.core.burstiness.index_of_dispersion":
        "ROADMAP 12 (b): IDC recovered from planted truth",
    "repro.core.selfsim.SelfSimilarityReport.idc_growth":
        "ROADMAP 12 (b): IDC growth across scales on planted truth",
    "repro.core.poisson.poisson_process":
        "ROADMAP 7 (d): the planted Poisson drop stream eta is checked on",
    "repro.core.fairness.time_to_fair":
        "ROADMAP 1 (d): shares among BBR flows converge",
    "repro.internet.shards.GapHistogram.to_interval_pdf":
        "ROADMAP 11 (c): one interval binning, proved against core.pdf",
    "repro.sim.tracefile.save_drop_trace": "TUTORIAL-documented library API",
    "repro.sim.tracefile.load_drop_trace": "TUTORIAL-documented library API",
    "repro.sim.tracefile.TraceCorruptError": "TUTORIAL-documented library API",
}


#: The field of each node kind that holds an annotation.
_ANNOTATION_FIELD = {ast.arg: "annotation", ast.AnnAssign: "annotation",
                     ast.FunctionDef: "returns", ast.AsyncFunctionDef: "returns"}


def _code_children(node):
    """``node``'s child nodes, its annotation left out: a name that only
    annotations mention is never called, built or read."""
    annotation = getattr(node, _ANNOTATION_FIELD.get(type(node), ""), None)
    return [c for c in ast.iter_child_nodes(node) if c is not annotation]


def _names(node, tracked=lambda n: False):
    """Names ``node`` uses (``ast.Name`` ids and attribute names), and the
    nested defs ``tracked`` picks out, which are left unread.  Imports,
    ``__all__`` and annotations are not uses."""
    named, nested = set(), []
    stack = _code_children(node)
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.Import, ast.ImportFrom)) or _is_all(n):
            continue
        if tracked(n):
            nested.append(n)
            stack.extend(n.decorator_list)  # run where the def statement runs
            continue
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
        stack.extend(_code_children(n))
    return named, nested


def _is_all(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _root_names():
    """Names used by what a user runs outside the package: every example,
    every file under ``benchmarks/`` and the TUTORIAL's python blocks."""
    sources = [p.read_text() for p in sorted((REPO / "examples").glob("*.py"))]
    sources += [p.read_text() for p in sorted((REPO / "benchmarks").rglob("*.py"))]
    sources += _PYTHON_BLOCK.findall((REPO / "docs" / "TUTORIAL.md").read_text())
    named = set()
    for source in sources:
        named |= _names(ast.parse(source))[0]
    return named


def _package_defs():
    """``{qualified name: (def node, enclosing qualified name, names its
    own code uses)}`` for every module-level function, class and method
    in the package, classes nested in functions included; and the names
    the modules' own statements use (``cli.main`` is reached this way,
    from ``__main__``)."""
    defs, module_names = {}, set()

    def visit(node, qual, parent):
        holder = isinstance(node, (ast.Module, ast.ClassDef))

        def tracked(n):
            return isinstance(n, ast.ClassDef) or (
                holder and n in node.body
                and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))

        named, nested = _names(node, tracked)
        if parent is None:
            module_names.update(named)
        else:
            defs[qual] = (node, parent, named)
        for child in nested:
            visit(child, f"{qual}.{child.name}", qual)

    for path in _package_sources():
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, None)
    return defs, module_names


def _registered(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id.startswith("register_") for d in node.decorator_list)


def _reached(defs, named, seeds=()):
    """The fixpoint: a def is reached when its enclosing def is (a module
    always is) and reached code uses its name, or when it is a dunder,
    registered by a ``@register_*(...)`` decorator or one of ``seeds``."""
    named = set(named)
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, (node, parent, uses) in defs.items():
            if qual in reached or (parent in defs and parent not in reached):
                continue
            name = node.name
            if (name in named or qual in seeds or _registered(node)
                    or (name.startswith("__") and name.endswith("__"))):
                reached.add(qual)
                named |= uses
                grew = True
    return reached


@pytest.fixture(scope="module")
def reachability():
    defs, module_names = _package_defs()
    return defs, module_names | _root_names()


def test_every_def_is_reached_from_what_a_user_runs(reachability):
    """A def in ``src/repro`` is reached from the CLI, an example, a
    benchmark, a TUTORIAL snippet or a module's own statements (a
    registry decorator, say), or it is on ``UNREACHED_ON_PURPOSE``.  Code
    only ``tests/`` calls is not shipped: it moves to ``tests/`` or goes."""
    defs, named = reachability
    reached = _reached(defs, named, seeds=set(UNREACHED_ON_PURPOSE))
    kept = tuple(f"{q}." for q in UNREACHED_ON_PURPOSE)
    unreached = [f"{q} ({defs[q][0].lineno})" for q in defs
                 if q not in reached and not q.startswith(kept)]
    assert not unreached


def test_unreached_on_purpose_is_not_stale(reachability):
    """Each entry still names a def, no root reaches it, and its reason
    is one of the four kinds; a tutorial entry is named in the tutorial."""
    defs, named = reachability
    reached = _reached(defs, named)
    stale = [q for q in UNREACHED_ON_PURPOSE if q not in defs or q in reached]
    assert not stale
    kinds = ("test oracle: ", "stdlib override: ", "ROADMAP ",
             "TUTORIAL-documented library API")
    assert all(r.startswith(kinds) for r in UNREACHED_ON_PURPOSE.values())
    tutorial = (REPO / "docs" / "TUTORIAL.md").read_text()
    assert all(q.rsplit(".", 1)[1] in tutorial
               for q, r in UNREACHED_ON_PURPOSE.items() if r.startswith("TUTORIAL"))
