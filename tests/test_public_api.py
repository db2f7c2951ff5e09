"""Public-API integrity: every exported name exists and is documented."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.core",
    "repro.experiments",
    "repro.extensions",
    "repro.faults",
    "repro.internet",
    "repro.obs",
    "repro.sim",
    "repro.tcp",
]


def all_modules():
    names = set(PACKAGES)
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for m in pkgutil.iter_modules(pkg.__path__):
                if m.name.startswith("__"):  # __main__ runs the CLI on import
                    continue
                names.add(f"{pkg_name}.{m.name}")
    return sorted(names)


@pytest.mark.parametrize("modname", all_modules())
def test_module_imports_and_documents_itself(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__, f"{modname} lacks a module docstring"


@pytest.mark.parametrize("modname", all_modules())
def test_every_dunder_all_name_resolves(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(mod, name), f"{modname}.__all__ lists missing {name!r}"


def test_package_version():
    assert repro.__version__ == "1.0.0"


def test_no_accidental_shadowing_between_subpackages():
    """Names exported from two subpackages must be the same object (we
    re-export jain_index deliberately) or not collide at all."""
    from repro import core, extensions

    assert extensions.jain_index is core.jain_index
