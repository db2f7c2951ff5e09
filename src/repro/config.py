"""One typed run configuration: every ``REPRO_*`` knob, parsed in one place.

The ``repro`` CLI's flags reach the experiment drivers through the
environment, so drivers need no parameter per knob.  :class:`RunConfig`
is the one reader of those variables: a consumer calls
:meth:`RunConfig.from_env` where it needs a knob and reads a field.
Nothing is cached — tests and the benchmark harness change variables
between runs, and every call sees the environment as it is.

Each field names its variable (``REPRO_FAULTS`` for ``fault_seed``,
``REPRO_<FIELD>`` for the rest).  An unset or blank variable leaves its
field at the default (``None`` unless the field says otherwise; the
drivers then apply their own).  Booleans accept ``1``/``true``/``yes``/
``on`` and ``0``/``false``/``no``/``off``, in any case.  Any other value
raises :class:`ValueError` naming the variable and the raw value — a typo
never silently turns a knob off.

This module imports only the standard library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional

__all__ = ["RunConfig"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})

#: Fields whose raw strings a run manifest records: the non-path knobs
#: that change a run's bytes.  Path knobs stay out so a report is
#: byte-identical wherever its artifacts land.
_MANIFEST_FIELDS = ("scale", "fault_seed", "check_invariants")


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        value = raw.lower()
        if value not in options:
            raise ValueError(f"one of {', '.join(options)}")
        return value

    return parse


def _integer(lo: Optional[int] = None, hi: Optional[int] = None) -> Callable[[str], int]:
    expected = "an integer"
    if hi is not None:
        expected += f" in {lo}..{hi}"
    elif lo is not None:
        expected += f" >= {lo}"

    def parse(raw: str) -> int:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(expected) from None
        if (lo is not None and n < lo) or (hi is not None and n > hi):
            raise ValueError(expected)
        return n

    return parse


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError("a boolean (1/true/yes/on or 0/false/no/off)")


def _knob(var: str, parse: Callable[[str], object], default=None):
    return field(default=default, metadata={"var": var, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """The run's ``REPRO_*`` knobs, typed; ``dataclasses.fields`` gives
    each field's variable as ``metadata["var"]``."""

    scale: str = _knob("REPRO_SCALE", _choice("fast", "paper"), "fast")
    workers: Optional[int] = _knob("REPRO_WORKERS", _integer(lo=1))
    on_error: Optional[str] = _knob("REPRO_ON_ERROR", _choice("raise", "skip", "retry"))
    checkpoint_dir: Optional[Path] = _knob("REPRO_CHECKPOINT_DIR", Path)
    fault_seed: Optional[int] = _knob("REPRO_FAULTS", _integer())
    metrics_out: Optional[Path] = _knob("REPRO_METRICS_OUT", Path)
    check_invariants: bool = _knob("REPRO_CHECK_INVARIANTS", _flag, False)
    telemetry_out: Optional[Path] = _knob("REPRO_TELEMETRY_OUT", Path)
    report: bool = _knob("REPRO_REPORT", _flag, False)
    metrics_port: Optional[int] = _knob("REPRO_METRICS_PORT", _integer(lo=0, hi=65535))

    @classmethod
    def from_env(cls) -> "RunConfig":
        """Parse the current environment; raises :class:`ValueError`
        naming the variable and its raw value on a bad value."""
        values = {}
        for f in fields(cls):
            var = f.metadata["var"]
            raw = os.environ.get(var, "")
            text = raw.strip()
            if text:
                try:
                    values[f.name] = f.metadata["parse"](text)
                except ValueError as exc:
                    raise ValueError(f"{var} must be {exc}, got {raw!r}") from None
        return cls(**values)

    def named(self, name: str) -> "RunConfig":
        """This configuration for one of several runs sharing its artifact
        paths: the metrics file ``m.json`` becomes ``m.<name>.json`` and
        the run directory ``D`` becomes ``D/<name>``, so no run overwrites
        another's.  The CLI names several experiments this way, and
        ``observe_run`` a driver's several runs."""
        m, d = self.metrics_out, self.telemetry_out
        return replace(
            self,
            metrics_out=m and m.with_name(f"{m.stem}.{name}{m.suffix or '.json'}"),
            telemetry_out=d and d / name,
        )

    @classmethod
    def manifest_env(cls) -> dict[str, str]:
        """The raw, non-empty strings of the knobs a run manifest records
        (scale, fault seed, invariant checks), keyed by variable."""
        names = [f.metadata["var"] for f in fields(cls) if f.name in _MANIFEST_FIELDS]
        return {var: os.environ[var] for var in names if os.environ.get(var)}
