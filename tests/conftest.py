"""Global test configuration.

Hypothesis: simulation-backed properties have highly variable runtimes
(the first example may build a large scenario), so the per-example
deadline is disabled repo-wide; example counts are set per-test where the
default is too heavy.
"""

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

REPO = Path(__file__).resolve().parent.parent


def cli_env() -> dict:
    """The environment for a child ``python``: this process's, minus the
    ``REPRO_*`` knobs, with the repo's ``src`` on ``PYTHONPATH``.  Every
    subprocess test that passes ``env=`` passes this, so settings such as
    ``PYTHONDONTWRITEBYTECODE`` reach the child
    (``tests/test_config.py::test_subprocess_env_is_cli_env``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO / "src")
    return env


settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
