"""Self-tests of the e2e harness: ``python -m pytest benchmarks/e2e/tests``
(with ``PYTHONPATH=src``, as for every other suite in this repository)."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))
