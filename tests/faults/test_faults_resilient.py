"""Tests for Result and RetryPolicy.

The loop that applies a policy is the process runner; its retry
behaviour is tested in ``tests/experiments/test_parallel.py::TestFanOut``.
"""

import pytest

from repro.config import RunConfig
from repro.faults import Result, RetryPolicy

pytestmark = pytest.mark.faults


class TestResult:
    def test_error_text_names_type_and_message(self):
        err = RuntimeError("boom")
        res = Result(index=0, ok=False, error=err, attempts=3)
        assert res.error_text == "RuntimeError: boom"

    def test_ok_error_text_empty(self):
        assert Result(index=0, ok=True, value=1).error_text == ""


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(base=-1.0)

    def test_backoff_grows_and_caps(self):
        pol = RetryPolicy(retries=5, base=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
        delays = [pol.delay(k) for k in range(1, 6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays == sorted(delays)
        assert delays[-1] == 0.5  # capped

    def test_jitter_is_deterministic_per_key(self):
        pol = RetryPolicy(jitter=0.5)
        assert pol.delay(1, key="item-3") == pol.delay(1, key="item-3")
        assert pol.delay(1, key="item-3") != pol.delay(1, key="item-4")

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestOnErrorFromEnv:
    """``REPRO_ON_ERROR`` as drivers read it: ``RunConfig.on_error``, with
    ``None`` leaving each driver its own default."""

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ON_ERROR", raising=False)
        assert RunConfig.from_env().on_error is None

    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "skip")
        assert RunConfig.from_env().on_error == "skip"

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ON_ERROR", "explode")
        with pytest.raises(ValueError, match="REPRO_ON_ERROR"):
            RunConfig.from_env()
