"""Resilient execution primitives: per-item results and retry policies.

The measurement-harness layers (``repro.experiments.parallel``,
``repro.internet.supervisor``) treat worker failure as data, not as a
fatal event: every work item resolves to a :class:`Result` carrying
either the value or the exception plus how many attempts it took.  A
:class:`RetryPolicy` bounds the retries and spaces them with exponential
backoff whose jitter is *deterministic* (derived from the item key via
:func:`repro.sim.rng.stable_hash`), so a retried campaign replays
identically from the same seed.  The one loop that applies the policy is
the process runner, :func:`repro.experiments.parallel.fan_out`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.rng import stable_hash

__all__ = ["Result", "RetryPolicy"]

#: Valid ``on_error`` policies for resilient mappers.
ON_ERROR_POLICIES = ("raise", "skip", "retry")


@dataclass
class Result:
    """Outcome of one work item under a resilient mapper.

    ``ok`` is True iff ``value`` holds the item's return value; otherwise
    ``error`` holds the exception of the *last* attempt.  ``attempts``
    counts every execution, so a first-try success reads 1.
    """

    index: int
    ok: bool
    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1

    @property
    def error_text(self) -> str:
        """``"TypeName: message"`` of the failure ('' when ok)."""
        if self.error is None:
            return ""
        return f"{type(self.error).__name__}: {self.error}"

    def unwrap(self) -> Any:
        """The value, or re-raise the recorded error."""
        if self.ok:
            return self.value
        assert self.error is not None
        raise self.error


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``retries`` is the number of *additional* attempts after the first
    (``retries=2`` means at most 3 executions).  The delay before retry
    attempt ``k`` (1-based) is ``base * factor**(k-1)`` stretched by up to
    ``jitter`` (a fraction), capped at ``max_delay``.  Jitter is derived
    from a stable hash of the item key, never from wall-clock entropy, so
    two runs of the same campaign back off identically.
    """

    retries: int = 2
    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.base < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.factor}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry ``attempt`` (1-based) of item ``key``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        d = self.base * self.factor ** (attempt - 1)
        if self.jitter > 0:
            u = stable_hash(f"{key}/attempt{attempt}") / 0xFFFFFFFF
            d *= 1.0 + self.jitter * u
        return min(d, self.max_delay)
