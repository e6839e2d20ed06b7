"""Bounded retry-with-backoff around transient faults.

The pipeline's unit of work (one phase replay, one configuration
estimate) is a pure function of its inputs, so retrying after a
:class:`~repro.faults.plan.TransientFault` is always safe.  The policy
is deliberately small: bounded attempts, deterministic exponential
backoff (no jitter -- reproducibility is a feature here, and the
"sleep" is wall-clock while the fault windows are virtual-time, so the
backoff only paces the retry loop), and an explicit tuple of retryable
exception types.  Everything else -- fail-stop, data loss, programming
errors -- propagates immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .plan import TransientFault


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, how long to back off, what to retry on."""

    max_attempts: int = 3
    backoff_s: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    retry_on: tuple = (TransientFault,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.max_backoff_s,
                   self.backoff_s * self.backoff_factor ** (attempt - 1))


#: Retry nothing; fail fast.  Useful as an explicit "no resilience" arg.
NO_RETRY = RetryPolicy(max_attempts=1)


def retry_call(fn: Callable, *args, policy: RetryPolicy | None = None,
               on_retry: Callable[[int, BaseException], None] | None = None,
               sleep: Callable[[float], None] = time.sleep,
               **kwargs) -> Any:
    """Call ``fn`` under ``policy``; retry on its retryable exceptions.

    ``on_retry(attempt, exc)`` fires before each backoff (attempt is the
    1-based number of the attempt that just failed).  Retries are
    counted in the ``retries_total`` obs metric; the terminal failure of
    an exhausted policy re-raises the last exception unchanged.
    """
    from repro import obs

    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn(*args, **kwargs)
        except policy.retry_on as exc:
            if attempt >= policy.max_attempts:
                raise
            if obs.ACTIVE:
                obs.inc("retries_total", kind=type(exc).__name__)
            if on_retry is not None:
                on_retry(attempt, exc)
            delay = policy.delay(attempt)
            if delay > 0:
                sleep(delay)


@dataclass
class RetryStats:
    """Optional collector: pass ``stats.note`` as ``on_retry``."""

    retries: int = 0
    last_error: str = ""
    errors: list = field(default_factory=list)

    def note(self, attempt: int, exc: BaseException) -> None:
        self.retries += 1
        self.last_error = repr(exc)
        self.errors.append((attempt, repr(exc)))
