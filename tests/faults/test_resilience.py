"""RetryPolicy / retry_call: bounded, deterministic, selective."""

from __future__ import annotations

import pytest

from repro.faults import TransientFault
from repro.faults.resilience import (
    NO_RETRY,
    RetryPolicy,
    RetryStats,
    retry_call,
)


def flaky(failures: int, exc_factory=lambda: TransientFault("x", 1.0)):
    """A function that fails ``failures`` times, then succeeds."""
    state = {"left": failures, "calls": 0}

    def fn():
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            raise exc_factory()
        return "ok"

    fn.state = state
    return fn


def no_sleep(_):
    pass


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


def test_deterministic_exponential_backoff():
    policy = RetryPolicy(max_attempts=5, backoff_s=0.1, backoff_factor=2.0,
                         max_backoff_s=0.3)
    assert [policy.delay(a) for a in (1, 2, 3, 4)] == \
        [0.1, 0.2, 0.3, 0.3]  # capped


def test_retry_absorbs_transient_faults():
    fn = flaky(2)
    stats = RetryStats()
    result = retry_call(fn, policy=RetryPolicy(max_attempts=3),
                        on_retry=stats.note, sleep=no_sleep)
    assert result == "ok"
    assert fn.state["calls"] == 3
    assert stats.retries == 2
    assert "TransientFault" in stats.last_error


def test_exhausted_policy_reraises_last_error():
    fn = flaky(5)
    with pytest.raises(TransientFault):
        retry_call(fn, policy=RetryPolicy(max_attempts=3), sleep=no_sleep)
    assert fn.state["calls"] == 3


def test_non_retryable_errors_propagate_immediately():
    fn = flaky(1, exc_factory=lambda: RuntimeError("logic bug"))
    with pytest.raises(RuntimeError, match="logic bug"):
        retry_call(fn, policy=RetryPolicy(max_attempts=5), sleep=no_sleep)
    assert fn.state["calls"] == 1  # never retried


def test_no_retry_policy_fails_fast():
    fn = flaky(1)
    with pytest.raises(TransientFault):
        retry_call(fn, policy=NO_RETRY, sleep=no_sleep)
    assert fn.state["calls"] == 1


def test_backoff_sleeps_are_paced():
    policy = RetryPolicy(max_attempts=3, backoff_s=0.5, backoff_factor=2.0,
                         max_backoff_s=10.0)
    slept = []
    retry_call(flaky(2), policy=policy, sleep=slept.append)
    assert slept == [0.5, 1.0]


def test_backoff_sequence_is_reproducible():
    """Same policy, same failures -> bit-identical sleep sequence.

    No jitter by design (module docstring): two runs of the same flaky
    workload pace their retries identically, which keeps chaos tests
    and the service's deadline math deterministic.
    """
    policy = RetryPolicy(max_attempts=6, backoff_s=0.05, backoff_factor=3.0,
                         max_backoff_s=0.9)
    runs = []
    for _ in range(2):
        slept = []
        retry_call(flaky(5), policy=policy, sleep=slept.append)
        runs.append(slept)
    assert runs[0] == runs[1] == [policy.delay(a) for a in range(1, 6)]
    assert runs[0][3:] == [0.9, 0.9]  # tail is capped


def test_zero_backoff_never_sleeps():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.0)
    slept = []
    retry_call(flaky(3), policy=policy, sleep=slept.append)
    assert slept == []  # delay == 0 skips the sleep call entirely


def test_constant_backoff_with_unit_factor():
    policy = RetryPolicy(max_attempts=5, backoff_s=0.2, backoff_factor=1.0,
                         max_backoff_s=10.0)
    assert [policy.delay(a) for a in range(1, 5)] == [0.2] * 4


def test_cap_below_base_clamps_every_delay():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.5, backoff_factor=2.0,
                         max_backoff_s=0.1)
    assert [policy.delay(a) for a in range(1, 4)] == [0.1] * 3


def test_policy_is_frozen_and_hashable():
    """Policies are shared across threads by the service; they must be
    immutable values, safe to reuse and to key on."""
    policy = RetryPolicy(max_attempts=2, backoff_s=0.5)
    with pytest.raises(Exception):
        policy.max_attempts = 99
    assert policy == RetryPolicy(max_attempts=2, backoff_s=0.5)
    assert hash(policy) == hash(RetryPolicy(max_attempts=2, backoff_s=0.5))
