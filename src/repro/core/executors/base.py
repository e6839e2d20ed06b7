"""Executor interface shared by every sweep backend.

An executor object is the one place a sweep's fan-out and policy are
chosen: the backend (its class), the worker count, retry, timeout,
error policy and checkpoint/resume (its fields).  It turns
``{name: args}`` jobs into ``(name, failure, result)`` triples, in
whatever order the backend completes them --
:func:`repro.core.sweep.sweep_map` applies the backend-independent
part of the policy (checkpoints, resume, chaos hooks, error policy,
final ordering), so a backend only has to run jobs and report
outcomes:

* ``failure is None``  -- the job produced ``result``;
* ``failure`` is a :class:`JobFailure` -- the job raised (or timed out,
  or exhausted its requeue budget on the cluster backend) and
  ``result`` is ``None``.

:class:`JobFailure` and :class:`SweepJobError` live here (moved from
``repro.core.sweep``, which re-exports them) so backend modules can use
them without importing the sweep module that imports *them*.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro import obs
from repro.faults.resilience import RetryPolicy, retry_call

__all__ = [
    "JobFailure", "SweepJobError", "Executor", "SerialExecutor",
    "job_failure", "run_job",
]


@dataclass
class JobFailure:
    """A job that did not produce a result (kept in the result dict)."""

    name: str
    error: str
    traceback: str = ""
    timed_out: bool = False

    def __bool__(self) -> bool:  # failures are falsy: filter with `if v`
        return False


class SweepJobError(RuntimeError):
    """A sweep job failed under ``raise_on_error=True``."""

    def __init__(self, name: str, error: str, tb: str):
        super().__init__(
            f"sweep job {name!r} failed: {error}\n"
            f"--- job traceback ---\n{tb}")
        self.job = name
        self.error = error
        self.job_traceback = tb


def job_failure(name: str, exc: BaseException, timed_out: bool = False,
                tb: str | None = None) -> JobFailure:
    """Record and build the failure for one job."""
    if obs.ACTIVE:
        obs.inc("sweep_job_failures_total", job=name)
    return JobFailure(name=name, error=repr(exc),
                      traceback=tb if tb is not None else traceback.format_exc(),
                      timed_out=timed_out)


def run_job(fn: Callable, args: tuple, retry: RetryPolicy | None,
            store_root: str | None = None) -> Any:
    """Worker-side body: one job, optionally under a retry policy.

    ``store_root`` re-attaches the parent's persistent result store in
    spawned workers (forked ones inherit it).
    """
    if store_root is not None:
        from repro import store as _result_store

        if _result_store.active() is None:
            _result_store.attach(store_root)
    if retry is None:
        return fn(*args)
    return retry_call(fn, *args, policy=retry)


class Executor:
    """Base class for sweep backends (see the module docstring).

    An executor carries the whole sweep policy, so a sweep entry point
    takes one ``executor=`` argument and nothing else:

    * ``retry`` -- a :class:`~repro.faults.resilience.RetryPolicy` run
      around each job in whichever process runs it (the cluster backend
      also reads ``max_attempts`` as its requeue budget);
    * ``timeout_s`` -- per-job wall-clock bound, timed from dispatch on
      the pool and cluster backends (advisory on the serial one);
    * ``raise_on_error`` -- raise :class:`SweepJobError` on the first
      failed job (default) or keep a falsy :class:`JobFailure` in its
      slot of the result dict;
    * ``checkpoint_dir`` / ``resume`` -- persist each completed job's
      result and load those instead of re-running.
    """

    name = "?"

    def __init__(self, *, retry: RetryPolicy | None = None,
                 timeout_s: float | None = None,
                 raise_on_error: bool = True,
                 checkpoint_dir: str | Path | None = None,
                 resume: bool = False):
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True needs a checkpoint_dir")
        self.retry = retry
        self.timeout_s = timeout_s
        self.raise_on_error = raise_on_error
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def policy(self) -> dict[str, Any]:
        """The policy fields, as constructor keywords."""
        return {"retry": self.retry, "timeout_s": self.timeout_s,
                "raise_on_error": self.raise_on_error,
                "checkpoint_dir": self.checkpoint_dir,
                "resume": self.resume}

    def serial(self) -> "SerialExecutor":
        """An in-process executor under this executor's policy (the
        fallback for sweeps that cannot or need not fan out)."""
        return SerialExecutor(**self.policy())

    def run(self, fn: Callable, jobs: Mapping[str, tuple]
            ) -> Iterator[tuple[str, JobFailure | None, Any]]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, one job at a time.  ``timeout_s`` is advisory only:
    a cooperative single process cannot interrupt itself safely."""

    name = "serial"

    def run(self, fn, jobs):
        for name, args in jobs.items():
            try:
                result = run_job(fn, args, self.retry)
            except Exception as exc:
                yield name, job_failure(name, exc), None
            else:
                yield name, None, result
