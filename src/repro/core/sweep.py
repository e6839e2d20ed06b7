"""Concurrent, fault-tolerant configuration sweeps.

The estimation stage is embarrassingly parallel across configurations:
each ``estimate_on``/``estimate_model`` call is a pure CPU-bound
function of (model, cluster factory) with no shared state.
:func:`sweep_map` fans those calls out through one *executor* object
(:mod:`repro.core.executors`), which is the only thing a caller
chooses:

* ``SerialExecutor()`` -- in-process, one job at a time (the default);
* ``PoolExecutor(max_workers=N)`` -- a ``ProcessPoolExecutor`` on
  this machine;
* ``ClusterExecutor(...)`` -- socket master/worker across machines.

All three are conforming: same jobs, bit-identical result dicts.  The
backend only runs jobs; everything below is backend-independent and
lives here.

Resilience features (all opt-in fields of the executor, composable):

* **error policy** -- a failing job is captured with its id and full
  traceback.  ``raise_on_error=True`` (the default) raises a
  :class:`SweepJobError` naming the job; ``raise_on_error=False``
  stores a :class:`JobFailure` in the result dict instead, so one bad
  configuration cannot sink a 50-configuration study.  Failures are
  counted in the ``sweep_job_failures_total`` obs metric either way.
* **retry** -- a :class:`~repro.faults.resilience.RetryPolicy` re-runs
  a job on its retryable (transient-fault) exceptions with bounded
  exponential backoff, inside whichever process runs the job.  The
  cluster backend additionally reads ``max_attempts`` as its requeue
  budget for jobs stranded by worker deaths.
* **timeout** -- ``timeout_s`` bounds each job's wall-clock time from
  its dispatch on the pool and cluster backends (the job is recorded
  as a timed-out :class:`JobFailure`); the serial path treats it as
  advisory (a cooperative single process cannot interrupt itself
  safely).
* **checkpointing** -- with ``checkpoint_dir`` every completed job's
  result is pickled to ``<dir>/<job>.ckpt`` via an atomic
  write-temp-then-rename, and ``resume=True`` loads those instead of
  recomputing, so a sweep killed mid-flight resumes bit-identically
  on any backend.

Requirements and fallbacks:

* pool/cluster jobs (the function and every argument) must be
  picklable -- cluster factories defined at module level qualify, test
  lambdas do not.  A sweep whose jobs cannot be serialized, or that
  has at most one job to run, runs on the serial path under the same
  policy (checkpoint, retry and error handling intact);
* memo caches (:mod:`repro.core.cache`) live per process: workers
  start cold (or warm from the shared :mod:`repro.store`) and their
  in-memory insertions are not merged back;
* ``repro.obs`` spans recorded inside pool/cluster workers are lost --
  observability of parallel sweeps happens at the sweep boundary
  (dispatch latency, queue depth, bytes on the wire), not per job.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import re
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import obs
from repro.ioutil import atomic_write_bytes

from .executors import Executor, SerialExecutor
from .executors.base import (  # re-exported: historical home of these
    JobFailure,
    SweepJobError,
)

__all__ = [
    "sweep_map", "JobFailure", "SweepJobError", "checkpoint_path",
    "CHAOS_KILL_ENV", "CHAOS_EXIT_CODE",
]

#: Chaos hook (used by the CI kill-and-resume smoke test): when set and
#: a checkpoint directory is active, the process hard-exits with this
#: code after ``REPRO_CHAOS_KILL_AFTER`` checkpoints have been written.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_AFTER"
CHAOS_EXIT_CODE = 17


# -- checkpoint store ----------------------------------------------------------

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def checkpoint_path(directory: str | Path, name: str) -> Path:
    """Where job ``name``'s result checkpoint lives (stable per name)."""
    digest = hashlib.sha1(name.encode("utf-8")).hexdigest()[:8]
    safe = _SAFE.sub("_", name)[:80] or "job"
    return Path(directory) / f"{safe}.{digest}.ckpt"


def _store_checkpoint(directory: Path, name: str, result: Any) -> None:
    atomic_write_bytes(checkpoint_path(directory, name),
                       pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _load_checkpoints(directory: Path, jobs: Mapping[str, tuple]) -> dict:
    done: dict[str, Any] = {}
    for name in jobs:
        path = checkpoint_path(directory, name)
        if path.exists():
            try:
                done[name] = pickle.loads(path.read_bytes())
            except Exception:
                # A torn or garbage file: unpickling damaged bytes can
                # raise nearly any exception type.  The job re-runs and
                # its checkpoint is overwritten.
                continue
    return done


class _ChaosKiller:
    """Counts checkpoint writes and hard-exits at the configured one."""

    def __init__(self):
        self.limit = int(os.environ.get(CHAOS_KILL_ENV, "0") or "0")
        self.written = 0

    def note_checkpoint(self) -> None:
        self.written += 1
        if self.limit and self.written >= self.limit:
            os._exit(CHAOS_EXIT_CODE)


# -- error policy --------------------------------------------------------------

def _resolve(name: str, failure: JobFailure | None, result: Any,
             raise_on_error: bool) -> Any:
    if failure is None:
        return result
    if raise_on_error:
        raise SweepJobError(name, failure.error, failure.traceback)
    return failure


def sweep_map(fn: Callable, jobs: Mapping[str, tuple], *,
              executor: Executor | None = None) -> dict[str, Any]:
    """Apply ``fn(*args)`` to every ``{name: args}`` job; dict of results.

    Results preserve the jobs' insertion order regardless of which
    backend ran them or in what order they completed.  ``executor``
    (default: a plain :class:`SerialExecutor`) chooses the backend and
    carries the whole policy -- see the module docstring; a
    zero-or-one-job sweep always runs serially under that policy.  With
    ``raise_on_error=False`` failed jobs appear as (falsy)
    :class:`JobFailure` values in the returned dict.
    """
    backend = executor if executor is not None else SerialExecutor()
    ckpt = (Path(backend.checkpoint_dir)
            if backend.checkpoint_dir is not None else None)
    done: dict[str, Any] = {}
    if ckpt is not None:
        ckpt.mkdir(parents=True, exist_ok=True)
        if backend.resume:
            done = _load_checkpoints(ckpt, jobs)
            if obs.ACTIVE and done:
                obs.inc("sweep_jobs_resumed_total", amount=len(done))
    todo = {name: args for name, args in jobs.items() if name not in done}
    chaos = _ChaosKiller() if ckpt is not None else None

    if len(todo) <= 1 and not isinstance(backend, SerialExecutor):
        backend = backend.serial()  # fan-out cost without fan-out benefit

    fresh: dict[str, Any] = {}
    with contextlib.closing(backend.run(fn, todo)) as outcomes:
        for name, failure, result in outcomes:
            if failure is None and ckpt is not None:
                _store_checkpoint(ckpt, name, result)
                chaos.note_checkpoint()
            fresh[name] = _resolve(name, failure, result,
                                   backend.raise_on_error)

    # Insertion order of `jobs`, resumed results included.
    return {name: done[name] if name in done else fresh[name]
            for name in jobs}
