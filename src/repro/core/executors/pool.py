"""Process-pool sweep backend (one machine, many cores).

This is the historical ``sweep_map(parallel=True)`` path moved behind
the executor interface, with the picklability probe fixed: the old code
``pickle.dumps``-ed the *entire* job table once just to decide
pool-vs-serial and threw the bytes away.  Now the job head ``(fn,
retry)`` and each job's arguments are pickled exactly once, and those
same blobs are what the pool dispatches -- workers unpickle them in
:func:`_run_blob_job`.  Anything unpicklable still degrades to the
serial backend, so ``parallel=True`` remains always safe to pass.

TraceColumns arguments are published to shared memory first
(:mod:`repro.tracer.shm`) so the blobs carry tiny handles, not the
trace.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
from typing import Any, Mapping

from repro.faults.resilience import RetryPolicy

from .base import Executor, SerialExecutor, job_failure, run_job

__all__ = ["PoolExecutor"]


def _run_blob_job(head_blob: bytes, args_blob: bytes,
                  store_root: str | None) -> Any:
    """Worker-side body: unpickle the shared head and this job's args."""
    fn, retry = pickle.loads(head_blob)
    args = pickle.loads(args_blob)
    return run_job(fn, args, retry, store_root)


def _share_trace_args(jobs: Mapping[str, tuple]) -> tuple[dict, list]:
    """Swap TraceColumns arguments for shared-memory handles.

    Each distinct columns object is published once
    (:mod:`repro.tracer.shm`); every job referencing it gets the same
    tiny handle, so a parallel characterization sweep ships the trace
    to workers without pickling it per process.  Returns the original
    mapping untouched (and no handles) when nothing is substitutable.
    """
    from repro.tracer import shm as _shm
    from repro.tracer.columns import TraceColumns

    shared: dict[int, Any] = {}
    handles: list[Any] = []
    out: dict[str, tuple] = {}
    changed = False
    for name, args in jobs.items():
        new_args = []
        for a in args:
            if isinstance(a, TraceColumns):
                handle = shared.get(id(a))
                if handle is None:
                    handle = shared[id(a)] = _shm.share_columns(a)
                    handles.append(handle)
                new_args.append(handle)
                changed = True
            else:
                new_args.append(a)
        out[name] = tuple(new_args)
    if not changed:
        return dict(jobs), []
    return out, handles


def _release_shared(handles: list) -> None:
    if not handles:
        return
    from repro.tracer import shm as _shm

    for handle in handles:
        _shm.release(handle)


class PoolExecutor(Executor):
    """ProcessPoolExecutor fan-out with serial fallback."""

    name = "pool"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers

    def run(self, fn, jobs, *, retry: RetryPolicy | None = None,
            timeout_s: float | None = None, max_workers: int | None = None):
        # Publish any TraceColumns argument to shared memory first: the
        # pickle pass then serializes the cheap handles, not the trace.
        substituted, handles = _share_trace_args(jobs)
        try:
            head_blob = pickle.dumps((fn, retry),
                                     protocol=pickle.HIGHEST_PROTOCOL)
            arg_blobs = {name: pickle.dumps(args,
                                            protocol=pickle.HIGHEST_PROTOCOL)
                         for name, args in substituted.items()}
        except Exception:
            _release_shared(handles)
            yield from SerialExecutor().run(fn, jobs, retry=retry,
                                            timeout_s=timeout_s)
            return

        from repro import store as _result_store

        active = _result_store.active()
        store_root = (str(active.root)
                      if active is not None and active.persistent else None)
        workers = (max_workers or self.max_workers
                   or min(len(jobs), os.cpu_count() or 1))
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        timed_out = False
        try:
            futures = {name: pool.submit(_run_blob_job, head_blob, blob,
                                         store_root)
                       for name, blob in arg_blobs.items()}
            for name, fut in futures.items():
                try:
                    result = fut.result(timeout=timeout_s)
                except concurrent.futures.TimeoutError as exc:
                    timed_out = True
                    yield name, job_failure(name, exc, timed_out=True), None
                except Exception as exc:
                    yield name, job_failure(name, exc), None
                else:
                    yield name, None, result
        finally:
            if timed_out:
                _terminate(pool)
            else:
                pool.shutdown(wait=True)
            _release_shared(handles)


def _terminate(pool) -> None:
    """Shut ``pool`` down without joining its jobs: a job past its
    timeout may never return, and waiting for it would pin the caller
    (and a service request's deadline) to the job's own run time."""
    procs = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join()
