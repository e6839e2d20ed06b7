"""Process-pool sweep backend (one machine, many cores).

The job head ``(fn, retry)`` and each job's arguments are pickled
exactly once, and those same blobs are what the pool dispatches --
workers unpickle them in :func:`_run_blob_job`.  Anything unpicklable
degrades to the serial backend under the same policy, so a
:class:`PoolExecutor` is always safe to pass.  TraceColumns arguments
pickle like any other value.

At most ``max_workers`` jobs are in flight at once, and each job's
``timeout_s`` runs from its own submission: a timed-out job is
reported at once, and its worker is terminated when the sweep ends
(or earlier, when every worker is held by a timed-out job).
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import time
from collections import deque
from typing import Any

from .base import Executor, job_failure, run_job

__all__ = ["PoolExecutor"]


def _run_blob_job(head_blob: bytes, args_blob: bytes,
                  store_root: str | None) -> Any:
    """Worker-side body: unpickle the shared head and this job's args."""
    fn, retry = pickle.loads(head_blob)
    args = pickle.loads(args_blob)
    return run_job(fn, args, retry, store_root)


class PoolExecutor(Executor):
    """ProcessPoolExecutor fan-out with serial fallback."""

    name = "pool"

    def __init__(self, max_workers: int | None = None, **policy):
        super().__init__(**policy)
        self.max_workers = max_workers

    def run(self, fn, jobs):
        try:
            head_blob = pickle.dumps((fn, self.retry),
                                     protocol=pickle.HIGHEST_PROTOCOL)
            pending = deque(
                (name, pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
                for name, args in jobs.items())
        except Exception:
            yield from self.serial().run(fn, jobs)
            return

        from repro import store as _result_store

        active = _result_store.active()
        store_root = (str(active.root)
                      if active is not None and active.persistent else None)
        workers = self.max_workers or min(len(jobs), os.cpu_count() or 1)
        timeout_s = self.timeout_s
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        live: dict[concurrent.futures.Future, tuple[str, float]] = {}
        stuck: set[concurrent.futures.Future] = set()  # timed out, running
        try:
            while pending or live:
                stuck = {fut for fut in stuck if not fut.done()}
                if pending and not live and len(stuck) >= workers:
                    # Every worker holds a timed-out job: start afresh.
                    _terminate(pool)
                    pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers)
                    stuck = set()
                while pending and len(live) + len(stuck) < workers:
                    name, blob = pending.popleft()
                    fut = pool.submit(_run_blob_job, head_blob, blob,
                                      store_root)
                    live[fut] = (name, time.monotonic())
                wait_s = None
                if timeout_s is not None:
                    first = min(t0 for _, t0 in live.values())
                    wait_s = max(0.0, first + timeout_s - time.monotonic())
                done, _ = concurrent.futures.wait(
                    live, timeout=wait_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                for fut in done:
                    name, _ = live.pop(fut)
                    try:
                        result = fut.result()
                    except Exception as exc:
                        yield name, job_failure(name, exc), None
                    else:
                        yield name, None, result
                if timeout_s is None:
                    continue
                now = time.monotonic()
                for fut, (name, t0) in list(live.items()):
                    if now - t0 >= timeout_s:
                        del live[fut]
                        stuck.add(fut)
                        yield name, job_failure(
                            name, TimeoutError(
                                f"job exceeded timeout_s={timeout_s}"),
                            timed_out=True,
                            tb="(no traceback: timed out in a pool "
                               "worker)"), None
        finally:
            if stuck or live:
                _terminate(pool)
            else:
                pool.shutdown(wait=True)


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
