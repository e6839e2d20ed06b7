"""Pluggable sweep execution backends.

Every configuration sweep in the repo funnels through
:func:`repro.core.sweep.sweep_map`, which delegates the actual running
of jobs to an *executor* object:

=========  ==================================================================
serial     in-process, one job at a time (the always-works baseline)
pool       ``concurrent.futures.ProcessPoolExecutor`` -- one machine,
           many cores; jobs and their arguments travel as pickles
cluster    socket master/worker -- as many machines as you have
           (see :mod:`.cluster` and :mod:`.worker`); trace columns
           travel as ``.trc`` blobs (:mod:`.wire`)
=========  ==================================================================

The executor instance is the only way to choose a sweep's fan-out and
policy: its class picks the backend, and its fields carry the worker
count, retry, timeout, error policy and checkpoint/resume (see
:class:`~.base.Executor`).  Code that starts from a backend *name*
(the CLI, the service's breaker tiers) builds the instance with
:func:`get_executor`.  All three backends are conforming: same jobs
in, bit-identical result dicts out, verified by
``tests/core/test_executors.py``.
"""

from __future__ import annotations

from .base import Executor, JobFailure, SerialExecutor, SweepJobError
from .cluster import ClusterExecutor
from .pool import PoolExecutor

__all__ = [
    "Executor", "SerialExecutor", "PoolExecutor", "ClusterExecutor",
    "JobFailure", "SweepJobError", "EXECUTORS", "get_executor",
]

EXECUTORS = {
    "serial": SerialExecutor,
    "pool": PoolExecutor,
    "cluster": ClusterExecutor,
}


def get_executor(name: str, **policy) -> Executor:
    """Instantiate a backend by name; ``policy`` holds the
    :class:`~.base.Executor` keywords (plus any backend-specific ones,
    e.g. the cluster's ``workers``).  Raises on unknown names."""
    try:
        cls = EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; choose from "
            f"{sorted(EXECUTORS)}") from None
    return cls(**policy)
