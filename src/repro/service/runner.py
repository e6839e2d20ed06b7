"""Execute one service request spec into a deterministic JSON result.

The runner is the bridge between the daemon's JSON world and the
methodology pipeline: it resolves the spec's app and configurations,
runs the study through the replay planner (dedup across configs) and
whatever executor tier the circuit breaker currently allows, and
reduces the outcome to a plain-JSON result whose canonical encoding is
hashed into ``output_digest``.  Studies are pure functions of their
spec, so the digest is bit-identical across runs, schedules, executor
backends, and -- the property the chaos CI leg asserts -- across a
``kill -9`` + journal recovery.

Deadlines: ``deadline_s`` becomes the executor's per-job wall-clock
``timeout_s``, so a request cannot pin a worker past the time its
client was willing to wait.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.faults.resilience import RetryPolicy

from .journal import canonical_json
from .spec import resolve_app, resolve_factories

__all__ = ["run_request", "result_digest"]


def result_digest(result: dict) -> str:
    """sha256 over the canonical JSON encoding of a result."""
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def run_request(spec: dict, *, tier: str = "serial",
                retry: RetryPolicy | None = None,
                checkpoint_dir: str | Path | None = None) -> dict:
    """Run one normalized spec; returns its plain-JSON result.

    ``tier`` names the executor backend (``serial``, ``pool`` or
    ``cluster``; see :mod:`repro.core.executors`), which is built here
    under the request's policy; ``checkpoint_dir`` makes the study's
    unique replays individually durable, so a re-run after a crash
    resumes from the last completed replay instead of from scratch.
    """
    from repro.core.estimate import select_configuration
    from repro.core.executors import get_executor
    from repro.core.pipeline import characterize_app, full_study

    kind = spec["kind"]
    program, params = resolve_app(spec["app"], spec["np"])
    executor = get_executor(tier,
                            retry=RetryPolicy() if retry is None else retry,
                            timeout_s=spec.get("deadline_s"),
                            checkpoint_dir=checkpoint_dir,
                            resume=checkpoint_dir is not None)

    if kind == "characterize":
        model, bundle = characterize_app(program, spec["np"], params,
                                         app_name=spec["app"])
        result = {
            "kind": kind, "app": spec["app"], "np": spec["np"],
            "nphases": model.nphases, "nevents": bundle.nevents,
            "phases": [
                {"phase_id": ph.phase_id, "op": ph.op_label,
                 "np": ph.np, "rep": ph.rep, "weight": ph.weight}
                for ph in model.phases],
        }
    elif kind == "select":
        model, _ = characterize_app(program, spec["np"], params,
                                    app_name=spec["app"])
        factories = resolve_factories(spec["configs"])
        choice = select_configuration(
            model.phases, factories,
            lattice=spec.get("lattice", False), executor=executor)
        result = {
            "kind": kind, "app": spec["app"], "np": spec["np"],
            "best": choice.best,
            "totals": {name: t
                       for name, t in sorted(choice.total_times.items())},
        }
    elif kind == "full_study":
        factories = resolve_factories(spec["configs"])
        study = full_study(program, spec["np"], params,
                           cluster_factories=factories,
                           app_name=spec["app"], executor=executor)
        result = {
            "kind": kind, "app": spec["app"], "np": spec["np"],
            "best": study["selection"]["best"],
            "totals": {name: t for name, t
                       in sorted(study["selection"]["totals"].items())},
            "nphases": study["model"].nphases,
        }
    else:  # normalize() guarantees this cannot happen on journaled specs
        raise ValueError(f"unknown request kind {kind!r}")
    result["output_digest"] = result_digest(result)
    return result
