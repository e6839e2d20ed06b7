"""Cross-configuration replay planner (the O(unique replays) sweep).

``full_study`` / ``select_configuration`` estimate one model against N
candidate configurations.  Done naively that is O(configs x phases)
phase replays, but most of the work is duplicated twice over:

* **within a configuration** -- BT-IO's 50 write phases share one
  replication signature (``estimate_model`` already dedupes these);
* **across configurations** -- two candidates that are *structurally*
  identical (same fingerprint: configuration B's triple-server NFS vs
  a renamed clone; a degraded variant sweep where only one element
  changed) replay every phase to bit-identical results.

The planner lifts both dedups above the sweep: it collects every
(phase-signature, configuration-fingerprint) replay request up front,
keeps one :class:`ReplayJob` per unique pair, executes only those --
optionally in parallel via :func:`~repro.core.sweep.sweep_map`, each
warm-started from the persistent store (:mod:`repro.store`) because the
IOR runs inside are memoized by (params, the factory's shared
fingerprint) and a job builds its cluster only on a memo miss -- and
fans the results back out into one
:class:`~repro.core.estimate.EstimateReport` per configuration, ordered
exactly as ``estimate_model`` would have produced it.

Configurations whose factory has no fingerprint (ad-hoc test doubles)
still participate: they get private jobs keyed by configuration name,
so only the cross-config dedup is lost for them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro import obs

from . import cache as simcache
from .estimate import (
    ClusterFactory,
    EstimateReport,
    PhaseEstimate,
    estimate_phase,
)
from .phases import Phase
from .sweep import JobFailure, sweep_map


def phase_signature(phase: Phase) -> tuple:
    """What must match for two phases to share one replication run.

    Identical to the in-config dedup key of
    :func:`~repro.core.estimate.estimate_model`: process count,
    repetition count, unique/collective flags and the (op, request
    size) unit -- everything the IOR replication is derived from.
    """
    return (phase.np, phase.rep, phase.unique_file, phase.collective,
            tuple((o.op, o.request_size) for o in phase.ops))


def _job_scope(config_name: str, fp: Hashable | None):
    """A configuration's job-name scope: a sha1 fed ``repr(fp)`` (or
    ``config:<name>``) and ``|``.  Built once per configuration, since a
    fingerprint's repr runs to tens of KB; each job name hashes on from
    a copy of it."""
    scope = repr(fp) if fp is not None else f"config:{config_name}"
    return hashlib.sha1(f"{scope}|".encode())


def _job_name(scope, sig_repr: bytes) -> str:
    """Deterministic, filesystem-safe job id: the first 12 hex digits of
    sha1 of ``<scope>|<repr(signature)>`` (stable across processes,
    usable as a ``sweep_map`` checkpoint name)."""
    h = scope.copy()
    h.update(sig_repr)
    return f"replay-{h.hexdigest()[:12]}"


@dataclass
class ReplayJob:
    """One unique phase replication: executed once, fanned out many times."""

    name: str
    phase: Phase  # representative phase carrying the signature
    factory: ClusterFactory
    #: (config_name, phase index) slots this job's result feeds.
    consumers: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class ReplayPlan:
    """The batched execution plan for one model over many configurations."""

    phases: tuple[Phase, ...]
    config_names: tuple[str, ...]
    jobs: dict[str, ReplayJob]
    requests: int  # total (config, phase) replay requests collected

    @property
    def unique(self) -> int:
        return len(self.jobs)

    def execute(self, *,
                runner: Callable[[Phase, ClusterFactory], PhaseEstimate]
                | None = None,
                executor=None) -> dict[str, EstimateReport | JobFailure]:
        """Run the unique jobs and fan results back out per configuration.

        Returns ``{config_name: EstimateReport}`` bit-identical to
        calling ``estimate_model`` per configuration.  ``executor``
        (default serial) runs the unique jobs and carries their policy,
        which is per unique job, not per configuration.  Under
        ``raise_on_error=False`` a failed job fails every configuration
        that depends on it (a falsy :class:`JobFailure` in the dict),
        and the remaining configurations survive.
        """
        if obs.ACTIVE:
            obs.inc("replay_plan_requests_total", amount=self.requests)
            obs.inc("replay_plan_unique_total", amount=self.unique)
        fn = runner or _run_replay_job
        results = sweep_map(
            fn, {name: (job.phase, job.factory)
                 for name, job in self.jobs.items()},
            executor=executor)
        return self.fan_out(results)

    def fan_out(self, results: dict[str, Any]
                ) -> dict[str, EstimateReport | JobFailure]:
        """Scatter per-job estimates into per-configuration reports."""
        per_config: dict[str, list[PhaseEstimate | None]] = {
            name: [None] * len(self.phases) for name in self.config_names}
        failed: dict[str, JobFailure] = {}
        for name, job in self.jobs.items():
            result = results[name]
            for config_name, idx in job.consumers:
                if isinstance(result, JobFailure):
                    failed.setdefault(
                        config_name,
                        JobFailure(name=config_name, error=result.error,
                                   traceback=result.traceback,
                                   timed_out=result.timed_out))
                    continue
                ph = self.phases[idx]
                per_config[config_name][idx] = PhaseEstimate(
                    phase_id=ph.phase_id,
                    weight=ph.weight,
                    op_label=ph.op_label,
                    bw_ch_mb_s=result.bw_ch_mb_s,
                    bw_ch_by_kind=dict(result.bw_ch_by_kind),
                )
        out: dict[str, EstimateReport | JobFailure] = {}
        for config_name in self.config_names:
            if config_name in failed:
                out[config_name] = failed[config_name]
                continue
            out[config_name] = EstimateReport(
                config_name=config_name,
                phases=list(per_config[config_name]))
        return out


def _run_replay_job(phase: Phase, factory: ClusterFactory) -> PhaseEstimate:
    """Worker-side body of one unique replay (module-level: picklable)."""
    return estimate_phase(phase, factory)


def build_replay_plan(phases: Sequence[Phase],
                      factories: dict[str, ClusterFactory]) -> ReplayPlan:
    """Collect and dedupe every (phase, configuration) replay request.

    Dedup key: ``(phase_signature, factory fingerprint)`` -- one job per
    unique pair, shared across configurations whose clusters the
    simulation cannot distinguish.  Fingerprint-less factories dedupe
    within their own configuration only.  Each configuration's
    fingerprint (memoized per factory) is serialized into its job-name
    scope once, not once per phase; the plan itself builds no cluster
    once the factory's fingerprint is known.
    """
    phases = tuple(phases)
    sig_reprs = [repr(phase_signature(ph)).encode() for ph in phases]
    jobs: dict[str, ReplayJob] = {}
    requests = 0
    for config_name, factory in factories.items():
        scope = _job_scope(config_name,
                           simcache.factory_fingerprint(factory))
        for idx, ph in enumerate(phases):
            requests += 1
            name = _job_name(scope, sig_reprs[idx])
            job = jobs.get(name)
            if job is None:
                job = jobs[name] = ReplayJob(name=name, phase=ph,
                                             factory=factory)
            job.consumers.append((config_name, idx))
    return ReplayPlan(phases=phases, config_names=tuple(factories),
                      jobs=jobs, requests=requests)
