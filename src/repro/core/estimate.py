"""The paper's estimators: equations (1) through (7).

* eq. (1)/(2): estimated I/O time ``Time_io = sum weight(ph)/BW_CH(ph)``,
  where BW_CH is the bandwidth IOR achieves replaying the phase on the
  target configuration;
* eq. (3)/(4): peak device bandwidth BW_PK from IOzone per I/O node
  (summed over nodes for parallel filesystems);
* eq. (5): ``SystemUsage = BW_MD / BW_PK * 100``;
* eq. (6)/(7): absolute/relative error between characterized (BW_CH)
  and measured (BW_MD) bandwidths.

``BW_MD`` -- the application's measured bandwidth per phase -- is
defined as ``weight / T_MD`` with ``T_MD`` the maximum over member ranks
of the summed durations of the rank's operations in the phase (ranks
run their phase operations back to back, so the slowest rank's I/O time
is the phase's elapsed I/O time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.apps.ior import run_ior_memoized
from repro.apps.iozone import IOzoneParams, run_iozone
from repro.iosim.cluster import Cluster

from . import cache as simcache
from .phases import Phase
from .replication import PhaseReplication, replication_for_phase

MB = 1024 * 1024

#: A zero-argument callable building a *fresh* cluster (no queue state).
ClusterFactory = Callable[[], Cluster]


# ---------------------------------------------------------------------------
# eq. (3) / (4): peak bandwidth
# ---------------------------------------------------------------------------

def peak_bandwidth(cluster_factory: ClusterFactory, kind: str,
                   iozone_params: IOzoneParams | None = None,
                   analytic: bool = False) -> float:
    """BW_PK of a configuration in MB/s.

    ``analytic=True`` uses the device model's nominal streaming rate;
    the default measures each I/O node with IOzone (the paper's method)
    and applies eq. (3) per node / eq. (4) across nodes.
    """
    cluster = cluster_factory()
    if analytic:
        return cluster.peak_bw(kind)
    params = iozone_params or IOzoneParams()
    ions = cluster.globalfs.ions
    # Identical I/O nodes (same fingerprint) measure once: IOzone is
    # deterministic on a fresh node, so a triple-server PVFS2 with three
    # clones pays a single run fanned out three ways (eq. 4 unchanged).
    by_fp: dict = {}
    maxima = []
    for ion in ions:
        fp = ion.fingerprint()
        bw = by_fp.get(fp)
        if bw is None:
            bw = by_fp[fp] = run_iozone(ion, params).peak_bw(kind)
        maxima.append(bw)
    if len(maxima) == 1:
        return maxima[0]  # eq. (3)
    return sum(maxima)  # eq. (4)


# ---------------------------------------------------------------------------
# eq. (1) / (2): estimation via IOR replication
# ---------------------------------------------------------------------------

@dataclass
class PhaseEstimate:
    """BW_CH and Time_io(CH) for one phase (eq. 2)."""

    phase_id: int
    weight: int
    op_label: str
    bw_ch_mb_s: float
    bw_ch_by_kind: dict[str, float] = field(default_factory=dict)

    @property
    def time_ch(self) -> float:
        """eq. (2): Time_io(phase) = weight / BW_CH."""
        return self.weight / MB / self.bw_ch_mb_s


@dataclass
class EstimateReport:
    """Per-phase and total estimated I/O time on one configuration."""

    config_name: str
    phases: list[PhaseEstimate] = field(default_factory=list)

    _index: "tuple | None" = field(default=None, repr=False, compare=False)

    @property
    def total_time_ch(self) -> float:
        """eq. (1): sum over phases."""
        return sum(p.time_ch for p in self.phases)

    def phase(self, phase_id: int) -> PhaseEstimate:
        return _phase_lookup(self, phase_id)


def _phase_lookup(report, phase_id: int):
    """Lazily indexed phase lookup shared by the report classes.

    The index is (re)built whenever the phase list changed length, so
    reports stay append-friendly; first-match semantics are preserved
    for duplicate ids via ``setdefault``.
    """
    cached = report._index
    if cached is None or cached[0] != len(report.phases):
        index = {}
        for p in report.phases:
            index.setdefault(p.phase_id, p)
        report._index = cached = (len(report.phases), index)
    index = cached[1]
    try:
        return index[phase_id]
    except KeyError:
        raise KeyError(f"no phase {phase_id}") from None


def estimate_phase(phase: Phase, cluster_factory: ClusterFactory) -> PhaseEstimate:
    """Replay one phase with IOR on a fresh cluster and compute BW_CH.

    Multi-operation phases run one IOR test per operation type; BW_CH is
    the average of the per-type bandwidths (the paper's rule for phases
    with two or more I/O operations).

    Each IOR run is memoized by (params, the factory's shared
    fingerprint, :func:`repro.core.cache.factory_fingerprint`), looked
    up before anything is built: the factory builds a fresh cluster
    only on a miss.
    """
    repl: PhaseReplication = replication_for_phase(phase)
    fp = simcache.factory_fingerprint(cluster_factory)
    bw_by_kind: dict[str, float] = {}
    for params in repl.runs:
        result = run_ior_memoized(cluster_factory, params, fp)
        (kind,) = params.kinds
        bw_by_kind[kind] = result.bw(kind)
    bw_ch = sum(bw_by_kind.values()) / len(bw_by_kind)
    return PhaseEstimate(
        phase_id=phase.phase_id,
        weight=phase.weight,
        op_label=phase.op_label,
        bw_ch_mb_s=bw_ch,
        bw_ch_by_kind=bw_by_kind,
    )


def estimate_model(phases: Sequence[Phase], cluster_factory: ClusterFactory,
                   config_name: str = "config") -> EstimateReport:
    """eq. (1): estimate every phase of a model on one configuration.

    Identical phases (same signature: np, rep, ops, request sizes,
    collective/unique flags) share one IOR measurement -- BT-IO's 50
    write phases need a single replication run, exactly as the paper
    executes "the benchmark [only] for the phases of [the] I/O model".
    """
    report = EstimateReport(config_name=config_name)
    cache: dict[tuple, PhaseEstimate] = {}
    for ph in phases:
        key = (ph.np, ph.rep, ph.unique_file, ph.collective,
               tuple((o.op, o.request_size) for o in ph.ops))
        hit = cache.get(key)
        if hit is None:
            hit = estimate_phase(ph, cluster_factory)
            cache[key] = hit
        report.phases.append(PhaseEstimate(
            phase_id=ph.phase_id,
            weight=ph.weight,
            op_label=ph.op_label,
            bw_ch_mb_s=hit.bw_ch_mb_s,
            bw_ch_by_kind=dict(hit.bw_ch_by_kind),
        ))
    return report


# ---------------------------------------------------------------------------
# measurement (BW_MD) from a traced run on the target configuration
# ---------------------------------------------------------------------------

@dataclass
class PhaseMeasurement:
    """Measured time and bandwidth of one phase (BW_MD)."""

    phase_id: int
    weight: int
    op_label: str
    time_md: float

    @property
    def bw_md_mb_s(self) -> float:
        return self.weight / MB / max(self.time_md, 1e-12)


@dataclass
class MeasureReport:
    config_name: str
    phases: list[PhaseMeasurement] = field(default_factory=list)

    _index: "tuple | None" = field(default=None, repr=False, compare=False)

    @property
    def total_time_md(self) -> float:
        return sum(p.time_md for p in self.phases)

    def phase(self, phase_id: int) -> PhaseMeasurement:
        return _phase_lookup(self, phase_id)


def measure_phases(phases: Sequence[Phase], config_name: str = "config") -> MeasureReport:
    """BW_MD per phase from a model extracted on the *target* cluster.

    ``Phase.duration`` already holds the slowest member rank's summed
    operation durations, measured during the traced run.
    """
    report = MeasureReport(config_name=config_name)
    for ph in phases:
        report.phases.append(PhaseMeasurement(
            phase_id=ph.phase_id,
            weight=ph.weight,
            op_label=ph.op_label,
            time_md=ph.duration,
        ))
    return report


# ---------------------------------------------------------------------------
# eq. (5): system usage; eq. (6)/(7): errors
# ---------------------------------------------------------------------------

def system_usage(bw_md_mb_s: float, bw_pk_mb_s: float) -> float:
    """eq. (5): percentage of the configuration's capacity in use."""
    if bw_pk_mb_s <= 0:
        raise ValueError("BW_PK must be positive")
    return bw_md_mb_s / bw_pk_mb_s * 100.0


def absolute_error(bw_ch: float, bw_md: float) -> float:
    """eq. (7)."""
    return abs(bw_ch - bw_md)


def relative_error(bw_ch: float, bw_md: float) -> float:
    """eq. (6), in percent."""
    if bw_md <= 0:
        raise ValueError("measured bandwidth must be positive")
    return 100.0 * absolute_error(bw_ch, bw_md) / bw_md


def time_error_pct(t_ch: float, t_md: float) -> float:
    """Relative error of an estimated I/O time against the measured one,
    in percent (Tables XIII/XIV); a zero measured time counts as 1e-12 s."""
    return 100.0 * abs(t_ch - t_md) / max(t_md, 1e-12)


@dataclass
class ConfigurationChoice:
    """Outcome of the selection step: least estimated I/O time wins."""

    best: str
    total_times: dict[str, float]

    def ranking(self) -> list[tuple[str, float]]:
        return sorted(self.total_times.items(), key=lambda kv: kv[1])


def select_configuration(phases: Sequence[Phase],
                         factories: dict[str, ClusterFactory],
                         lattice=False,
                         executor=None) -> ConfigurationChoice:
    """Estimate the model on every configuration; pick the fastest.

    This is the paper's use case in Table XII: estimate BT-IO on
    configuration C and Finisterrae, choose Finisterrae.

    The replay requests of all candidate configurations are collected
    into one batched plan (:mod:`repro.core.planner`) first, so only
    unique (phase signature, configuration fingerprint) pairs are
    executed -- identical phases share one IOR replication within *and*
    across configurations.  ``executor`` (an
    :class:`~repro.core.executors.Executor`; default serial) fans those
    unique replays out -- to worker processes with a ``PoolExecutor``
    (factories must be picklable; unpicklable sweeps fall back to the
    serial path), to socket workers with a ``ClusterExecutor`` -- with
    bit-identical rankings.

    The executor's policy (see :mod:`repro.core.sweep`) applies per
    unique replay: ``retry`` absorbs transient faults; ``timeout_s``
    bounds parallel jobs; ``raise_on_error=False`` records
    configurations depending on a failed replay as ``inf`` in
    ``total_times`` (they can never win the selection but the study
    survives); ``checkpoint_dir`` + ``resume`` make an interrupted
    selection resumable (job names are deterministic).

    ``lattice=True`` switches from per-config replay to the analytic
    lattice kernels (:mod:`repro.core.lattice`): every candidate is
    flattened into parameter arrays and eqs. (1)-(2) evaluate over all
    of them in one vectorized pass -- thousands of configurations per
    array program instead of one simulation each.  Pass a prebuilt
    :class:`~repro.core.lattice.LatticeParams` to skip re-extraction.
    The replay path (the default) remains the reference method;
    rankings agree on the seed configurations but can differ for
    near-ties (see docs/performance.md).
    """
    from .planner import build_replay_plan
    from .sweep import JobFailure, SweepJobError

    if lattice is not False and lattice is not None:
        from .lattice import LatticeParams, evaluate_lattice
        params = (lattice if isinstance(lattice, LatticeParams)
                  else LatticeParams.from_factories(factories))
        return evaluate_lattice(phases, params).choice

    plan = build_replay_plan(tuple(phases), factories)
    reports = plan.execute(executor=executor)
    totals = {name: (report.total_time_ch
                     if not isinstance(report, JobFailure)
                     else float("inf"))
              for name, report in reports.items()}
    if all(t == float("inf") for t in totals.values()):
        raise SweepJobError("selection",
                            "every configuration's estimate failed", "")
    best = min(totals, key=totals.get)
    return ConfigurationChoice(best=best, total_times=totals)
