"""Vectorized configuration-lattice evaluation (eqs. 1-4 in batch).

``select_configuration`` normally *replays* every phase on every
candidate cluster (eq. 2's IOR replication).  That is the reference
method -- faithful, but one discrete-event simulation per unique
(phase, configuration) pair.  This module evaluates the same equations
*analytically* over an entire configuration lattice at once:

* every candidate cluster is flattened into one row of structured
  parameter arrays (:class:`LatticeParams`) -- RAID level, member
  count, stripe sizes, link rates, ION count, cache size, ...;
* ``BW_PK`` (eqs. 3/4) and the per-phase ``BW_CH``/``Time_io``
  (eqs. 1/2) are closed-form steady-state expressions of those arrays,
  evaluated as one numpy program over all configurations -- with a
  pure-Python scalar twin kept bit-identical (the same expression
  graph runs per row), mirroring the columnar-characterization
  pattern;
* the result is the familiar :class:`~repro.core.estimate.
  ConfigurationChoice` ranking plus per-config
  :class:`~repro.core.estimate.EstimateReport` views.

The analytic ``BW_CH`` mirrors the simulator's data path: a closed
queueing network of ``np`` clients cycling through client NIC ->
server NIC(s) -> local FS -> volume members, so the phase time is
``reps * max(sum-of-stage-latencies, per-op busy of the bottleneck
station)``, with the ext3/ext4 write-back cache absorbing write
backlog (``max(T_upstream, T_media - cache_s)``), NFS's per-chunk read
RPCs, PVFS2/Lustre striping and per-stripe costs, and the RAID
read-modify-write penalty.  It intentionally ignores second-order
simulation effects (background-load modulation, queue warmup), so
absolute numbers differ from replay; rankings agree on the seed
configurations (asserted in tests) but can legitimately diverge for
near-ties -- see docs/performance.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable, Sequence

from repro import obs
from repro.iosim.cluster import Cluster
from repro.iosim.globalfs import NFS, PVFS2, Lustre
from repro.iosim.raid import JBOD, RAID0, RAID1, RAID5, RAID6, RAID10
from repro.tracer.columns import numpy_enabled

from .phases import Phase
from .replication import replication_for_phase

MBf = 1024.0 * 1024.0

GFS_NFS, GFS_PVFS2, GFS_LUSTRE = 0, 1, 2
LEVEL_CODES = {JBOD: 0, RAID0: 1, RAID1: 2, RAID5: 3, RAID6: 4, RAID10: 5}
LVL_JBOD, LVL_RAID0, LVL_RAID1, LVL_RAID5, LVL_RAID6, LVL_RAID10 = range(6)

#: Parameter columns extracted per configuration (all float64).
FIELDS = (
    "gfs", "level", "n_ions", "stripe_cnt", "gstripe_b",
    "rpc_s", "chunk_b", "chunk_rpc_s", "meta_s", "pstripe_s", "ilf",
    "i_bw_B", "i_lat", "c_bw_B", "c_lat", "n_compute",
    "members", "vstripe_b", "d_wbw_B", "d_rbw_B", "seek_s", "over_s",
    "journal", "ra", "oplat_s", "mem_bw_B", "cache_b",
)


class LatticeUnsupportedError(ValueError):
    """A cluster cannot be flattened into lattice parameter arrays
    (heterogeneous members, unknown volume/filesystem model, ...)."""


# ---------------------------------------------------------------------------
# parameter extraction: Cluster -> one row of the lattice
# ---------------------------------------------------------------------------

def _uniform(values, what: str, name: str):
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise LatticeUnsupportedError(
                f"configuration {name!r} has heterogeneous {what}; the "
                "lattice kernels need identical members (use the replay "
                "method for irregular clusters)")
    return first


def extract_row(cluster: Cluster) -> dict[str, float]:
    """Flatten one built cluster into a lattice parameter row."""
    name = cluster.name
    gfs = cluster.globalfs
    ions = gfs.ions
    _uniform([ion.fingerprint() for ion in ions], "I/O nodes", name)
    ion = ions[0]
    volume = ion.fs.volume
    level = LEVEL_CODES.get(type(volume))
    if level is None:
        raise LatticeUnsupportedError(
            f"configuration {name!r} uses unsupported volume "
            f"{type(volume).__name__}")
    _uniform([d.fingerprint() for d in volume.disks], "member disks", name)
    if volume.failed:
        raise LatticeUnsupportedError(
            f"configuration {name!r} is degraded; the analytic lattice "
            "models healthy arrays only")
    disk = volume.disks[0].spec
    fspec = ion.fs.spec
    _uniform([cn.nic.spec for cn in cluster.compute_nodes],
             "compute-node links", name)
    clink = cluster.compute_nodes[0].nic.spec
    ilink = ion.nic.spec
    row = dict(
        level=float(level),
        n_ions=float(len(ions)),
        i_bw_B=ilink.bw_mb_s * MBf, i_lat=ilink.latency_s,
        c_bw_B=clink.bw_mb_s * MBf, c_lat=clink.latency_s,
        n_compute=float(len(cluster.compute_nodes)),
        members=float(len(volume.disks)),
        vstripe_b=float((getattr(volume, "stripe_kb", 0) or 0) * 1024),
        d_wbw_B=disk.seq_write_bw * MBf, d_rbw_B=disk.seq_read_bw * MBf,
        seek_s=(disk.seek_ms + disk.rotational_ms) / 1e3,
        over_s=disk.op_overhead_ms / 1e3,
        journal=fspec.journal_write_overhead, ra=fspec.readahead_benefit,
        oplat_s=fspec.op_latency_ms / 1e3,
        mem_bw_B=fspec.memory_bw_mb_s * MBf,
        cache_b=ion.fs.cache_mb * MBf,
        rpc_s=0.0, chunk_b=1.0, chunk_rpc_s=0.0, meta_s=0.0,
        pstripe_s=0.0, ilf=0.0, gstripe_b=1.0, stripe_cnt=float(len(ions)),
    )
    if isinstance(gfs, NFS):
        row.update(gfs=float(GFS_NFS), stripe_cnt=1.0,
                   rpc_s=gfs.rpc_overhead_ms / 1e3,
                   chunk_b=float(gfs.read_chunk_kb * 1024),
                   chunk_rpc_s=gfs.read_rpc_ms / 1e3)
    elif isinstance(gfs, PVFS2):
        row.update(gfs=float(GFS_PVFS2), gstripe_b=float(gfs.stripe_bytes),
                   meta_s=gfs.meta_overhead_ms / 1e3,
                   pstripe_s=gfs.per_stripe_overhead_ms / 1e3,
                   ilf=gfs.interleave_seek_factor)
    elif isinstance(gfs, Lustre):
        row.update(gfs=float(GFS_LUSTRE), gstripe_b=float(gfs.stripe_bytes),
                   stripe_cnt=float(gfs.stripe_count),
                   meta_s=gfs.mds_overhead_ms / 1e3,
                   pstripe_s=gfs.per_stripe_overhead_ms / 1e3,
                   ilf=gfs.interleave_seek_factor)
    else:
        raise LatticeUnsupportedError(
            f"configuration {name!r} uses unsupported global filesystem "
            f"{type(gfs).__name__}")
    return row


@dataclass
class LatticeParams:
    """Structured parameter arrays over N candidate configurations."""

    names: list[str]
    cols: dict[str, "object"]  # field -> ndarray (numpy) | list (python)
    backend: str
    _groups: dict | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[dict],
                  backend: str | None = None) -> "LatticeParams":
        backend = backend or ("numpy" if numpy_enabled() else "python")
        cols: dict[str, object] = {}
        if backend == "numpy":
            import numpy as np
            for f in FIELDS:
                cols[f] = np.array([r[f] for r in rows], dtype=np.float64)
        else:
            for f in FIELDS:
                cols[f] = [float(r[f]) for r in rows]
        return cls(names=list(names), cols=cols, backend=backend)

    @classmethod
    def from_clusters(cls, clusters: dict[str, Cluster],
                      backend: str | None = None) -> "LatticeParams":
        rows = [extract_row(c) for c in clusters.values()]
        return cls.from_rows(list(clusters.keys()), rows, backend=backend)

    @classmethod
    def from_factories(cls, factories: dict[str, Callable[[], Cluster]],
                       backend: str | None = None) -> "LatticeParams":
        """Build each candidate once and flatten it into the lattice."""
        return cls.from_clusters(
            {name: f() for name, f in factories.items()}, backend=backend)

    def row(self, i: int) -> SimpleNamespace:
        return SimpleNamespace(
            **{f: float(self.cols[f][i]) for f in FIELDS})

    def groups(self):
        """(gfs, level) -> index array; kernel branches are uniform
        within a group, so each group evaluates as straight-line numpy.
        Built once: ``cols`` never changes after construction."""
        if self._groups is None:
            import numpy as np
            gfs, level = self.cols["gfs"], self.cols["level"]
            keys = {(int(g), int(l)) for g, l in zip(gfs.tolist(),
                                                     level.tolist())}
            self._groups = {k: np.flatnonzero((gfs == k[0]) & (level == k[1]))
                            for k in keys}
        return self._groups

    def peak_bw(self, kind: str):
        """eqs. (3)/(4) for every configuration at once (MB/s)."""
        return _evaluate(self, partial(_peak_kernel, kind=kind))


# ---------------------------------------------------------------------------
# kernels: one expression graph, two drivers (numpy rows / scalar rows)
# ---------------------------------------------------------------------------

def _evaluate(params: LatticeParams, kernel):
    """Run ``kernel(g, gfs, level, mx, mn, fl, cl, sel)`` over all rows.

    The numpy driver evaluates whole (gfs, level) groups as subarrays;
    the python driver evaluates row by row with scalar helpers.  Both
    execute the identical elementwise expression graph, so the results
    are bit-identical (the PR 3 columnar twin-backend contract).
    """
    if params.backend == "numpy":
        import numpy as np

        def sel(cond, a, b):
            return np.where(cond, a, b)

        out = np.empty(len(params), dtype=np.float64)
        for (gfs, level), idx in params.groups().items():
            g = SimpleNamespace(
                **{f: params.cols[f][idx] for f in FIELDS})
            with np.errstate(divide="ignore", invalid="ignore"):
                out[idx] = kernel(g, gfs, level, np.maximum, np.minimum,
                                  np.floor, np.ceil, sel)
        return out

    def ssel(cond, a, b):
        return a if cond else b

    def sfl(x):
        return float(math.floor(x))

    def scl(x):
        return float(math.ceil(x))

    return [kernel(params.row(i), int(params.cols["gfs"][i]),
                   int(params.cols["level"][i]), max, min, sfl, scl, ssel)
            for i in range(len(params))]


def _peak_kernel(g, gfs, level, mx, mn, fl, cl, sel, kind="write"):
    write = kind == "write"
    dbw = g.d_wbw_B if write else g.d_rbw_B
    if level == LVL_JBOD:
        vol = dbw
    elif level == LVL_RAID0:
        vol = g.members * dbw
    elif level == LVL_RAID1:
        vol = dbw if write else g.members * dbw
    elif level == LVL_RAID5:
        vol = (g.members - 1.0) * dbw
    elif level == LVL_RAID6:
        vol = (g.members - 2.0) * dbw
    else:  # RAID10
        vol = (fl(g.members / 2.0) if write else g.members) * dbw
    fsbw = vol / (1.0 + g.journal) if write else vol
    if gfs == GFS_NFS:
        agg = fsbw  # eq. (3): single I/O node
    else:
        agg = g.n_ions * fsbw  # eq. (4): sum over I/O nodes
    return agg / MBf


def _vol_write_peak(g, level, fl):
    """Volume streaming write peak in B/s (the cache drain rate)."""
    if level == LVL_JBOD:
        return g.d_wbw_B
    if level == LVL_RAID0:
        return g.members * g.d_wbw_B
    if level == LVL_RAID1:
        return g.d_wbw_B
    if level == LVL_RAID5:
        return (g.members - 1.0) * g.d_wbw_B
    if level == LVL_RAID6:
        return (g.members - 2.0) * g.d_wbw_B
    return fl(g.members / 2.0) * g.d_wbw_B  # RAID10


@dataclass(frozen=True)
class _KindCase:
    """One replication run, reduced to the kernel's phase scalars."""

    np_: float
    rs: float
    reps: float
    kind: str
    unique: bool
    collective: bool


def _bw_kernel(g, gfs, level, mx, mn, fl, cl, sel, case=None):
    """Analytic BW_CH (MB/s) of one replication run on every config.

    Steady state of the closed client -> NIC -> FS -> members network:
    ``T = reps * max(sum of per-op stage latencies, per-op busy time of
    the bottleneck shared station)``, write-back cache absorption as
    ``max(T_upstream, T_media - cache_s)``.
    """
    ph = case
    npr, rs, reps = ph.np_, ph.rs, ph.reps
    write = ph.kind == "write"
    collective = ph.collective and not ph.unique and npr > 1.0

    # -- participating servers ------------------------------------------------
    if gfs == GFS_NFS:
        eye = 1.0      # OSTs a file stripes over
        pear = 1.0     # servers the phase load spreads over
    elif gfs == GFS_PVFS2:
        eye = g.n_ions
        pear = g.n_ions
    else:  # Lustre: stripe_count OSTs per file, rotated by file id
        eye = g.stripe_cnt
        pear = mn(g.n_ions, npr * eye) if ph.unique else g.stripe_cnt
    # One op touches ``i_crit`` of the ``eye`` stripe servers (an op
    # smaller than the stripe lands whole on one), so each server sees
    # ``npr * i_crit / pear`` requests of ``share_crit`` bytes per cycle
    # -- the granularity at which seeks and per-stripe costs are paid.
    i_crit = mn(eye, mx(1.0, cl(rs / g.gstripe_b)))
    share_crit = rs / i_crit
    nstripes = mx(1.0, cl(share_crit / g.gstripe_b))
    req_rate = npr * i_crit / pear                # requests/server/cycle

    # -- per-member media request time ---------------------------------------
    jmul = (1.0 + g.journal) if write else 1.0
    v = share_crit * jmul                         # volume bytes per request
    dbw = g.d_wbw_B if write else g.d_rbw_B
    seekf = 0.0 if (npr <= 1.0 and not collective) else 1.0
    frag_extra = mx(0.0, fl(nstripes * g.ilf) - 1.0)
    fixed = g.over_s + (seekf + frag_extra) * g.seek_s

    b_m_override = None
    if level == LVL_JBOD:
        t_req = fixed + v / dbw
        spread = mn(npr, g.members) if ph.unique else 1.0
    elif level == LVL_RAID0:
        t_req = fixed + v / g.members / dbw
        spread = 1.0
    elif level == LVL_RAID1:
        # Writes hit every mirror (full v each); reads load-balance.
        t_req = fixed + (v if write else v / g.members) / dbw
        spread = 1.0
    elif level in (LVL_RAID5, LVL_RAID6):
        k = 1.0 if level == LVL_RAID5 else 2.0
        dd = g.members - k
        if write:
            # Sub-stripe writes read-modify-write: the data and parity
            # members each pay a read pass then a write pass of v.  A
            # shared file hammers one (data, parity) set; unique files
            # rotate the set with the locator, so the busiest member
            # carries ceil(np * (k+1) / members) of the np streams.
            t_full = fixed + v / dd / dbw
            t_rmw = (fixed + v / g.d_rbw_B) + (fixed + v / g.d_wbw_B)
            full = v >= g.vstripe_b * dd
            t_req = sel(full, t_full, t_rmw)
            hot = (cl(req_rate * (k + 1.0) / g.members) if ph.unique
                   else req_rate)
            b_m_override = sel(full, req_rate * t_full, hot * t_rmw)
        else:
            t_req = fixed + v / dd / dbw
        spread = 1.0
    else:  # RAID10
        pairs = fl(g.members / 2.0)
        t_req = fixed + (v / pairs if write else v / g.members) / dbw
        spread = 1.0

    if not write and npr <= 1.0 and not collective:
        t_req = t_req * g.ra                      # sequential readahead

    # -- stage latencies and per-op busy times --------------------------------
    s_cl = g.c_lat + rs / g.c_bw_B
    if gfs == GFS_NFS:
        extra = cl(rs / g.chunk_b) * g.chunk_rpc_s if not write else 0.0
        s_srv = g.i_lat + rs / g.i_bw_B + extra
        meta = g.rpc_s
    else:
        extra = 0.0
        s_srv = (g.i_lat + share_crit / g.i_bw_B
                 + nstripes * g.pstripe_s)
        meta = g.meta_s
    b_n = req_rate * s_srv                        # per-server NIC busy/cycle
    mem_t = share_crit / g.mem_bw_B
    rpn = cl(npr / g.n_compute)                   # ranks sharing a client NIC
    b_c = rpn * s_cl
    if b_m_override is not None:
        b_m = b_m_override
    else:
        b_m = req_rate * t_req / spread           # per-member busy per cycle
    cache_s = g.cache_b / _vol_write_peak(g, level, fl)

    # Per-op critical path.  The simulated path is cut-through: the
    # server NIC is acquired at client-send *begin* (+ link latency)
    # and the FS/media chain starts at server-NIC *begin*, so the
    # stages overlap -- the op latency is a nested max, not a sum.
    med = mem_t if write else t_req               # absorbed ack vs media
    if gfs == GFS_NFS:
        ss = g.c_lat + mx(rs / g.c_bw_B,
                          mx(s_srv, meta + extra + g.oplat_s + med))
    else:
        ss = g.c_lat + mx(rs / g.c_bw_B,
                          meta + mx(s_srv, g.oplat_s + med))

    total_mb = npr * reps * rs / MBf
    if not collective:
        if write:
            t_up = reps * mx(mx(ss, b_c), b_n)
            time_s = mx(t_up, reps * b_m - cache_s)
        else:
            time_s = reps * mx(mx(mx(ss, b_c), b_n), b_m)
        return total_mb / time_s

    # -- collective: two-phase I/O barriers every op --------------------------
    nodes = mn(npr, g.n_compute)
    cb = mx(1.0, mn(nodes, 2.0 * g.n_ions))       # aggregator count
    exch = g.c_lat + 2.0 * npr * rs / (nodes * g.c_bw_B)
    agg_bytes = npr * rs / cb
    s_cl_a = g.c_lat + agg_bytes / g.c_bw_B
    if gfs == GFS_NFS:
        extra_a = (cl(agg_bytes / g.chunk_b) * g.chunk_rpc_s
                   if not write else 0.0)
        b_n_c = cb * (g.i_lat + extra_a) + npr * rs / g.i_bw_B
    else:
        extra_a = 0.0
        share_a = agg_bytes / eye                 # per-server slice/aggregator
        nstripes_a = mx(1.0, cl(share_a / g.gstripe_b))
        b_n_c = cb * (g.i_lat + share_a / g.i_bw_B
                      + nstripes_a * g.pstripe_s)
    serial = (npr / cb) * g.oplat_s
    media_c = (npr / cb) * mem_t if write else b_m
    t_op = exch + s_cl_a + b_n_c + meta + extra_a + serial + media_c
    time_s = reps * t_op
    if write:
        time_s = mx(time_s, reps * b_m - cache_s)
    return total_mb / time_s


# ---------------------------------------------------------------------------
# evaluation: phases x lattice -> ConfigurationChoice + EstimateReports
# ---------------------------------------------------------------------------

def _cases_for_phase(phase: Phase) -> list[_KindCase]:
    """The exact replication runs replay would execute, as kernel cases
    (same steady-state inflation, same per-kind request sizes)."""
    repl = replication_for_phase(phase)
    return [_KindCase(np_=float(p.np), rs=float(p.transfer_size),
                      reps=float(p.block_size // p.transfer_size),
                      kind=p.kinds[0], unique=p.file_per_process,
                      collective=p.collective)
            for p in repl.runs]


class LatticeSelection:
    """Result of one lattice pass: ranking plus lazy per-config reports."""

    def __init__(self, params: LatticeParams, phases: Sequence[Phase],
                 totals_list: list[float],
                 phase_bw: list[tuple[Phase, dict[str, "object"]]]):
        self.params = params
        self.phases = list(phases)
        self._totals_list = totals_list
        self._phase_bw = phase_bw
        totals = {name: float(t)
                  for name, t in zip(params.names, totals_list)}
        best = min(totals, key=totals.get)
        from .estimate import ConfigurationChoice
        self.choice = ConfigurationChoice(best=best, total_times=totals)

    def report(self, name: str) -> "object":
        """EstimateReport view of one configuration (built on demand)."""
        from .estimate import EstimateReport, PhaseEstimate
        i = self.params.names.index(name)
        report = EstimateReport(config_name=name)
        for ph, by_kind in self._phase_bw:
            kinds = {k: float(bw[i]) for k, bw in by_kind.items()}
            report.phases.append(PhaseEstimate(
                phase_id=ph.phase_id, weight=ph.weight,
                op_label=ph.op_label,
                bw_ch_mb_s=sum(kinds.values()) / len(kinds),
                bw_ch_by_kind=kinds))
        return report

    def reports(self) -> dict[str, "object"]:
        return {name: self.report(name) for name in self.params.names}


def evaluate_lattice(phases: Sequence[Phase],
                     params: LatticeParams) -> LatticeSelection:
    """eqs. (1)/(2) for every phase on every configuration in one pass."""
    n = len(params)
    with obs.span("select.lattice", cat="select",
                  configs=n, phases=len(phases)):
        # Unique replication signatures evaluate once (estimate_model's
        # dedup rule), then fan out to every phase that shares them.
        sig_bw: dict[tuple, dict[str, object]] = {}
        phase_bw: list[tuple[Phase, dict[str, object]]] = []
        for ph in phases:
            sig = (ph.np, ph.rep, ph.unique_file, ph.collective,
                   tuple((o.op, o.request_size) for o in ph.ops))
            by_kind = sig_bw.get(sig)
            if by_kind is None:
                by_kind = {}
                for case in _cases_for_phase(ph):
                    by_kind[case.kind] = _evaluate(
                        params, partial(_bw_kernel, case=case))
                sig_bw[sig] = by_kind
            phase_bw.append((ph, by_kind))
        if obs.ACTIVE:
            obs.inc("lattice_configs_total", amount=n)
            obs.inc("lattice_phase_evals_total",
                    amount=len(sig_bw) * n)

        # Accumulate eq. (1) totals in phase order (both backends sum in
        # the same order, keeping numpy and python bit-identical).
        if params.backend == "numpy":
            import numpy as np
            totals = np.zeros(n, dtype=np.float64)
            for ph, by_kind in phase_bw:
                vals = list(by_kind.values())
                bw_ch = vals[0]
                for v in vals[1:]:
                    bw_ch = bw_ch + v
                bw_ch = bw_ch / float(len(vals))
                totals = totals + (ph.weight / MBf) / bw_ch
            totals_list = [float(t) for t in totals]
        else:
            totals_list = [0.0] * n
            for ph, by_kind in phase_bw:
                vals = list(by_kind.values())
                nv = float(len(vals))
                w = ph.weight / MBf
                for i in range(n):
                    bw_ch = vals[0][i]
                    for v in vals[1:]:
                        bw_ch = bw_ch + v[i]
                    totals_list[i] += w / (bw_ch / nv)
        return LatticeSelection(params, phases, totals_list, phase_bw)


# ---------------------------------------------------------------------------
# declarative configuration spaces
# ---------------------------------------------------------------------------

_LEVEL_BUILDERS = {
    "jbod": lambda name, disks, kb: JBOD(name, disks),
    "raid0": lambda name, disks, kb: RAID0(name, disks, stripe_kb=kb),
    "raid1": lambda name, disks, kb: RAID1(name, disks),
    "raid5": lambda name, disks, kb: RAID5(name, disks, stripe_kb=kb),
    "raid6": lambda name, disks, kb: RAID6(name, disks, stripe_kb=kb),
    "raid10": lambda name, disks, kb: RAID10(name, disks, stripe_kb=kb),
}


@dataclass(frozen=True)
class LatticePoint:
    """One point of a declarative config space (picklable factory arg)."""

    raid: str
    members: int
    stripe_kb: int
    net_mb_s: float
    ions: int
    disk_write_mb_s: float = 90.0
    disk_read_mb_s: float = 100.0
    n_compute: int = 4
    client_bw_mb_s: float = 1900.0
    cache_mb: float = 256.0

    @property
    def name(self) -> str:
        return (f"{self.raid}-m{self.members}-s{self.stripe_kb}"
                f"-net{self.net_mb_s:g}-ion{self.ions}"
                f"-d{self.disk_write_mb_s:g}")


def build_point(point: LatticePoint) -> Cluster:
    """Build the cluster a :class:`LatticePoint` describes."""
    from repro.iosim.device import Disk, DiskSpec
    from repro.iosim.localfs import EXT4, LocalFS
    from repro.iosim.network import LinkSpec
    from repro.iosim.nodes import ComputeNode, IONode

    spec = DiskSpec(seq_write_bw=point.disk_write_mb_s,
                    seq_read_bw=point.disk_read_mb_s)
    ion_link = LinkSpec(bw_mb_s=point.net_mb_s, latency_s=20e-6,
                        name=f"ion-{point.net_mb_s:g}")
    client_link = LinkSpec(bw_mb_s=point.client_bw_mb_s, latency_s=8e-6,
                           name="client")
    build_volume = _LEVEL_BUILDERS[point.raid]
    ions = []
    for i in range(point.ions):
        disks = [Disk(f"d{i}.{j}", spec) for j in range(point.members)]
        volume = build_volume(f"vol{i}", disks, point.stripe_kb)
        fs = LocalFS(f"/data{i}", volume, EXT4, cache_mb=point.cache_mb)
        ions.append(IONode.make(f"ion{i}", fs, ion_link))
    if point.ions == 1:
        gfs = NFS(ions[0])
    else:
        gfs = PVFS2(ions, stripe_kb=64)
    nodes = [ComputeNode.make(f"cn{i}", client_link)
             for i in range(point.n_compute)]
    return Cluster(name=point.name, compute_nodes=nodes, globalfs=gfs,
                   compute_net=client_link)


@dataclass
class ConfigSpace:
    """Declarative RAID x members x stripe x network x ION lattice."""

    raid_levels: tuple = ("jbod", "raid0", "raid1", "raid5")
    members: tuple = (3, 4, 5, 6)
    stripe_kb: tuple = (64, 128, 256, 512)
    net_mb_s: tuple = (800.0, 1100.0, 1500.0, 1900.0)
    ions: tuple = (1, 2, 3, 4)
    disk_mb_s: tuple = ((25.0, 30.0), (60.0, 70.0),
                        (90.0, 100.0), (140.0, 150.0))  # (write, read) tiers
    n_compute: int = 4
    client_bw_mb_s: float = 1900.0
    cache_mb: float = 256.0

    def points(self) -> list[LatticePoint]:
        pts = []
        for raid in self.raid_levels:
            for m in self.members:
                for kb in self.stripe_kb:
                    for net in self.net_mb_s:
                        for nion in self.ions:
                            for dw, dr in self.disk_mb_s:
                                pts.append(LatticePoint(
                                    raid=raid, members=m, stripe_kb=kb,
                                    net_mb_s=net, ions=nion,
                                    disk_write_mb_s=dw, disk_read_mb_s=dr,
                                    n_compute=self.n_compute,
                                    client_bw_mb_s=self.client_bw_mb_s,
                                    cache_mb=self.cache_mb))
        return pts

    def factories(self) -> dict[str, Callable[[], Cluster]]:
        """Picklable per-point factories, in lattice enumeration order."""
        return {p.name: partial(build_point, p) for p in self.points()}

    def params(self, backend: str | None = None) -> LatticeParams:
        """The lattice parameter arrays for every point."""
        pts = self.points()
        return LatticeParams.from_rows(
            [p.name for p in pts],
            [extract_row(build_point(p)) for p in pts],
            backend=backend)
