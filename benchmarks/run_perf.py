#!/usr/bin/env python
"""Before/after wall-clock benchmark for the fast SPMD core and the
columnar characterization pipeline.

Three workload families, each workload run as a before/after pair:

* **simulation** (``full_study_*``, ``replay_high_rep``) -- before: the
  pre-optimization pipeline (memo caches disabled, full IOzone grids,
  no extrapolation); after: the optimized core.  Both legs run the one
  coroutine scheduler.
* **characterization** (``characterize_*``) -- before: the per-record
  reference pipeline (Fig. 2 text parse into ``TraceRecord`` objects,
  record-by-record LAP/phase extraction); after: the columnar pipeline
  (binary column load, vectorized extraction), plus a traced high-np
  ROMS run.
* **distributed sweep** (``sweep_cluster``) -- before: spawn-per-job
  dispatch to fresh worker processes; after: one persistent socket
  worker cluster (:mod:`repro.core.executors`) running the same replay
  jobs with pipelined dispatch.

Every workload's two legs must produce the *same* results (models are
compared bit-for-bit) -- the optimizations are exact, only faster.  Any
mismatch lands in the report's ``output_drift`` arrays; the ``drift``
arrays record per-repeat timing deltas against the recorded (best)
``after_s``, and ``output_digest`` holds a sha256 over each workload's
canonical "after" summary so separate runs can be compared bit-for-bit.

Workloads flagged ``fresh_store`` (the high-np ROMS characterization)
attach a fresh persistent result store (:mod:`repro.store`) for their
"after" legs: repeat 1 populates it cold, repeat 2 warm-starts from
disk, and best-of records the warm path -- the cross-process re-run
cost the store is built to eliminate.

Results land in ``BENCH_perf.json``; ``--check-baseline`` compares the
"after" total against ``benchmarks/BENCH_baseline.json``, exits
non-zero on a >30 % regression or on any workload whose
``output_digest`` differs from the committed one, and enforces each
workload's minimum speedup (the characterization workloads must stay
>= 5x).
``--check-warm COLD.json`` is the CI warm-cache gate: run the suite
twice with ``REPRO_CACHE_DIR`` set, pass the first (cold) report to the
second run, and it asserts every ``full_study_*`` workload warm-started
from the persistent store (>= 5x faster after leg, disk hits recorded,
bit-identical output digest).

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--out BENCH_perf.json]
                                                 [--check-baseline]
                                                 [--check-warm COLD.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable

from repro.apps.btio import BTIOParams, btio_program
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.apps.roms import ROMSParams, roms_program
from repro.clusters import (
    configuration_a,
    configuration_b,
    configuration_c,
    finisterrae,
)
from repro import store
from repro.core import cache as simcache
from repro.core.model import IOModel
from repro.core.offsetfn import OffsetFunction
from repro.core.phases import Phase, PhaseOp
from repro.core.pipeline import full_study
from repro.core.replayer import replay_phase
from repro.tracer.columns import TraceColumns
from repro.tracer.hooks import TraceBundle, trace_run
from repro.tracer.metadata import AppMetadata, FileMetadataSummary
from repro.tracer.tracefile import HEADER, read_trace_file

MB = 1024 * 1024

REGRESSION_TOLERANCE = 1.30  # fail CI if after_s grows past 130 % of baseline
WARM_SPEEDUP_FLOOR = 5.0  # --check-warm: warm full_study_* vs cold after_s


# -- legacy-mode shims --------------------------------------------------------

@contextmanager
def full_iozone_grids():
    """Disable the IOzone steady-state closure (pre-PR behaviour)."""
    import repro.apps.iozone as iozone_mod
    import repro.core.estimate as estimate_mod

    orig = iozone_mod.run_iozone

    def slow(ion, params):
        return orig(ion, dataclasses.replace(params, steady_state_ops=0))

    iozone_mod.run_iozone = slow
    estimate_mod.run_iozone = slow
    try:
        yield
    finally:
        iozone_mod.run_iozone = orig
        estimate_mod.run_iozone = orig


@contextmanager
def legacy_core():
    """The pre-optimization configuration: no caches, no closure."""
    simcache.disable(clear=True)
    try:
        with full_iozone_grids():
            yield
    finally:
        simcache.enable()


# -- simulation workloads -----------------------------------------------------

def study_madbench2() -> dict:
    """Tables VIII-X: MADbench2 usage on Aohyper configurations A and B."""
    return full_study(
        madbench2_program, 16, MADbench2Params(),
        cluster_factories={"configuration-A": configuration_a,
                           "configuration-B": configuration_b},
        measure_configs=("configuration-A", "configuration-B"),
        app_name="madbench2")


def study_btio() -> dict:
    """Tables XI-XII: BT-IO class D selection between configuration C
    and Finisterrae (estimation only -- the methodology's whole point
    is that no measurement is needed to choose)."""
    return full_study(
        btio_program, 16, BTIOParams(cls="D", comm_events_per_step=24),
        cluster_factories={"configuration-C": configuration_c,
                           "finisterrae": finisterrae},
        app_name="btio-D")


def steady_cluster():
    """A drift-free NFS cluster: no page cache, so the per-repetition
    cost settles immediately and the extrapolation fast path engages."""
    from repro.iosim.device import Disk, DiskSpec
    from repro.iosim.raid import RAID5
    from repro.iosim.localfs import EXT4, LocalFS
    from repro.iosim.network import GIGABIT_ETHERNET
    from repro.iosim.nodes import ComputeNode, IONode
    from repro.iosim.globalfs import NFS
    from repro.iosim.cluster import Cluster

    disks = [Disk(f"d{i}", DiskSpec()) for i in range(5)]
    fs = LocalFS("fs", RAID5("vol", disks), EXT4, cache_mb=0.0)
    nodes = [ComputeNode.make(f"cn{i}") for i in range(4)]
    return Cluster("bench-nfs", nodes, NFS(IONode.make("ion0", fs)),
                   GIGABIT_ETHERNET)


def high_rep_phase(rep: int = 2048) -> Phase:
    offs = OffsetFunction(slope=Fraction(64 * MB), intercept=Fraction(0))
    op = PhaseOp(op="write_at", kind="write", request_size=MB, disp=0,
                 offset_fn=offs, abs_offset_fn=offs)
    return Phase(phase_id=1, file_group="bench", rep=rep, ops=(op,),
                 ranks=tuple(range(4)), tick=1.0, first_time=0.0,
                 duration=1.0)


def replay_full() -> float:
    phase = high_rep_phase()
    return replay_phase(phase, steady_cluster()).bw_mb_s


def replay_extrapolated() -> float:
    phase = high_rep_phase()
    return replay_phase(phase, steady_cluster(), extrapolate_reps=8).bw_mb_s


# -- characterization workloads -----------------------------------------------
#
# A large synthetic trace in the shape the paper's apps produce: every
# rank runs the same phase sequence (tandem repetitions, unit length 1
# or 2, tick gaps between phases, rank-linear initial offsets over two
# files), so cross-rank phase grouping and the f(initOffset) fits all
# engage.  Generated once into a temp directory as (a) per-rank Fig. 2
# text files, (b) the packed '.trc' binary, (c) '.npz' when numpy is
# available -- everything derived from the *text* rows, so both legs
# see byte-identical inputs.

SYNTH_RANKS = 64
SYNTH_PHASES = 24
SYNTH_REP = 140

_datasets: dict = {}


def _synth_metadata() -> AppMetadata:
    files = [
        FileMetadataSummary(
            filename=name, file_id=fid, pointer_kinds=("explicit",),
            collective=True, noncollective=False, access_mode="sequential",
            access_type="shared", etype_size=1, size_bytes=0,
            openers=SYNTH_RANKS)
        for fid, name in ((0, "data.dat"), (1, "checkpoint.dat"))
    ]
    return AppMetadata(files=files)


def _synth_rank_rows(rank: int, nphases: int = SYNTH_PHASES) -> list[str]:
    """One rank's trace rows: ``nphases`` tick-separated phases."""
    rows = []
    tick = 0
    t = rank * 0.001
    for ph in range(nphases):
        unit = 2 if ph % 4 == 0 else 1
        fid = ph % 2
        rs = 65536 if fid == 0 else 16384
        disp = rs * unit
        base = rank * SYNTH_REP * disp + ph * 7 * MB
        tick += 50  # communication gap: new burst, new phase
        for k in range(SYNTH_REP):
            for j in range(unit):
                op = "MPI_File_write_at_all" if j == 0 else "MPI_File_read_at"
                off = base + k * disp + j * rs
                tick += 1
                t += 1e-4
                rows.append(f"{rank} {fid} {op} {off} {tick} {rs} "
                            f"{t:.6f} {1e-4:.6f} {off}")
    return rows


def characterization_dataset() -> dict:
    """Generate (once) the synthetic trace in all three formats."""
    if "synth" in _datasets:
        return _datasets["synth"]
    directory = Path(tempfile.mkdtemp(prefix="bench_char_"))
    for rank in range(SYNTH_RANKS):
        rows = _synth_rank_rows(rank)
        (directory / f"trace.{rank}").write_text(
            HEADER + "\n" + "\n".join(rows) + "\n")
    # canonical columns come from re-reading the text, so the binary
    # legs consume exactly what the text legs parse
    parts = [
        TraceColumns.from_records(read_trace_file(directory / f"trace.{rank}"))
        for rank in range(SYNTH_RANKS)
    ]
    cols = TraceColumns.concat(parts)
    cols.save(directory / "columns.npz")
    ds = {"dir": directory, "nranks": SYNTH_RANKS, "nevents": len(cols),
          "metadata": _synth_metadata()}
    _datasets["synth"] = ds
    return ds


def characterize_synth_records() -> IOModel:
    """Before leg: text parse into records + reference extraction."""
    ds = characterization_dataset()
    records = []
    for rank in range(ds["nranks"]):
        records.extend(read_trace_file(ds["dir"] / f"trace.{rank}"))
    bundle = TraceBundle(nprocs=ds["nranks"], records=records,
                         metadata=ds["metadata"])
    return IOModel.from_trace(bundle, app_name="synth_large",
                              method="records")


def characterize_synth_columnar() -> IOModel:
    """After leg: binary column load + vectorized extraction."""
    ds = characterization_dataset()
    cols = TraceColumns.load(ds["dir"] / "columns.npz")
    return IOModel.from_columns(cols, ds["metadata"], ds["nranks"],
                                app_name="synth_large")


# -- streaming characterization (1M events) -----------------------------------
#
# The same synthetic phase shape scaled to ~1M events by raising the
# *phase count* (burst sizes stay constant -- the quantity the folder
# must buffer).  Before: the per-record reference pipeline materializes
# every TraceRecord.  After: the trace streams chunk-wise through
# ``IOModel.from_stream`` and never exists in memory at once.

STREAM_EVENTS_PER_PHASE = 175  # avg over the unit-1/unit-2 mix
STREAM_PHASES_1M = 90          # 64 ranks x 90 phases x 175 = 1,008,000


def _stream_events(nphases: int) -> int:
    return SYNTH_RANKS * nphases * STREAM_EVENTS_PER_PHASE


def stream_dataset(nphases: int = STREAM_PHASES_1M) -> dict:
    """Generate (once per size) the large trace as a text bundle."""
    key = f"stream{nphases}"
    if key in _datasets:
        return _datasets[key]
    directory = Path(tempfile.mkdtemp(prefix="bench_stream_"))
    for rank in range(SYNTH_RANKS):
        rows = _synth_rank_rows(rank, nphases)
        (directory / f"trace.{rank}").write_text(
            HEADER + "\n" + "\n".join(rows) + "\n")
    metadata = _synth_metadata()
    (directory / "metadata.json").write_text(json.dumps(
        {"nprocs": SYNTH_RANKS, "metadata": metadata.to_dict()}))
    ds = {"dir": directory, "metadata": metadata,
          "nevents": _stream_events(nphases)}
    _datasets[key] = ds
    return ds


def characterize_stream_records() -> IOModel:
    """Before leg: materialize all ~1M records, reference extraction."""
    ds = stream_dataset()
    records = []
    for rank in range(SYNTH_RANKS):
        records.extend(read_trace_file(ds["dir"] / f"trace.{rank}"))
    bundle = TraceBundle(nprocs=SYNTH_RANKS, records=records,
                         metadata=ds["metadata"])
    return IOModel.from_trace(bundle, app_name="synth_stream",
                              method="records")


def characterize_stream_streaming() -> IOModel:
    """After leg: chunk-wise text parse + incremental LAP folding."""
    from repro.tracer.hooks import stream_bundle

    ds = stream_dataset()
    nprocs, metadata, chunks = stream_bundle(ds["dir"])
    return IOModel.from_stream(chunks, metadata, nprocs,
                               app_name="synth_stream")


def ingest_1m_classic() -> TraceColumns:
    """Before leg: line-wise reference parse of every rank file."""
    from repro.tracer.columns import _read_trace_columns_lines

    ds = stream_dataset()
    parts = [_read_trace_columns_lines(ds["dir"] / f"trace.{rank}")
             for rank in range(SYNTH_RANKS)]
    return TraceColumns.concat(parts)


def ingest_1m_cached() -> TraceColumns:
    """After leg: the ingest engine over the same files.

    Under ``fresh_store`` + ``repeat=2`` the first run parses through
    the bulk kernel and populates the parse cache; the second loads the
    packed ``.trc`` payloads straight from the store, and best-of
    records that warm path.
    """
    from repro.tracer.ingest import ingest_columns

    ds = stream_dataset()
    parts = [ingest_columns(ds["dir"] / f"trace.{rank}")
             for rank in range(SYNTH_RANKS)]
    return TraceColumns.concat(parts)


def summarize_columns(cols: TraceColumns) -> dict:
    return {"nrows": len(cols), "digest": cols.content_digest()}


def stream_rss_probe(nevents: int) -> int:
    """Subprocess body: stream ``nevents`` and report peak RSS (KB).

    Run in a fresh process so ``ru_maxrss`` reflects only this
    workload; ``--check-stream-rss`` compares two sizes to assert the
    peak is (near-)independent of the event count.
    """
    import resource

    nphases = max(1, round(nevents / (SYNTH_RANKS *
                                      STREAM_EVENTS_PER_PHASE)))
    ds = stream_dataset(nphases)
    from repro.tracer.hooks import stream_bundle

    nprocs, metadata, chunks = stream_bundle(ds["dir"])
    model = IOModel.from_stream(chunks, metadata, nprocs,
                                app_name="synth_stream")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rss_kb": rss_kb, "nevents": ds["nevents"],
                      "nphases": model.nphases}))
    return 0


# Streaming memory is O(phases + open bursts), not O(events): 860K
# extra events may add only the model-sized term (LAP entries plus
# allocator arena noise, ~25 MB observed) -- materializing them as
# records costs ~200 MB, as columns ~70 MB.  The slack bound asserts
# the streaming path never slid back to either.
STREAM_RSS_SLACK_KB = 40_000


def check_stream_rss() -> int:
    """Launch two RSS probes; fail if peak RSS scales with events."""
    import subprocess

    sizes = (150_000, _stream_events(STREAM_PHASES_1M))
    results = []
    for n in sizes:
        proc = subprocess.run(
            [sys.executable, __file__, "--stream-rss-probe", str(n)],
            capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    small, large = results
    delta = large["rss_kb"] - small["rss_kb"]
    print(f"stream RSS: {small['nevents']} events -> {small['rss_kb']} KB, "
          f"{large['nevents']} events -> {large['rss_kb']} KB "
          f"(delta {delta} KB, allowed {STREAM_RSS_SLACK_KB} KB)")
    if delta > STREAM_RSS_SLACK_KB:
        print(f"streaming memory regression: "
              f"{large['nevents'] - small['nevents']} extra events cost "
              f"{delta} KB of peak RSS (> {STREAM_RSS_SLACK_KB} KB) -- "
              "the folder is accumulating per-event state",
              file=sys.stderr)
        return 4
    return 0


def roms_dataset() -> dict:
    """Trace a high-np ROMS run once (untimed) and store it both ways.

    The binary layout is re-derived from the *text* files so both legs
    parse float-identical inputs (text carries 6 decimal places)."""
    if "roms" in _datasets:
        return _datasets["roms"]
    bundle = trace_run(roms_program, 32, None,
                       ROMSParams(nsteps=600, history_every=2))
    text_dir = Path(tempfile.mkdtemp(prefix="bench_roms_text_"))
    bin_dir = Path(tempfile.mkdtemp(prefix="bench_roms_bin_"))
    bundle.save(text_dir)
    canon = TraceBundle.load(text_dir)
    canon.save(bin_dir, binary=True)
    ds = {"text_dir": text_dir, "bin_dir": bin_dir,
          "metadata": canon.metadata, "nprocs": canon.nprocs}
    _datasets["roms"] = ds
    return ds


def characterize_roms_records() -> IOModel:
    ds = roms_dataset()
    records = []
    for rank in range(ds["nprocs"]):
        records.extend(read_trace_file(ds["text_dir"] / f"trace.{rank}"))
    bundle = TraceBundle(nprocs=ds["nprocs"], records=records,
                         metadata=ds["metadata"])
    return IOModel.from_trace(bundle, app_name="roms", method="records")


def characterize_roms_columnar() -> IOModel:
    ds = roms_dataset()
    bundle = TraceBundle.load(ds["bin_dir"])
    return IOModel.from_columns(bundle.columns, ds["metadata"],
                                ds["nprocs"], app_name="roms")


# -- distributed sweep (cluster executor) -------------------------------------
#
# The cluster backend's measurable win on a single-core CI box is
# dispatch amortization: persistent socket workers pay interpreter
# start + repro import + handshake once per *worker*, while the naive
# way to distribute (a fresh runner process per job, the ssh-out
# pattern) pays it once per *job*.  Before: spawn-per-job dispatch of
# the same replay jobs.  After: one persistent 4-worker cluster with
# pipelined dispatch.  Both legs run identical compute, so the ratio
# isolates the orchestration overhead -- the part of cluster mode that
# wins on any machine.  (On a multi-core or multi-node host the
# persistent cluster additionally overlaps the compute itself; a
# single effective core cannot show that, and an in-process serial
# sweep of CPU-bound jobs will beat both legs here.  The distinct
# request sizes per phase keep the planner's dedup from collapsing the
# jobs.)

SWEEP_CLUSTER_PHASES = 8
SWEEP_CLUSTER_REP = 240


def sweep_cluster_jobs() -> dict:
    """16 unique replay jobs: 8 distinct phases x 2 configurations."""
    from repro.core.offsetfn import OffsetFunction as OF

    jobs: dict[str, tuple] = {}
    for i in range(SWEEP_CLUSTER_PHASES):
        rs = MB + i * 4096  # distinct sizes: no planner/job dedup
        offs = OF(slope=Fraction(rs), intercept=Fraction(0))
        op = PhaseOp(op="write_at", kind="write", request_size=rs, disp=0,
                     offset_fn=offs, abs_offset_fn=offs)
        ph = Phase(phase_id=i, file_group=f"f{i}", rep=SWEEP_CLUSTER_REP,
                   ops=(op,), ranks=tuple(range(4)), tick=1.0,
                   first_time=0.0, duration=1.0)
        jobs[f"A-{i:02d}"] = (ph, configuration_a)
        jobs[f"B-{i:02d}"] = (ph, configuration_b)
    return jobs


def sweep_spawn_per_job() -> dict:
    """Before leg: a fresh single-worker cluster per job."""
    from repro.core.executors import ClusterExecutor
    from repro.core.planner import _run_replay_job

    results = {}
    for name, args in sweep_cluster_jobs().items():
        ex = ClusterExecutor(spawn=1)
        for n, _failure, result in ex.run(_run_replay_job, {name: args}):
            results[n] = result
    return results


def sweep_cluster_persistent() -> dict:
    """After leg: one persistent 4-worker cluster, pipelined dispatch."""
    from repro.core.executors import ClusterExecutor
    from repro.core.planner import _run_replay_job
    from repro.core.sweep import sweep_map

    return sweep_map(_run_replay_job, sweep_cluster_jobs(),
                     executor=ClusterExecutor(spawn=4))


def summarize_sweep(results: dict) -> dict:
    """The replayed bandwidths, compared bit-for-bit across legs."""
    return {name: est.bw_ch_mb_s for name, est in sorted(results.items())}


# -- configuration-lattice selection ------------------------------------------
#
# select_configuration over the full 4096-point ConfigSpace (RAID level
# x members x stripe x network x IONs x disk tier).  Before: the replay
# loop -- one IOR simulation per unique (phase, config) pair.  After:
# the analytic lattice kernels evaluate eqs. (1)-(4) for all 4096
# configurations in one vectorized pass.  The analytic times are an
# approximation of the replays, so only the *selection* (the winner,
# which is what the paper's methodology outputs) is compared -- block
# sizes are chosen at the replication steady-state floor so the replay
# leg costs milliseconds per config instead of seconds.

def lattice_phases() -> list[Phase]:
    def mkphase(pid, kind):
        offs = OffsetFunction(slope=Fraction(0), intercept=Fraction(0))
        op = PhaseOp(op=kind, kind=kind, request_size=8 * MB, disp=0,
                     offset_fn=offs, abs_offset_fn=offs)
        return Phase(phase_id=pid, file_group=f"f{pid}", rep=24, ops=(op,),
                     ranks=(0, 1), tick=1.0, first_time=0.0, duration=1.0)

    return [mkphase(0, "write"), mkphase(1, "read")]


def select_4k_replay():
    from repro.core.estimate import select_configuration
    from repro.core.lattice import ConfigSpace

    return select_configuration(lattice_phases(), ConfigSpace().factories())


def select_4k_lattice():
    from repro.core.estimate import select_configuration
    from repro.core.lattice import ConfigSpace

    space = ConfigSpace()
    return select_configuration(lattice_phases(), space.factories(),
                                lattice=space.params())


# -- output canonicalization --------------------------------------------------

def summarize_study(study: dict) -> dict:
    """Flatten a full_study result into comparable scalars."""
    out: dict[str, float | str] = {"best": study["selection"]["best"]}
    for name, total in sorted(study["selection"]["totals"].items()):
        out[f"total_time_ch[{name}]"] = total
    for name, report in sorted(study["estimates"].items()):
        for p in report.phases:
            out[f"bw_ch[{name}][{p.phase_id}]"] = p.bw_ch_mb_s
            out[f"time_ch[{name}][{p.phase_id}]"] = p.time_ch
    for name, ev in sorted(study["evaluations"].items()):
        for row in ev.rows:
            out[f"usage[{name}][{row.phase_id}]"] = row.usage_pct
            out[f"error[{name}][{row.phase_id}]"] = row.error_rel_pct
            out[f"bw_md[{name}][{row.phase_id}]"] = row.bw_md_mb_s
    return out


def summarize_model(model: IOModel) -> dict:
    """Bit-exact digest of an abstract model (string compare, rtol 0)."""
    return {"nphases": model.nphases,
            "model_json": json.dumps(model.to_dict(), sort_keys=True)}


def compare(before: dict, after: dict, rtol: float = 1e-9) -> list[str]:
    """Relative differences beyond ``rtol``; empty means identical."""
    drift = []
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                drift.append(f"{key}: {a!r} != {b!r}")
            continue
        if a is None or b is None:
            drift.append(f"{key}: missing on one side")
            continue
        if abs(a - b) > rtol * max(abs(a), abs(b), 1e-30):
            drift.append(f"{key}: {a!r} vs {b!r}")
    return drift


def timed(fn):
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0
    finally:
        gc.enable()


# -- driver -------------------------------------------------------------------

@dataclasses.dataclass
class Workload:
    """One before/after comparison."""

    name: str
    before: Callable[[], object]
    after: Callable[[], object]
    summarize: Callable[[object], dict]
    rtol: float = 1e-9
    legacy_before: bool = False  # run the before leg in legacy_core()
    min_speedup: float | None = None  # enforced under --check-baseline
    repeat: int = 1  # legs run `repeat` times; best time wins (noise)
    fresh_store: bool = False  # attach a fresh persistent store: with
    # repeat >= 2 the first after leg populates it cold and the next
    # warm-starts from disk, so best-of records the warm path


WORKLOADS = [
    Workload("full_study_madbench2", study_madbench2, study_madbench2,
             summarize_study, legacy_before=True),
    Workload("full_study_btio", study_btio, study_btio, summarize_study,
             legacy_before=True),
    # Extrapolation is an analytic closure: bit-identity is not claimed,
    # agreement to 1e-6 relative is (and is asserted here).
    Workload("replay_high_rep", replay_full, replay_extrapolated,
             lambda bw: {"bw": bw}, rtol=1e-6, legacy_before=True),
    # Characterization: identical models required (rtol 0 on the JSON).
    Workload("characterize_synth_large", characterize_synth_records,
             characterize_synth_columnar, summarize_model, rtol=0.0,
             min_speedup=5.0, repeat=2),
    Workload("characterize_roms_np32", characterize_roms_records,
             characterize_roms_columnar, summarize_model, rtol=0.0,
             min_speedup=5.0, repeat=2, fresh_store=True),
    # Streaming: the 1M-event trace never materializes; identical model.
    # Both legs are dominated by the text parse, but the streaming leg
    # now runs the ingest engine's bulk tokenizer over newline-aligned
    # ~4 MiB blocks (vectorized digit sweeps, one numpy pass per
    # column) and skips the incremental StreamDigest when no store is
    # attached, while the record leg pays per-line object churn.
    # Measured ~5.2x isolated, ~3.1-3.5x in-suite (the warm allocator
    # flatters the record leg); pre-kernel the same in-suite
    # measurement sat near 1.5x.  The floor trips if the bulk kernel
    # stops engaging (e.g. eligibility check regressions force the
    # line-wise fallback).  The memory win -- blocks stream, the trace
    # never materializes -- is enforced by --check-stream-rss.
    Workload("characterize_stream_1m", characterize_stream_records,
             characterize_stream_streaming, summarize_model, rtol=0.0,
             min_speedup=3.0, repeat=2),
    # Parse cache: classic line-wise parse of the 1M-event text bundle
    # vs the ingest engine with a fresh persistent store.  Repeat 1
    # parses through the bulk kernel and materializes each file's
    # packed .trc encoding in the store (content-keyed by the text's
    # sha256); repeat 2 is pure cache load -- re-ingest at bundle-load
    # speed, which is where the >= 10x floor sits.  Identical columns
    # asserted down to the content digest.
    Workload("ingest_1m_warm", ingest_1m_classic, ingest_1m_cached,
             summarize_columns, rtol=0.0, min_speedup=10.0, repeat=2,
             fresh_store=True),
    # Cluster sweep: persistent socket workers vs spawn-per-job
    # dispatch of identical replay jobs (bit-identical bandwidths).
    # The 3-3.7x observed headroom is interpreter/import/handshake
    # amortization, which holds on a single-core runner (multi-core
    # compute overlap comes on top elsewhere); the floor leaves room
    # for a heavily loaded machine, where the persistent-worker leg
    # degrades more than the spawn-per-job one.
    Workload("sweep_cluster", sweep_spawn_per_job, sweep_cluster_persistent,
             summarize_sweep, rtol=0.0, min_speedup=1.5),
    # Lattice: analytic times approximate the replays, so the compared
    # output is the selection itself (winner name), not the times.
    Workload("select_lattice_4k", select_4k_replay, select_4k_lattice,
             lambda choice: {"best": choice.best}, min_speedup=20.0),
]


def run_legs() -> dict:
    report: dict = {"workloads": {}, "drift": {}, "output_drift": {},
                    "output_digest": {}, "cache_stats": {}}

    # dataset generation is setup, not measured work
    characterization_dataset()
    roms_dataset()
    stream_dataset()

    for wl in WORKLOADS:
        prev_store = store.active()
        if wl.fresh_store:
            store.attach(tempfile.mkdtemp(prefix="bench_store_"))
        try:
            t_before = t_after = float("inf")
            after_runs: list[float] = []
            for _ in range(wl.repeat):
                simcache.clear_all()
                if wl.legacy_before:
                    with legacy_core():
                        res_before, t = timed(wl.before)
                else:
                    res_before, t = timed(wl.before)
                t_before = min(t_before, t)
                # clearing between repeats forces warm after legs through
                # the *persistent* store, not the in-memory memo
                simcache.clear_all()
                res_after, t = timed(wl.after)
                after_runs.append(t)
                t_after = min(t_after, t)
        finally:
            if wl.fresh_store:
                if prev_store is not None:
                    store.attach(prev_store.root)
                else:
                    store.detach()
        summary_after = wl.summarize(res_after)
        mismatches = compare(wl.summarize(res_before), summary_after,
                             rtol=wl.rtol)
        entry = {
            "before_s": round(t_before, 4),
            "after_s": round(t_after, 4),
            "speedup": round(t_before / max(t_after, 1e-9), 2),
        }
        if wl.min_speedup is not None:
            entry["min_speedup"] = wl.min_speedup
        report["workloads"][wl.name] = entry
        # drift = per-repeat timing deltas vs the recorded (best) after_s;
        # output mismatches live in output_drift and gate the run
        report["drift"][wl.name] = [round(t - t_after, 4) for t in after_runs]
        report["output_drift"][wl.name] = mismatches
        report["output_digest"][wl.name] = hashlib.sha256(
            json.dumps(summary_after, sort_keys=True).encode("utf-8")
        ).hexdigest()
        # clear_all() zeroes the counters, so these are per-workload
        # (last repeat -- the warm one when the store is populated).
        report["cache_stats"][wl.name] = simcache.stats()
        status = "OK" if not mismatches else f"DRIFT({len(mismatches)})"
        print(f"{wl.name:28s} before={t_before:8.3f}s after={t_after:8.3f}s "
              f"speedup={t_before / max(t_after, 1e-9):6.2f}x  {status}")

    before_total = sum(w["before_s"] for w in report["workloads"].values())
    after_total = sum(w["after_s"] for w in report["workloads"].values())
    report["total"] = {
        "before_s": round(before_total, 4),
        "after_s": round(after_total, 4),
        "speedup": round(before_total / max(after_total, 1e-9), 2),
    }
    report["identical_outputs"] = not any(report["output_drift"].values())
    print(f"{'TOTAL':28s} before={before_total:8.3f}s "
          f"after={after_total:8.3f}s "
          f"speedup={report['total']['speedup']:6.2f}x")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_perf.json",
                    help="where to write the JSON report")
    ap.add_argument("--check-baseline", action="store_true",
                    help="fail on >30%% regression vs BENCH_baseline.json, "
                         "an output_digest differing from it, or a missed "
                         "per-workload minimum speedup")
    ap.add_argument("--check-warm", metavar="COLD_JSON",
                    help="assert this run warm-started full_study_* from "
                         "the persistent store: after_s <= cold/5, disk "
                         "hits recorded, identical output digest (compare "
                         "against the given cold run's report)")
    ap.add_argument("--check-stream-rss", action="store_true",
                    help="assert streaming characterization's peak RSS is "
                         "independent of the event count (two subprocess "
                         "probes; no benchmark legs run)")
    ap.add_argument("--stream-rss-probe", type=int, metavar="N",
                    help=argparse.SUPPRESS)  # subprocess body of the check
    args = ap.parse_args(argv)

    if args.stream_rss_probe:
        return stream_rss_probe(args.stream_rss_probe)
    if args.check_stream_rss:
        return check_stream_rss()

    report = run_legs()
    from repro.ioutil import atomic_write_text
    atomic_write_text(Path(args.out), json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not report["identical_outputs"]:
        for name, drift in report["output_drift"].items():
            for line in drift:
                print(f"DRIFT {name}: {line}", file=sys.stderr)
        return 1

    if args.check_warm:
        cold = json.loads(Path(args.check_warm).read_text())
        failed = False
        for name, entry in report["workloads"].items():
            if not name.startswith("full_study"):
                continue
            cold_after = cold["workloads"][name]["after_s"]
            warm_after = entry["after_s"]
            allowed = cold_after / WARM_SPEEDUP_FLOOR
            disk_hits = sum(st.get("disk_hits", 0) for st in
                            report["cache_stats"].get(name, {}).values())
            digest_ok = (report["output_digest"][name]
                         == cold["output_digest"][name])
            print(f"warm {name}: cold={cold_after:.3f}s "
                  f"warm={warm_after:.3f}s (allowed<={allowed:.3f}s) "
                  f"disk_hits={disk_hits} "
                  f"digest={'same' if digest_ok else 'DIFFERENT'}")
            if warm_after > allowed:
                print(f"warm-cache failure: {name} warm after_s "
                      f"{warm_after:.3f} > cold/{WARM_SPEEDUP_FLOOR:.0f} "
                      f"= {allowed:.3f}", file=sys.stderr)
                failed = True
            if disk_hits <= 0:
                print(f"warm-cache failure: {name} recorded no persistent "
                      "store hits", file=sys.stderr)
                failed = True
            if not digest_ok:
                print(f"warm-cache failure: {name} output digest differs "
                      "from the cold run", file=sys.stderr)
                failed = True
        if failed:
            return 3

    if args.check_baseline:
        failed = False
        for name, entry in report["workloads"].items():
            need = entry.get("min_speedup")
            if need is not None and entry["speedup"] < need:
                print(f"perf regression: {name} speedup "
                      f"{entry['speedup']:.2f}x < required {need:.1f}x",
                      file=sys.stderr)
                failed = True
        baseline_path = Path(__file__).parent / "BENCH_baseline.json"
        baseline = json.loads(baseline_path.read_text())
        # The committed digests are the output contract: an optimization
        # must reproduce every workload's canonical summary bit for bit.
        for name, want in sorted(baseline["output_digest"].items()):
            got_digest = report["output_digest"].get(name)
            if got_digest != want:
                print(f"output regression: {name} output_digest "
                      f"{got_digest} != baseline {want}", file=sys.stderr)
                failed = True
        allowed = baseline["total"]["after_s"] * REGRESSION_TOLERANCE
        got = report["total"]["after_s"]
        print(f"baseline after_s={baseline['total']['after_s']:.3f} "
              f"allowed<={allowed:.3f} got={got:.3f}")
        if got > allowed:
            print("perf regression: after_s exceeds 130% of baseline",
                  file=sys.stderr)
            failed = True
        if failed:
            return 2

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
