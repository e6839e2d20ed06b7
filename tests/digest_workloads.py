"""Inputs and canonical summaries of the committed output-digest workloads.

Each workload runs one production path of the pipeline -- full studies,
phase replay, batch/streamed/cached characterization, a cluster sweep
and a lattice selection -- and reduces its result to a JSON summary
whose sha256 is the pinned digest in ``tests/test_output_digests.py``.
Everything here only *builds inputs* and *canonicalizes outputs*; the
work itself is the program's.

The synthetic trace has the shape the paper's apps produce: every rank
runs the same phase sequence (tandem repetitions of unit length 1 or 2,
tick gaps between phases, rank-linear initial offsets over two files),
so cross-rank phase grouping and the f(initOffset) fits all engage.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from repro.apps.btio import BTIOParams, btio_program
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.clusters import (
    configuration_a,
    configuration_b,
    configuration_c,
    finisterrae,
)
from repro.core.offsetfn import OffsetFunction
from repro.core.phases import Phase, PhaseOp
from repro.core.pipeline import full_study
from repro.tracer.metadata import AppMetadata, FileMetadataSummary
from repro.tracer.tracefile import HEADER

MB = 1024 * 1024


def digest(summary: dict) -> str:
    """sha256 over a summary's canonical (sorted-key) JSON."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode("utf-8")).hexdigest()


# -- full studies -------------------------------------------------------------

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
    and Finisterrae (estimation only)."""
    return full_study(
        btio_program, 16, BTIOParams(cls="D", comm_events_per_step=24),
        cluster_factories={"configuration-C": configuration_c,
                           "finisterrae": finisterrae},
        app_name="btio-D")


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


def summarize_model(model) -> dict:
    """Bit-exact summary of an abstract model."""
    return {"nphases": model.nphases,
            "model_json": json.dumps(model.to_dict(), sort_keys=True)}


def summarize_columns(cols) -> dict:
    return {"nrows": len(cols), "digest": cols.content_digest()}


# -- phase replay -------------------------------------------------------------

def steady_cluster():
    """A drift-free NFS cluster (no page cache)."""
    from repro.iosim.cluster import Cluster
    from repro.iosim.device import Disk, DiskSpec
    from repro.iosim.globalfs import NFS
    from repro.iosim.localfs import EXT4, LocalFS
    from repro.iosim.network import GIGABIT_ETHERNET
    from repro.iosim.nodes import ComputeNode, IONode
    from repro.iosim.raid import RAID5

    disks = [Disk(f"d{i}", DiskSpec()) for i in range(5)]
    fs = LocalFS("fs", RAID5("vol", disks), EXT4, cache_mb=0.0)
    nodes = [ComputeNode.make(f"cn{i}") for i in range(4)]
    return Cluster("bench-nfs", nodes, NFS(IONode.make("ion0", fs)),
                   GIGABIT_ETHERNET)


def high_rep_phase(rep: int = 2048) -> Phase:
    """One 1 MiB write per rank, ``rep`` times, on 4 ranks."""
    offs = OffsetFunction(slope=Fraction(64 * MB), intercept=Fraction(0))
    op = PhaseOp(op="write_at", kind="write", request_size=MB, disp=0,
                 offset_fn=offs, abs_offset_fn=offs)
    return Phase(phase_id=1, file_group="bench", rep=rep, ops=(op,),
                 ranks=tuple(range(4)), tick=1.0, first_time=0.0,
                 duration=1.0)


# -- synthetic Fig. 2 text traces ---------------------------------------------

SYNTH_RANKS = 64
SYNTH_PHASES = 24  # 268,800 events: the batch characterization trace
SYNTH_REP = 140
#: average events per rank and phase over the unit-1/unit-2 mix
EVENTS_PER_PHASE = 175
STREAM_PHASES_1M = 90  # 1,012,480 events: the streamed trace


def synth_events(nphases: int) -> int:
    """Exact event count of an ``nphases`` synthetic trace."""
    units = sum(2 if ph % 4 == 0 else 1 for ph in range(nphases))
    return SYNTH_RANKS * SYNTH_REP * units


def synth_metadata() -> AppMetadata:
    files = [
        FileMetadataSummary(
            filename=name, file_id=fid, pointer_kinds=("explicit",),
            collective=True, noncollective=False, access_mode="sequential",
            access_type="shared", etype_size=1, size_bytes=0,
            openers=SYNTH_RANKS)
        for fid, name in ((0, "data.dat"), (1, "checkpoint.dat"))
    ]
    return AppMetadata(files=files)


def synth_rank_rows(rank: int, nphases: int) -> list[str]:
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


def write_synth_bundles(root: Path, **nphases: int) -> dict[str, Path]:
    """Write the synthetic trace as one text bundle per ``name=nphases``
    under ``root`` (``trace.<rank>`` files plus ``metadata.json``,
    loadable by ``stream_bundle``).

    Each rank's rows are generated once, for the longest trace: a
    shorter trace's rows are a prefix of a longer one's.
    """
    meta = json.dumps({"nprocs": SYNTH_RANKS,
                       "metadata": synth_metadata().to_dict()})
    dirs = {name: root / name for name in nphases}
    for directory in dirs.values():
        directory.mkdir(parents=True)
        (directory / "metadata.json").write_text(meta)
    for rank in range(SYNTH_RANKS):
        rows = synth_rank_rows(rank, max(nphases.values()))
        for name, n in nphases.items():
            nrows = synth_events(n) // SYNTH_RANKS
            (dirs[name] / f"trace.{rank}").write_text(
                HEADER + "\n" + "\n".join(rows[:nrows]) + "\n")
    return dirs


# -- cluster sweep and lattice selection ---------------------------------------

SWEEP_CLUSTER_PHASES = 8
SWEEP_CLUSTER_REP = 240


def sweep_cluster_jobs() -> dict:
    """16 unique replay jobs: 8 distinct phases x 2 configurations."""
    jobs: dict[str, tuple] = {}
    for i in range(SWEEP_CLUSTER_PHASES):
        rs = MB + i * 4096  # distinct sizes: no planner/job dedup
        offs = OffsetFunction(slope=Fraction(rs), intercept=Fraction(0))
        op = PhaseOp(op="write_at", kind="write", request_size=rs, disp=0,
                     offset_fn=offs, abs_offset_fn=offs)
        ph = Phase(phase_id=i, file_group=f"f{i}", rep=SWEEP_CLUSTER_REP,
                   ops=(op,), ranks=tuple(range(4)), tick=1.0,
                   first_time=0.0, duration=1.0)
        jobs[f"A-{i:02d}"] = (ph, configuration_a)
        jobs[f"B-{i:02d}"] = (ph, configuration_b)
    return jobs


def summarize_sweep(results: dict) -> dict:
    return {name: est.bw_ch_mb_s for name, est in sorted(results.items())}


def lattice_phases() -> list[Phase]:
    """A write and a read phase of 24 x 8 MiB on 2 ranks."""
    def mkphase(pid, kind):
        offs = OffsetFunction(slope=Fraction(0), intercept=Fraction(0))
        op = PhaseOp(op=kind, kind=kind, request_size=8 * MB, disp=0,
                     offset_fn=offs, abs_offset_fn=offs)
        return Phase(phase_id=pid, file_group=f"f{pid}", rep=24, ops=(op,),
                     ranks=(0, 1), tick=1.0, first_time=0.0, duration=1.0)

    return [mkphase(0, "write"), mkphase(1, "read")]
