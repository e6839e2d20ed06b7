"""Ablation: cold (paper-literal) vs steady-state phase replication.

Section III-B replays a phase with IOR sized exactly to the phase
(``b = weight``).  When the target's bottleneck is the *media* behind a
write-back cache (not the network), a short cold replay is absorbed by
the cache and reports a bandwidth the application never sees across 50
repetitions of the phase.  Our replication therefore inflates small
blocks to a steady-state minimum (``STEADY_STATE_MIN_BLOCK``).

The paper's calibrated configurations are all network-bound, where the
choice is a wash (the Finisterrae BT-IO estimate moves by ~1 %); this
bench constructs the controlled case -- a fast-network NFS server over
moderate RAID with a large cache -- and shows the cold replay
overestimating bandwidth severalfold while the steady replay tracks the
application.
"""

from __future__ import annotations

from repro.apps.ior import run_ior
from repro.core.estimate import MB
from repro.core.pipeline import characterize_app, measure_on
from repro.core.replication import replication_for_phase
from repro.iosim import (
    EXT4,
    NFS,
    RAID5,
    Cluster,
    ComputeNode,
    Disk,
    DiskSpec,
    IONode,
    LinkSpec,
    LocalFS,
)

from bench_common import once

TEN_GBE = LinkSpec(bw_mb_s=1100.0, latency_s=20e-6, name="10GbE")


def media_bound_cluster() -> Cluster:
    """10 GbE NFS over a ~190 MB/s RAID 5 with a 1 GB write-back cache."""
    disks = [Disk(f"d{i}", DiskSpec(seq_write_bw=50.0, seq_read_bw=55.0))
             for i in range(5)]
    fs = LocalFS("fs", RAID5("r5", disks), EXT4, cache_mb=1024.0)
    server = IONode.make("srv", fs, TEN_GBE, ram_gb=8.0)
    nodes = [ComputeNode.make(f"cn{i}", TEN_GBE) for i in range(8)]
    return Cluster("media-bound", nodes, NFS(server), TEN_GBE)


def checkpoint_app(ctx):
    """50 periodic collective checkpoints of 8 MB per rank."""
    fh = yield from ctx.file_open("ckpt")
    for step in range(50):
        yield from ctx.compute(0.02)
        yield from ctx.allreduce(1.0)
        yield from fh.write_at_all((step * ctx.size + ctx.rank) * 8 * MB,
                                   8 * MB)
    yield from fh.close()
    yield from ctx.barrier()


def estimate_with(phase, min_block: int) -> float:
    repl = replication_for_phase(phase, min_block_bytes=min_block)
    bws = []
    for params in repl.runs:
        result = run_ior(media_bound_cluster(), params)
        (kind,) = params.kinds
        bws.append(result.bw(kind))
    return sum(bws) / len(bws)


def study():
    model, _ = characterize_app(checkpoint_app, 8, app_name="checkpoint")
    write_phase = model.phases[0]
    bw_cold = estimate_with(write_phase, min_block=0)  # paper-literal
    bw_steady = estimate_with(write_phase, min_block=512 * MB)
    measure, _ = measure_on(checkpoint_app, 8,
                            cluster_factory=media_bound_cluster,
                            app_name="checkpoint")
    writes = [m for m in measure.phases if m.op_label == "W"]
    # The application itself is transient: its first phases vanish into
    # the cache, the tail runs at media speed.  A long-running code
    # lives in the tail, so that is what an estimate must predict.
    tail = writes[len(writes) // 2:]
    bw_md = sum(m.bw_md_mb_s for m in tail) / len(tail)
    return bw_cold, bw_steady, bw_md


def test_ablation_cold_vs_steady_replication(benchmark):
    bw_cold, bw_steady, bw_md = once(benchmark, study)

    err_cold = 100 * abs(bw_cold - bw_md) / bw_md
    err_steady = 100 * abs(bw_steady - bw_md) / bw_md
    print("\nAblation: checkpoint write-phase replication, media-bound NFS")
    print(f" app steady tail (25 phases):  {bw_md:8.1f} MB/s")
    print(f" cold replay  (b = rep*rs):    {bw_cold:8.1f} MB/s (err {err_cold:.0f}%)")
    print(f" steady replay (>=512 MB):     {bw_steady:8.1f} MB/s (err {err_steady:.0f}%)")

    # Cold replay (64 MB, absorbed by the 1 GB cache) grossly
    # overestimates; steady replay tracks the sustained application rate.
    assert bw_cold > 2 * bw_md
    assert err_steady < 30.0
    assert err_steady < err_cold / 4
