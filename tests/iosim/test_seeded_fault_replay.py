"""Seed-driven fault replay on a paper configuration.

The chaos CI job runs ``tests/iosim`` once per ``REPRO_FAULT_SEED``;
this module is what makes those runs differ.  It derives a
:meth:`FaultPlan.generate` schedule from the seed over configuration
A's disks, NFS server and links (deferred dropouts, at most one member
death on its RAID 5 volume), replays one IOR run under two plans built
from the same seed, and requires identical ``float.hex`` bandwidths and
fault event streams.  A healthy run afterwards must equal a fresh
healthy baseline: a faulted result never reaches the memo.
"""

from __future__ import annotations

import os

from repro import faults
from repro.apps.ior import IORParams, run_ior
from repro.clusters import configuration_a
from repro.core import cache as simcache
from repro.faults import FaultPlan
from repro.iosim import RAID5

SEED = int(os.environ.get("REPRO_FAULT_SEED", "1234"))
MB = 1024 * 1024

#: Independent 1 MB (full-stripe) transfers, 8 MB per rank: about one
#: simulated second, so a 2-s horizon lands faults inside the run.
PARAMS = IORParams(np=4, block_size=8 * MB, transfer_size=MB)


def seeded_plan(cluster) -> FaultPlan:
    ions = cluster.globalfs.ions
    assert all(isinstance(ion.fs.volume, RAID5) for ion in ions)
    return FaultPlan.generate(
        SEED,
        disks=[d.name for ion in ions for d in ion.fs.volume.disks],
        ions=[ion.name for ion in ions],
        links=([ion.nic.name for ion in ions]
               + [cn.nic.name for cn in cluster.compute_nodes]),
        horizon_s=2.0, dropout_s=0.2, dropout_mode="defer",
        max_fail_stop=1)


def faulted_replay():
    cluster = configuration_a()
    plan = seeded_plan(cluster)
    with faults.injected(plan):
        result = run_ior(cluster, PARAMS)
    return ({k: v.hex() for k, v in sorted(result.bw_mb_s.items())},
            plan.event_stream(), plan.faults)


def healthy_bandwidths() -> dict[str, str]:
    result = run_ior(configuration_a(), PARAMS)
    return {k: v.hex() for k, v in sorted(result.bw_mb_s.items())}


def test_same_seed_replays_identically():
    first_bw, first_events, specs = faulted_replay()
    second_bw, second_events, _ = faulted_replay()
    assert sum(s.kind == faults.FAIL_STOP for s in specs) <= 1
    assert first_events, f"seed {SEED} injected nothing into the run"
    assert (first_bw, first_events) == (second_bw, second_events)


def test_healthy_run_after_faults_matches_fresh_baseline():
    faulted_replay()
    faulted_replay()
    after = healthy_bandwidths()
    simcache.clear_all()
    assert after == healthy_bandwidths()
