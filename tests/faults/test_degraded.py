"""Degraded-mode RAID/JBOD modeling and worst-case selection."""

from __future__ import annotations

import pytest

from repro.faults import DataLossError
from repro.faults.degraded import (
    NOMINAL,
    DegradedScenario,
    degrade,
    estimate_degraded,
    single_disk_scenarios,
    worst_case_selection,
)
from repro.iosim import (
    JBOD,
    MB,
    RAID0,
    RAID1,
    RAID5,
    RAID6,
    RAID10,
    Disk,
    DiskSpec,
)


def disks(n: int, prefix: str = "d") -> list[Disk]:
    return [Disk(f"{prefix}{i}", DiskSpec()) for i in range(n)]


# -- volume validation (satellite) --------------------------------------------

def test_duplicate_disk_instance_rejected():
    d = Disk("dup", DiskSpec())
    with pytest.raises(ValueError, match="same Disk instance"):
        RAID5("vol", [d, d, Disk("other", DiskSpec())])


def test_raid5_needs_three_members():
    with pytest.raises(ValueError, match="at least 3 member disks"):
        RAID5("vol", disks(2))


def test_raid6_needs_four_members():
    with pytest.raises(ValueError, match="at least 4 member disks"):
        RAID6("vol", disks(3))


def test_raid10_needs_even_members():
    with pytest.raises(ValueError, match="even number"):
        RAID10("vol", disks(5))


def test_empty_volume_rejected():
    with pytest.raises(ValueError, match="at least one disk"):
        JBOD("vol", [])


def test_fail_disk_bounds_checked():
    vol = RAID5("vol", disks(3))
    with pytest.raises(IndexError, match="cannot fail member 7"):
        vol.fail_disk(7)


# -- degraded behaviour per level ---------------------------------------------

def test_jbod_loses_files_on_dead_member_only():
    vol = JBOD("vol", disks(3))
    vol.fail_disk(1)
    # locator 0 and 2 live on survivors
    assert vol.transfer(0.0, 0, MB, "read", locator=0) > 0.0
    assert vol.transfer(0.0, 0, MB, "read", locator=2) > 0.0
    with pytest.raises(DataLossError, match="JBOD has no redundancy"):
        vol.transfer(0.0, 0, MB, "read", locator=1)
    # survivors' capacity and peak are still reported
    assert vol.capacity_gb == pytest.approx(
        2 * vol.disks[0].spec.capacity_gb)


def test_raid0_any_death_is_total_loss():
    vol = RAID0("vol", disks(4))
    vol.fail_disk(2)
    with pytest.raises(DataLossError):
        vol.transfer(0.0, 0, MB, "read")
    with pytest.raises(DataLossError):
        vol.peak_bw("read")


def test_raid1_survives_on_remaining_mirror():
    vol = RAID1("vol", disks(2))
    vol.fail_disk(0)
    assert vol.transfer(0.0, 0, MB, "write") > 0.0
    assert vol.peak_bw("read") == vol.disks[1].peak_bw("read")
    vol.fail_disk(1)
    with pytest.raises(DataLossError, match="every mirror failed"):
        vol.transfer(1.0, 0, MB, "write")


def test_raid5_degraded_read_slower_and_peak_reduced():
    healthy = RAID5("vol", disks(5))
    degraded = RAID5("vol", disks(5))
    degraded.fail_disk(0)
    t_h = healthy.transfer(0.0, 0, 64 * MB, "read")
    t_d = degraded.transfer(0.0, 0, 64 * MB, "read")
    # reconstruct-read: 4 survivors deliver 3 disks' worth of bandwidth
    assert t_d > t_h
    per = healthy.disks[0].peak_bw("read")
    assert healthy.peak_bw("read") == pytest.approx(per * 4)
    assert degraded.peak_bw("read") == pytest.approx(per * 3)
    # writes: parity is overlapped either way
    assert degraded.peak_bw("write") == healthy.peak_bw("write")


def test_raid5_two_deaths_is_data_loss():
    vol = RAID5("vol", disks(5))
    vol.fail_disk(0)
    vol.fail_disk(1)
    with pytest.raises(DataLossError, match="RAID5 tolerates 1"):
        vol.transfer(0.0, 0, MB, "read")
    with pytest.raises(DataLossError):
        vol.peak_bw("read")


def test_raid6_tolerates_two():
    vol = RAID6("vol", disks(6))
    vol.fail_disk(0)
    vol.fail_disk(1)
    assert vol.transfer(0.0, 0, MB, "read") > 0.0
    vol.fail_disk(2)
    with pytest.raises(DataLossError):
        vol.transfer(1.0, 0, MB, "read")


def test_raid10_pair_loss():
    vol = RAID10("vol", disks(4))
    vol.fail_disk(0)
    assert vol.transfer(0.0, 0, MB, "read") > 0.0  # mirror 1 covers
    vol.fail_disk(1)
    with pytest.raises(DataLossError, match="both mirrors of pair 0"):
        vol.transfer(1.0, 0, MB, "read")


def test_rebuild_competes_with_foreground_io():
    quiet = RAID5("vol", disks(5))
    quiet.fail_disk(0)
    rebuilding = RAID5("vol", disks(5))
    rebuilding.fail_disk(0)
    rebuilding.start_rebuild(overhead=0.5)
    t_q = quiet.transfer(0.0, 0, 64 * MB, "read")
    t_r = rebuilding.transfer(0.0, 0, 64 * MB, "read")
    assert t_r > t_q  # rebuild traffic inflates member transfers
    assert rebuilding.peak_bw("read") == pytest.approx(
        quiet.peak_bw("read") / 1.5)
    rebuilding.finish_rebuild(restored_member=0)
    assert not rebuilding.rebuilding
    assert not rebuilding.degraded


@pytest.mark.parametrize("make,steps", [
    (lambda: RAID5("vol", disks(5)),
     [lambda v: v.start_rebuild(overhead=0.5),
      lambda v: v.finish_rebuild()]),
    (lambda: RAID5("vol", disks(5)),
     [lambda v: v.fail_disk(2), lambda v: v.start_rebuild(),
      lambda v: v.finish_rebuild(restored_member=2)]),
    (lambda: RAID6("vol", disks(6)),
     [lambda v: v.fail_disk(0), lambda v: v.start_rebuild()]),
    (lambda: RAID1("vol", disks(2)), [lambda v: v.fail_disk(1)]),
    (lambda: RAID10("vol", disks(4)), [lambda v: v.fail_disk(3)]),
    (lambda: JBOD("vol", [Disk("fast", DiskSpec(seq_read_bw=300.0)),
                          Disk("slow")]),
     [lambda v: v.fail_disk(0), lambda v: v.reset(),
      lambda v: v.restore_disk(0)]),
], ids=["raid5-rebuild", "raid5-fail-rebuild-restore", "raid6", "raid1",
        "raid10", "jbod-fail-reset-restore"])
def test_peak_bw_memo_follows_degraded_state(make, steps):
    """peak_bw is memoized per volume.  After every state change, a
    volume queried all along must agree with one built straight into
    that state (and never queried before)."""
    used = make()
    seen = {(used.peak_bw("read"), used.peak_bw("write"))}
    for n in range(1, len(steps) + 1):
        steps[n - 1](used)
        fresh = make()
        for step in steps[:n]:
            step(fresh)
        got = (used.peak_bw("read"), used.peak_bw("write"))
        assert got == (fresh.peak_bw("read"), fresh.peak_bw("write"))
        seen.add(got)
    assert len(seen) > 1  # some step really changed the peak


def test_drain_rate_under_fault_plan_is_bit_identical():
    """A plan's time-varying fail-stop/fail-slow faults change transfers
    but never the (static) peak bandwidth the write-back cache drains
    at; completion times are pinned bit for bit across a rebuild."""
    from repro import faults
    from repro.faults import FAIL_SLOW, FAIL_STOP, FaultPlan, FaultSpec
    from repro.iosim import LocalFS

    plan = FaultPlan([FaultSpec(FAIL_STOP, "d0", start=0.01),
                      FaultSpec(FAIL_SLOW, "d1", start=0.0, end=1.0,
                                slow_factor=2.0)])
    steps = [None, lambda v: v.start_rebuild(), lambda v: v.finish_rebuild()]
    with faults.injected(plan):
        vol = RAID5("r5", disks(4))
        fs = LocalFS("fs", vol, cache_mb=1.0)
        t, ends = 0.0, []
        for i, step in enumerate(steps):
            if step is not None:
                step(vol)
            t = fs.transfer(t, i * 4 * MB, 4 * MB, "write")
            ends.append(t.hex())
    assert ends == ["0x1.b2a56e26ed5b0p-5", "0x1.753a9a34f1d0ep-4",
                    "0x1.3073465a43821p-3"]


def test_degraded_state_survives_reset_and_keys_fingerprint():
    vol = RAID5("vol", disks(5))
    fp_healthy = vol.fingerprint()
    vol.fail_disk(0)
    vol.reset()
    assert vol.degraded  # a dead disk stays dead between experiments
    assert vol.fingerprint() != fp_healthy  # memo caches must not mix them


# -- scenario machinery --------------------------------------------------------

def _disk_bound_cluster():
    """A cluster whose volume, not network, is the bottleneck."""
    from repro.iosim import (
        EXT4,
        NFS,
        Cluster,
        ComputeNode,
        IONode,
        LinkSpec,
        LocalFS,
    )

    fat_link = LinkSpec(bw_mb_s=10_000.0, latency_s=1e-6, name="fat")
    vol = RAID5("vol", [Disk(f"s{i}", DiskSpec()) for i in range(5)])
    fs = LocalFS("fs", vol, EXT4, cache_mb=1.0)
    server = IONode.make("ion0", fs, link_spec=fat_link)
    nodes = [ComputeNode.make(f"cn{i}", link_spec=fat_link) for i in range(2)]
    return Cluster("disk-bound", nodes, NFS(server), fat_link)


def _jbod_cluster():
    from repro.iosim import (
        EXT4,
        GIGABIT_ETHERNET,
        NFS,
        Cluster,
        ComputeNode,
        IONode,
        LocalFS,
    )

    vol = JBOD("vol", [Disk("j0", DiskSpec())])
    fs = LocalFS("fs", vol, EXT4, cache_mb=1.0)
    server = IONode.make("ion0", fs)
    nodes = [ComputeNode.make(f"cn{i}") for i in range(2)]
    return Cluster("jbod", nodes, NFS(server), GIGABIT_ETHERNET)


def _phases():
    from repro.apps.synthetic import SyntheticParams, synthetic_program
    from repro.core.pipeline import characterize_app

    model, _ = characterize_app(synthetic_program, 2, SyntheticParams(),
                                app_name="synthetic")
    return model.phases


def test_degrade_factory_applies_scenario():
    scenario = DegradedScenario.make("one-dead", {0: (0,)}, rebuild=True)
    factory = degrade(_disk_bound_cluster, scenario)
    cluster = factory()
    vol = cluster.globalfs.ions[0].fs.volume
    assert vol.failed == frozenset({0})
    assert vol.rebuilding
    # a fresh build applies the same scenario again
    assert factory().globalfs.ions[0].fs.volume.failed == frozenset({0})


def test_degrade_rejects_bad_ion_index():
    scenario = DegradedScenario.make("bad", {9: (0,)})
    with pytest.raises(IndexError, match="fails I/O node 9"):
        degrade(_disk_bound_cluster, scenario)()


def test_single_disk_scenarios_cover_every_ion():
    scens = single_disk_scenarios(_disk_bound_cluster)
    assert len(scens) == 1
    assert scens[0].failed == ((0, (0,)),)


def test_estimate_degraded_slower_on_disk_bound_cluster():
    phases = _phases()
    nominal = estimate_degraded(phases, _disk_bound_cluster, NOMINAL)
    degraded = estimate_degraded(
        phases, _disk_bound_cluster, DegradedScenario.make("d", {0: (0,)}))
    assert nominal.survives and degraded.survives
    assert degraded.total_time_ch > nominal.total_time_ch


def test_estimate_degraded_reports_data_loss_as_outcome():
    phases = _phases()
    outcome = estimate_degraded(
        phases, _jbod_cluster, DegradedScenario.make("dead", {0: (0,)}))
    assert outcome.lost_data
    assert outcome.total_time_ch == float("inf")
    assert "JBOD" in outcome.detail or "dead member" in outcome.detail


def test_worst_case_selection_prefers_redundancy():
    """Acceptance: ranking by worst-case Time_io flips the choice when
    the nominal winner cannot survive a disk failure."""
    phases = _phases()
    choice = worst_case_selection(
        phases, {"jbod": _jbod_cluster, "raid5": _disk_bound_cluster})
    # The JBOD loses data in its failure scenario -> infinite worst case.
    assert choice.reports["jbod"].worst.total_time_ch == float("inf")
    assert choice.best == "raid5"
    ranking = choice.ranking()
    assert ranking[0][0] == "raid5"
    assert ranking[-1][2] == float("inf")
