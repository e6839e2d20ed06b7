"""Memoization layer: fingerprints, cache hits, stats and obs counters."""

from __future__ import annotations

import gc

import pytest

from repro import faults, obs, store
from repro.apps.ior import IORParams, run_ior
from repro.apps.iozone import IOzoneParams, run_iozone
from repro.clusters import configuration_a, configuration_b
from repro.core import cache as simcache
from repro.core.estimate import estimate_phase
from repro.core.lattice import ConfigSpace, LatticeParams, _factory_rows
from repro.faults import FAIL_SLOW, FaultPlan, FaultSpec

from tests.conftest import make_nfs_cluster, make_pvfs_cluster
from tests.core.test_planner import make_phase

MB = 1024 * 1024


class TestFingerprints:
    def test_same_structure_same_fingerprint(self):
        assert make_nfs_cluster().fingerprint() == make_nfs_cluster().fingerprint()
        assert make_pvfs_cluster().fingerprint() == make_pvfs_cluster().fingerprint()

    def test_names_do_not_matter(self):
        b = configuration_b()
        fps = {ion.fingerprint() for ion in b.globalfs.ions}
        names = {ion.name for ion in b.globalfs.ions}
        assert len(names) == len(b.globalfs.ions)  # distinct names...
        assert len(fps) == 1  # ...same structural identity

    def test_parameters_do_matter(self):
        assert (make_nfs_cluster(cache_mb=64).fingerprint()
                != make_nfs_cluster(cache_mb=128).fingerprint())
        assert (make_nfs_cluster(n_disks=5).fingerprint()
                != make_nfs_cluster(n_disks=4).fingerprint())
        assert make_nfs_cluster().fingerprint() != make_pvfs_cluster().fingerprint()

    def test_factory_fingerprint_memoized(self):
        fp1 = simcache.factory_fingerprint(configuration_a)
        fp2 = simcache.factory_fingerprint(configuration_a)
        assert fp1 == fp2 == configuration_a().fingerprint()

    def test_unreferenceable_factory_goes_unmemoized(self):
        factory = configuration_a.__call__  # a method-wrapper: no weakref
        before = len(simcache._factory_fps)
        assert (simcache.factory_fingerprint(factory)
                == configuration_a().fingerprint())
        assert len(simcache._factory_fps) == before

    def test_platform_without_fingerprint_opts_out(self):
        class Bare:
            pass

        assert simcache.platform_fingerprint(Bare()) is None


class TestRunIorMemo:
    def test_hit_returns_equal_result(self):
        params = IORParams(np=4, block_size=4 * MB, transfer_size=MB)
        first = run_ior(make_nfs_cluster(), params)
        stats0 = simcache.stats()["ior"]
        second = run_ior(make_nfs_cluster(), params)
        stats1 = simcache.stats()["ior"]
        assert stats1["hits"] == stats0["hits"] + 1
        assert second.bw_mb_s == first.bw_mb_s
        assert second.times == first.times
        # Defensive copy: mutating the hit must not poison the cache.
        second.bw_mb_s["write"] = -1.0
        third = run_ior(make_nfs_cluster(), params)
        assert third.bw_mb_s == first.bw_mb_s

    def test_different_params_miss(self):
        run_ior(make_nfs_cluster(), IORParams(np=4, block_size=4 * MB,
                                              transfer_size=MB))
        before = simcache.stats()["ior"]
        run_ior(make_nfs_cluster(), IORParams(np=4, block_size=4 * MB,
                                              transfer_size=2 * MB))
        after = simcache.stats()["ior"]
        assert after["misses"] == before["misses"] + 1

    def test_disable_bypasses(self):
        params = IORParams(np=4, block_size=4 * MB, transfer_size=MB)
        run_ior(make_nfs_cluster(), params)
        simcache.disable()
        try:
            run_ior(make_nfs_cluster(), params)
            assert simcache.stats()["ior"]["entries"] == 0
        finally:
            simcache.enable()


class TestRunIozoneMemo:
    def test_configuration_b_ions_share_one_characterization(self):
        b = configuration_b()
        params = IOzoneParams(file_size_mb=64)
        results = [run_iozone(ion, params) for ion in b.globalfs.ions]
        st = simcache.stats()["iozone"]
        assert st["misses"] == 1
        assert st["hits"] == len(b.globalfs.ions) - 1
        # The hit keeps the asking node's name but shares the grid.
        assert {r.ion_name for r in results} == {i.name for i in b.globalfs.ions}
        assert results[0].grid == results[1].grid == results[2].grid


class TestObsCounters:
    def test_cache_counters_exported(self):
        params = IORParams(np=4, block_size=4 * MB, transfer_size=MB)
        _, registry = obs.enable()
        try:
            run_ior(make_nfs_cluster(), params)
            run_ior(make_nfs_cluster(), params)
            hits = registry.get("cache_hits_total").labels(cache="ior").value
            misses = registry.get("cache_misses_total").labels(cache="ior").value
            assert hits == 1.0
            assert misses == 1.0
        finally:
            obs.disable()


class TestSteadyStateClosure:
    def test_closure_matches_full_simulation(self):
        ion = configuration_a().globalfs.ions[0]
        fast = run_iozone(ion, IOzoneParams(file_size_mb=256))
        simcache.clear_all()
        ion2 = configuration_a().globalfs.ions[0]
        slow = run_iozone(ion2, IOzoneParams(file_size_mb=256,
                                             steady_state_ops=0))
        for key, bw_slow in slow.grid.items():
            bw_fast = fast.grid[key]
            assert bw_fast == pytest.approx(bw_slow, rel=1e-9), key


class TestFactoryMemosReleaseFactories:
    def test_dropped_factories_leave_no_entry(self):
        space = ConfigSpace(raid_levels=("raid0",), members=(3, 4),
                            stripe_kb=(64,), net_mb_s=(800.0,),
                            ions=(1, 2), disk_mb_s=((90.0, 100.0),))
        fps0, rows0 = len(simcache._factory_fps), len(_factory_rows)
        for _ in range(3):
            factories = space.factories()
            for f in factories.values():
                simcache.factory_fingerprint(f)
            LatticeParams.from_factories(factories)
            assert len(simcache._factory_fps) == fps0 + len(factories)
            assert len(_factory_rows) == rows0 + len(factories)
            del factories, f
            gc.collect()
            assert len(simcache._factory_fps) == fps0
            assert len(_factory_rows) == rows0


#: np 4, 16 MB writes per rank on configuration A, every member disk
#: ten times slower: the faulted bandwidth is an order of magnitude off.
FAULT_PARAMS = IORParams(np=4, block_size=16 * MB, transfer_size=MB,
                         kinds=("write",))


def _all_disks_slow() -> FaultPlan:
    disks = configuration_a().globalfs.ions[0].fs.volume.disks
    return FaultPlan([FaultSpec(FAIL_SLOW, d.name, slow_factor=10.0)
                      for d in disks])


def _write_bw() -> float:
    return run_ior(configuration_a(), FAULT_PARAMS).bw("write")


class TestFaultPlanBypassesMemo:
    """A fingerprint carries no fault state: while a plan is installed
    the memo neither serves nor keeps an entry."""

    def test_faulted_run_leaves_no_entry(self):
        with faults.injected(_all_disks_slow()):
            faulted = _write_bw()
        healthy = _write_bw()
        simcache.clear_all()
        assert healthy == _write_bw()
        assert faulted < healthy / 5

    def test_healthy_entry_does_not_mask_the_plan(self):
        healthy = _write_bw()
        with faults.injected(_all_disks_slow()):
            faulted = _write_bw()
        simcache.clear_all()
        with faults.injected(_all_disks_slow()):
            assert faulted == _write_bw()
        assert faulted < healthy / 5

    def test_nothing_reaches_the_store(self, tmp_path):
        rs = store.attach(tmp_path)
        with faults.injected(_all_disks_slow()):
            _write_bw()
            estimate_phase(make_phase(0), configuration_a)
            assert simcache.stats()["ior"]["entries"] == 0
        assert rs.stats() == {}
        _write_bw()  # healthy again: the write-through resumes
        assert rs.stats()["ior"]["entries"] == 1
