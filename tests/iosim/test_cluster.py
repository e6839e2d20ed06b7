"""Cluster as engine Platform: placement, service, reset, monitoring."""

from __future__ import annotations

import pytest

from repro import obs
from repro.iosim.device import MB
from repro.simmpi.engine import Engine, IORequest

from tests.conftest import make_nfs_cluster, make_pvfs_cluster


class TestPlacement:
    def test_round_robin(self):
        cluster = make_nfs_cluster(n_compute=4)
        assert [cluster.node_of_rank(r, 8) for r in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]


class TestService:
    def _req(self, kind="write", nbytes=MB, rank=0):
        return IORequest(rank=rank, node=rank, filename="f", file_id=0,
                         kind=kind, runs=[(0, nbytes)], start=0.0)

    def test_service_io_positive_duration(self, nfs_cluster):
        assert nfs_cluster.service_io(self._req()) > 0.0

    def test_collective_same_duration_for_all(self, nfs_cluster):
        reqs = [self._req(rank=r) for r in range(4)]
        durations = nfs_cluster.service_collective_io(reqs, 0.0)
        assert set(durations) == {0, 1, 2, 3}
        assert len(set(durations.values())) == 1

    def test_comm_time_positive(self, nfs_cluster):
        assert nfs_cluster.comm_time(1024, 4, "allreduce", 0.0) > 0.0

    def test_peak_bw_nfs_vs_pvfs(self):
        nfs = make_nfs_cluster()
        pvfs = make_pvfs_cluster(n_ions=3)
        # eq. (4): PVFS2 sums its 3 single-disk nodes; NFS is one RAID 5.
        assert pvfs.peak_bw("write") > 0
        assert nfs.peak_bw("write") > 0

    def test_monitor_attached_to_all_disks(self):
        cluster = make_pvfs_cluster(n_ions=3)
        monitor = cluster.attach_monitor()
        assert cluster.attach_monitor() is monitor is cluster.monitor
        cluster.service_io(self._req(nbytes=10 * MB))
        assert len(monitor.devices()) >= 2  # striped over ions

    def test_reset_clears_queues_and_monitor(self):
        cluster = make_nfs_cluster()
        cluster.attach_monitor()
        cluster.service_io(self._req(nbytes=10 * MB))
        assert cluster.monitor.samples
        cluster.reset()
        assert not cluster.monitor.samples
        assert cluster.globalfs.ions[0].nic.resource.next_free == 0.0

    def test_device_counters_need_no_monitor(self):
        """The ``device_*`` counters count every disk transfer with no
        monitor attached, and once per transfer with one attached."""
        def transfers_counted(cluster):
            _, reg = obs.enable()
            try:
                for r in range(4):
                    cluster.service_io(self._req(nbytes=3 * MB, rank=r))
                    cluster.service_io(self._req(kind="read", rank=r))
            finally:
                obs.disable()
            fam = reg.get("device_transfers_total")
            return sum(child.value for _, child in fam.samples())

        bare = make_pvfs_cluster(n_ions=3)
        counted = transfers_counted(bare)
        assert bare.monitor is None
        disks = [d for ion in bare.globalfs.ions for d in ion.fs.volume.disks]
        assert counted == sum(d.resource.total_requests for d in disks) > 0

        watched = make_pvfs_cluster(n_ions=3)
        monitor = watched.attach_monitor()
        assert transfers_counted(watched) == len(monitor.samples) == counted


class TestEndToEnd:
    def test_engine_run_on_cluster(self):
        cluster = make_nfs_cluster()
        cluster.attach_monitor()

        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at_all(ctx.rank * MB, MB)
            yield from fh.close()
            yield from ctx.barrier()

        result = Engine(4, platform=cluster).run(program)
        assert result.elapsed > 0.0
        assert cluster.monitor.total_bytes(kind="write") > 0

    def test_requires_compute_nodes(self):
        from repro.iosim import NFS, Cluster, GIGABIT_ETHERNET
        cluster = make_nfs_cluster()
        with pytest.raises(ValueError):
            Cluster("empty", [], cluster.globalfs, GIGABIT_ETHERNET)
