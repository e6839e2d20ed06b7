"""Two-phase collective I/O: merging, splitting, end-to-end cost."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosim.collective import merge_runs, split_regions, two_phase_io
from repro.iosim.device import MB
from repro.simmpi.engine import IORequest

from tests.conftest import make_nfs_cluster


class TestMergeRuns:
    def test_disjoint_preserved(self):
        assert merge_runs([[(0, 10)], [(20, 10)]]) == [(0, 10), (20, 10)]

    def test_adjacent_coalesced(self):
        assert merge_runs([[(0, 10)], [(10, 10)]]) == [(0, 20)]

    def test_overlap_coalesced(self):
        assert merge_runs([[(0, 15)], [(10, 10)]]) == [(0, 20)]

    def test_interleaved_strided_ranks_merge_fully(self):
        """The BT-IO case: np interleaved blocks merge into one region."""
        run_lists = [[(r * 10, 10)] for r in range(8)]
        assert merge_runs(run_lists) == [(0, 80)]

    def test_empty(self):
        assert merge_runs([]) == []
        assert merge_runs([[], []]) == []

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 100)),
                    min_size=0, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_merge_invariants(self, runs):
        merged = merge_runs([runs])
        # Sorted, disjoint, same byte set.
        for (o1, l1), (o2, l2) in zip(merged, merged[1:]):
            assert o1 + l1 < o2
        covered = set()
        for o, ln in runs:
            covered.update(range(o, o + ln))
        merged_bytes = set()
        for o, ln in merged:
            merged_bytes.update(range(o, o + ln))
        assert merged_bytes == covered


class TestSplitRegions:
    def test_even_split(self):
        parts = split_regions([(0, 100)], 4)
        assert len(parts) == 4
        assert sum(ln for part in parts for _, ln in part) == 100
        sizes = [sum(ln for _, ln in p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_multiple_regions(self):
        parts = split_regions([(0, 50), (100, 50)], 2)
        total = sum(ln for part in parts for _, ln in part)
        assert total == 100

    def test_empty(self):
        assert split_regions([], 3) == [[], [], []]

    @given(
        regions=st.lists(st.tuples(st.integers(0, 500), st.integers(1, 50)),
                         min_size=1, max_size=6),
        nparts=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation(self, regions, nparts):
        merged = merge_runs([regions])
        parts = split_regions(merged, nparts)
        assert sum(ln for p in parts for _, ln in p) == \
            sum(ln for _, ln in merged)


class TestTwoPhase:
    def _reqs(self, cluster, np_, nbytes):
        return [
            IORequest(rank=r, node=r % len(cluster.compute_nodes), filename="f",
                      file_id=0, kind="write", runs=[(r * nbytes, nbytes)],
                      start=0.0, collective=True)
            for r in range(np_)
        ]

    def test_completion_after_start(self):
        cluster = make_nfs_cluster()
        reqs = self._reqs(cluster, 4, 10 * MB)
        end = two_phase_io(reqs, 5.0, cluster.globalfs, cluster.compute_nodes,
                           cluster.compute_net)
        assert end > 5.0

    def test_empty_requests_noop(self):
        cluster = make_nfs_cluster()
        reqs = [IORequest(rank=0, node=0, filename="f", file_id=0,
                          kind="write", runs=[], start=0.0, collective=True)]
        assert two_phase_io(reqs, 3.0, cluster.globalfs,
                            cluster.compute_nodes, cluster.compute_net) == 3.0

    def test_more_data_takes_longer(self):
        c1, c2 = make_nfs_cluster(), make_nfs_cluster()
        small = two_phase_io(self._reqs(c1, 4, 1 * MB), 0.0, c1.globalfs,
                             c1.compute_nodes, c1.compute_net)
        big = two_phase_io(self._reqs(c2, 4, 50 * MB), 0.0, c2.globalfs,
                           c2.compute_nodes, c2.compute_net)
        assert big > small

    def test_cb_nodes_cap_respected(self):
        cluster = make_nfs_cluster()
        reqs = self._reqs(cluster, 4, MB)
        end = two_phase_io(reqs, 0.0, cluster.globalfs, cluster.compute_nodes,
                           cluster.compute_net, cb_nodes=1)
        assert end > 0.0

    def test_unique_files_not_merged(self):
        """Regression: ranks writing their own files at identical offsets
        must move np x nbytes, not collapse into one merged region."""
        shared_cluster, unique_cluster = make_nfs_cluster(), make_nfs_cluster()
        shared_cluster.attach_monitor()
        unique_cluster.attach_monitor()
        nbytes = 20 * MB
        shared = [
            IORequest(rank=r, node=r, filename="f", file_id=0, kind="write",
                      runs=[(0, nbytes)], start=0.0, collective=True)
            for r in range(4)
        ]
        unique = [
            IORequest(rank=r, node=r, filename=f"f.{r}", file_id=r,
                      kind="write", runs=[(0, nbytes)], start=0.0,
                      collective=True, unique_file=True)
            for r in range(4)
        ]
        end_shared = two_phase_io(shared, 0.0, shared_cluster.globalfs,
                                  shared_cluster.compute_nodes,
                                  shared_cluster.compute_net)
        end_unique = two_phase_io(unique, 0.0, unique_cluster.globalfs,
                                  unique_cluster.compute_nodes,
                                  unique_cluster.compute_net)
        # Shared identical ranges overlap into one region (1x bytes);
        # unique files genuinely move 4x the bytes.
        assert unique_cluster.monitor.total_bytes(kind="write") > \
            2 * shared_cluster.monitor.total_bytes(kind="write")
        assert end_unique > end_shared
