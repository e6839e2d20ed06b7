"""Extra collectives (reduce/scatter/allgather/sendrecv) and Subarray."""

from __future__ import annotations

import pytest

from repro.simmpi import Basic, Engine, IdealPlatform, MPIUsageError, Subarray
from repro.simmpi.datatypes import FileView


def run(program, nprocs=4):
    return Engine(nprocs, platform=IdealPlatform()).run(program)


class TestReduce:
    def test_only_root_gets_result(self):
        got = {}

        def program(ctx):
            got[ctx.rank] = yield from ctx.reduce(ctx.rank + 1, root=2)

        run(program)
        assert got[2] == 10
        assert got[0] is got[1] is got[3] is None

    def test_custom_op(self):
        got = {}

        def program(ctx):
            got[ctx.rank] = yield from ctx.reduce(ctx.rank, root=0, op=max)

        run(program)
        assert got[0] == 3


class TestScatter:
    def test_each_rank_gets_its_slot(self):
        got = {}

        def program(ctx):
            values = [f"v{i}" for i in range(ctx.size)] if ctx.rank == 1 else None
            got[ctx.rank] = yield from ctx.scatter(values, root=1)

        run(program)
        assert got == {0: "v0", 1: "v1", 2: "v2", 3: "v3"}

    def test_wrong_length_rejected(self):
        def program(ctx):
            values = [1, 2] if ctx.rank == 0 else None
            yield from ctx.scatter(values, root=0)

        with pytest.raises(MPIUsageError):
            run(program)


class TestAllgather:
    def test_everyone_gets_everything(self):
        got = {}

        def program(ctx):
            got[ctx.rank] = yield from ctx.allgather(ctx.rank * 10)

        run(program)
        assert all(v == [0, 10, 20, 30] for v in got.values())


class TestCommunicatorOrder:
    """A split communicator orders its members by key; every collective
    on it takes and hands out values in that (communicator-rank) order."""

    @staticmethod
    def reversed_world(verb):
        got = {}

        def program(ctx):
            sub = yield from ctx.split(color=0, key=-ctx.rank)
            got[ctx.rank] = (sub.rank(ctx.rank),
                             (yield from verb(ctx, sub)))

        run(program)
        return got

    def test_split_orders_by_key(self):
        got = self.reversed_world(lambda ctx, sub: ctx.barrier(sub))
        assert {r: comm_rank for r, (comm_rank, _) in got.items()} == \
            {0: 3, 1: 2, 2: 1, 3: 0}

    def test_allgather_in_comm_rank_order(self):
        got = self.reversed_world(
            lambda ctx, sub: ctx.allgather(ctx.rank, comm=sub))
        assert all(v == [3, 2, 1, 0] for _, v in got.values())

    def test_gather_in_comm_rank_order(self):
        got = self.reversed_world(
            lambda ctx, sub: ctx.gather(ctx.rank, root=0, comm=sub))
        assert got[0][1] == [3, 2, 1, 0]
        assert got[1][1] is got[2][1] is got[3][1] is None

    def test_scatter_by_comm_rank(self):
        got = self.reversed_world(lambda ctx, sub: ctx.scatter(
            ["a", "b", "c", "d"] if ctx.rank == 0 else None, root=0,
            comm=sub))
        assert {r: v for r, (_, v) in got.items()} == \
            {3: "a", 2: "b", 1: "c", 0: "d"}

    def test_reduce_in_comm_rank_order(self):
        got = self.reversed_world(lambda ctx, sub: ctx.allreduce(
            str(ctx.rank), op="".join, comm=sub))
        assert all(v == "3210" for _, v in got.values())

    def test_default_key_and_ties_follow_the_parent_rank(self):
        got = {}

        def program(ctx):
            parent = yield from ctx.split(color=0, key=-ctx.rank)
            # parent ranks: world 3 -> 0, 2 -> 1, 1 -> 2, 0 -> 3
            by_default = yield from ctx.split(color=0, comm=parent)
            tied = yield from ctx.split(color=0, key=7, comm=parent)
            got[ctx.rank] = (by_default.world_ranks, tied.world_ranks)

        run(program)
        assert all(v == ((3, 2, 1, 0), (3, 2, 1, 0)) for v in got.values())

    def test_world_split_without_key_keeps_world_order(self):
        got = {}

        def program(ctx):
            sub = yield from ctx.split(color=ctx.rank % 2)
            got[ctx.rank] = (yield from ctx.allgather(ctx.rank, comm=sub))

        run(program)
        assert got == {0: [0, 2], 1: [1, 3], 2: [0, 2], 3: [1, 3]}


class TestSendrecv:
    def test_ring_exchange_even(self):
        got = {}

        def program(ctx):
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            got[ctx.rank] = yield from ctx.sendrecv(dest=right, source=left,
                                         payload=f"from{ctx.rank}")

        run(program, 4)
        assert got == {0: "from3", 1: "from0", 2: "from1", 3: "from2"}

    def test_ring_exchange_odd(self):
        got = {}

        def program(ctx):
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            got[ctx.rank] = yield from ctx.sendrecv(dest=right, source=left,
                                         payload=ctx.rank)

        run(program, 5)
        assert got == {r: (r - 1) % 5 for r in range(5)}

    def test_pairwise_swap(self):
        got = {}

        def program(ctx):
            peer = ctx.rank ^ 1
            got[ctx.rank] = yield from ctx.sendrecv(dest=peer, source=peer,
                                         payload=ctx.rank)

        run(program, 4)
        assert got == {0: 1, 1: 0, 2: 3, 3: 2}


class TestSubarray:
    def test_2d_block(self):
        t = Subarray((4, 6), (2, 3), (1, 2), Basic(8))
        assert t.size == 2 * 3 * 8
        assert t.extent == 4 * 6 * 8
        assert t.segments() == [(64, 24), (112, 24)]

    def test_3d_block_row_count(self):
        t = Subarray((4, 4, 8), (2, 2, 8), (0, 0, 0))
        # Innermost dim fully covered -> rows coalesce pairwise.
        segs = t.segments()
        assert sum(ln for _, ln in segs) == t.size
        assert all(ln >= 8 for _, ln in segs)

    def test_full_array_is_one_segment(self):
        t = Subarray((4, 6), (4, 6), (0, 0))
        assert t.segments() == [(0, 24)]
        assert t.is_dense

    def test_out_of_bounds_rejected(self):
        with pytest.raises(MPIUsageError):
            Subarray((4, 4), (2, 2), (3, 0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MPIUsageError):
            Subarray((4, 4), (2,), (0, 0))

    def test_in_file_view(self):
        """A 2-proc column decomposition of a 4x4 array of doubles."""
        t0 = Subarray((4, 4), (4, 2), (0, 0), Basic(8))
        view = FileView(disp=0, etype=Basic(8), filetype=t0)
        runs = view.map_range(0, t0.size)
        # 4 rows of 2 doubles each at global row starts.
        assert runs == [(0, 16), (32, 16), (64, 16), (96, 16)]

    def test_btio_style_decomposition_covers_file(self):
        """4 procs x (2x2 of a 4x4): disjoint cover of the global array."""
        covered = set()
        for p in range(4):
            r0, c0 = (p // 2) * 2, (p % 2) * 2
            t = Subarray((4, 4), (2, 2), (r0, c0))
            for off, ln in t.segments():
                covered.update(range(off, off + ln))
        assert covered == set(range(16))
