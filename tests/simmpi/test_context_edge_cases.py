"""Context/engine edge cases: comm membership, roots, empty worlds."""

from __future__ import annotations

import pytest

from repro.simmpi import Comm, Engine, IdealPlatform, MPIUsageError


def run(program, nprocs=4):
    return Engine(nprocs, platform=IdealPlatform()).run(program)


class TestCommValidation:
    def test_duplicate_ranks_rejected(self):
        with pytest.raises(MPIUsageError):
            Comm([0, 1, 1])

    def test_rank_translation(self):
        comm = Comm([3, 5, 9])
        assert comm.size == 3
        assert comm.rank(5) == 1
        with pytest.raises(MPIUsageError):
            comm.rank(4)

    def test_membership(self):
        comm = Comm([0, 2])
        assert 2 in comm and 1 not in comm

    def test_collective_on_foreign_comm_rejected(self):
        def program(ctx):
            foreign = Comm([ctx.size + 1, ctx.size + 2])
            yield from ctx.barrier(foreign)

        with pytest.raises(MPIUsageError):
            run(program, 2)


class TestRootValidation:
    def test_bcast_root_outside_comm(self):
        def program(ctx):
            sub = yield from ctx.split(color=0 if ctx.rank < 2 else 1)
            if ctx.rank < 2:
                # Root 3 is not in the {0,1} subcomm.
                yield from ctx.bcast("x", root=3, comm=sub)

        with pytest.raises(MPIUsageError):
            run(program, 4)

    def test_reduce_root_outside_comm(self):
        def program(ctx):
            sub = yield from ctx.split(color=0 if ctx.rank < 2 else 1)
            if ctx.rank < 2:
                yield from ctx.reduce(1, root=2, comm=sub)

        with pytest.raises(MPIUsageError):
            run(program, 4)


class TestSingleRankWorld:
    def test_collectives_trivially_complete(self):
        got = {}

        def program(ctx):
            yield from ctx.barrier()
            got["sum"] = yield from ctx.allreduce(7)
            got["bcast"] = yield from ctx.bcast("solo")
            got["gather"] = yield from ctx.gather(1, root=0)
            got["all"] = yield from ctx.allgather("x")

        run(program, 1)
        assert got == {"sum": 7, "bcast": "solo", "gather": [1], "all": ["x"]}

    def test_io_on_single_rank(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at_all(0, 4096)
            yield from fh.read_at_all(0, 4096)
            yield from fh.close()

        result = run(program, 1)
        assert result.elapsed > 0


class TestRepeatedRuns:
    def test_engine_instance_not_reusable_state_isolated(self):
        """Two engines never share file registries or clocks."""
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_shared(100)
            yield from fh.close()

        e1 = Engine(2, platform=IdealPlatform())
        e1.run(program)
        e2 = Engine(2, platform=IdealPlatform())
        e2.run(program)
        assert e1.files["f"].shared_pointer == 200
        assert e2.files["f"].shared_pointer == 200  # fresh, not 400

    def test_many_ranks(self):
        """A 32-rank world schedules deterministically."""
        def program(ctx):
            yield from ctx.allreduce(ctx.rank)
            fh = yield from ctx.file_open("f")
            yield from fh.write_at_all(ctx.rank * 1024, 1024)
            yield from fh.close()

        r1 = run(program, 32)
        r2 = run(program, 32)
        assert r1.clocks == r2.clocks
