"""Engine semantics: determinism, clocks, ticks, collectives, p2p, errors."""

from __future__ import annotations

import functools

import pytest

from repro.apps.ior import IORParams, ior_program
from repro.simmpi import (
    CollectiveMismatch,
    DeadlockError,
    Engine,
    IdealPlatform,
    MPIUsageError,
    RankFailedError,
)


def run(program, nprocs=4, *args, platform=None):
    return Engine(nprocs, platform=platform or IdealPlatform()).run(program, *args)


class TestBasics:
    def test_requires_positive_nprocs(self):
        with pytest.raises(MPIUsageError):
            Engine(0)

    def test_rank_and_size(self):
        seen = []

        def program(ctx):
            seen.append((ctx.rank, ctx.size))
            yield from ()  # a rank program is a generator, even with no ops

        run(program, 3)
        assert sorted(seen) == [(0, 3), (1, 3), (2, 3)]

    def test_compute_advances_clock_without_tick(self):
        clocks, ticks = {}, {}

        def program(ctx):
            yield from ctx.compute(1.5)
            clocks[ctx.rank] = ctx.clock
            ticks[ctx.rank] = ctx.tick

        run(program, 2)
        assert clocks == {0: 1.5, 1: 1.5}
        assert ticks == {0: 0, 1: 0}

    def test_negative_compute_rejected(self):
        def program(ctx):
            yield from ctx.compute(-1.0)

        with pytest.raises(MPIUsageError):
            run(program, 1)

    def test_elapsed_is_max_clock(self):
        def program(ctx):
            yield from ctx.compute(float(ctx.rank))

        result = run(program, 4)
        assert result.elapsed == pytest.approx(3.0)

    def test_rank_exception_propagates(self):
        def program(ctx):
            if ctx.rank == 2:
                raise ValueError("boom")
            yield from ctx.compute(0.1)

        with pytest.raises(RankFailedError) as exc_info:
            run(program, 4)
        assert exc_info.value.rank == 2
        assert isinstance(exc_info.value.original, ValueError)


class TestDeterminism:
    def test_identical_runs(self):
        def program(ctx):
            for i in range(5):
                yield from ctx.compute(0.01 * (ctx.rank + 1))
                yield from ctx.allreduce(ctx.rank)
                yield from ctx.barrier()

        r1 = run(program, 4)
        r2 = run(program, 4)
        assert r1.clocks == r2.clocks
        assert r1.ticks == r2.ticks

    def test_io_event_streams_identical(self, nfs_cluster):
        from tests.conftest import make_nfs_cluster

        def program(ctx):
            fh = yield from ctx.file_open("f")
            for i in range(3):
                yield from fh.write_at_all(ctx.rank * 4096 + i * 1024, 1024)
            yield from fh.close()

        streams = []
        for _ in range(2):
            events = []
            eng = Engine(4, platform=make_nfs_cluster())
            eng.add_io_hook(events.append)
            eng.run(program)
            streams.append(events)
        assert streams[0] == streams[1]


class TestCollectives:
    def test_barrier_synchronizes_clocks(self):
        clocks = {}

        def program(ctx):
            yield from ctx.compute(float(ctx.rank))  # ranks drift apart
            yield from ctx.barrier()
            clocks[ctx.rank] = ctx.clock

        run(program, 4)
        assert len(set(clocks.values())) == 1
        assert min(clocks.values()) >= 3.0  # barrier waits for slowest

    def test_bcast_delivers_root_value(self):
        got = {}

        def program(ctx):
            value = f"payload-{ctx.rank}" if ctx.rank == 1 else None
            got[ctx.rank] = yield from ctx.bcast(value, root=1)

        run(program, 4)
        assert all(v == "payload-1" for v in got.values())

    def test_allreduce_sum_and_custom_op(self):
        sums, maxes = {}, {}

        def program(ctx):
            sums[ctx.rank] = yield from ctx.allreduce(ctx.rank + 1)
            maxes[ctx.rank] = yield from ctx.allreduce(ctx.rank, op=max)

        run(program, 4)
        assert set(sums.values()) == {10}
        assert set(maxes.values()) == {3}

    def test_gather_only_root_receives(self):
        got = {}

        def program(ctx):
            got[ctx.rank] = yield from ctx.gather(ctx.rank * 10, root=2)

        run(program, 4)
        assert got[2] == [0, 10, 20, 30]
        assert got[0] is got[1] is got[3] is None

    def test_ticks_count_mpi_events(self):
        ticks = {}

        def program(ctx):
            yield from ctx.barrier()
            yield from ctx.allreduce(1)
            yield from ctx.compute(0.1)  # not an MPI event
            yield from ctx.barrier()
            ticks[ctx.rank] = ctx.tick

        run(program, 2)
        assert ticks == {0: 3, 1: 3}

    def test_collective_mismatch_detected(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier()
            else:
                yield from ctx.allreduce(1)

        with pytest.raises(CollectiveMismatch):
            run(program, 2)

    def test_split_creates_disjoint_comms(self):
        comms = {}

        def program(ctx):
            comm = yield from ctx.split(color=ctx.rank % 2)
            comms[ctx.rank] = comm
            yield from ctx.barrier(comm)

        run(program, 4)
        assert comms[0].world_ranks == (0, 2)
        assert comms[1].world_ranks == (1, 3)
        assert comms[0].rank(2) == 1

    def test_subset_collective_does_not_block_others(self):
        """Ranks outside a split comm proceed past the subset's barrier."""
        done = []

        def program(ctx):
            comm = yield from ctx.split(color=0 if ctx.rank < 2 else 1)
            for _ in range(3):
                yield from ctx.barrier(comm)
            done.append(ctx.rank)

        run(program, 4)
        assert sorted(done) == [0, 1, 2, 3]

    def test_deadlock_detected_when_subset_enters_world_barrier(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier()
            # other ranks simply finish

        with pytest.raises(DeadlockError):
            run(program, 2)


class TestPointToPoint:
    def test_send_recv_payload(self):
        got = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=64, payload={"x": 42})
            elif ctx.rank == 1:
                got[1] = yield from ctx.recv(0)

        run(program, 2)
        assert got[1] == {"x": 42}

    def test_rendezvous_synchronizes_clocks(self):
        clocks = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(2.0)
                yield from ctx.send(1, nbytes=8)
            else:
                yield from ctx.recv(0)
            clocks[ctx.rank] = ctx.clock

        run(program, 2)
        assert clocks[1] >= 2.0  # receiver waited for the sender

    def test_self_send_rejected(self):
        def program(ctx):
            yield from ctx.send(ctx.rank, nbytes=8)

        with pytest.raises(MPIUsageError):
            run(program, 2)

    def test_peer_out_of_range(self):
        def program(ctx):
            yield from ctx.recv(99)

        with pytest.raises(MPIUsageError):
            run(program, 2)

    def test_tagged_messages_matched_by_tag(self):
        # Sends are rendezvous (synchronous), so the orders must agree;
        # tags still select which pending message a recv matches.
        got = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=8, tag=7, payload="seven")
                yield from ctx.send(1, nbytes=8, tag=9, payload="nine")
            else:
                got["t7"] = yield from ctx.recv(0, tag=7)
                got["t9"] = yield from ctx.recv(0, tag=9)

        run(program, 2)
        assert got == {"t7": "seven", "t9": "nine"}


class TestProgramForms:
    """Any callable returning a generator is a rank program."""

    PARAMS = IORParams(np=4, block_size=4 * 1024 * 1024,
                       transfer_size=1024 * 1024)

    class Wrapper:
        def __init__(self, params):
            self.params = params

        def __call__(self, ctx):
            return ior_program(ctx, self.params)

    @staticmethod
    def traced(program, *args):
        events = []
        engine = Engine(4, platform=IdealPlatform())
        engine.add_io_hook(events.append)
        result = engine.run(program, *args)
        return events, result.clocks, result.ticks

    @pytest.mark.parametrize("form", ["lambda", "callable_object", "partial"])
    def test_wrapped_generator_program_runs(self, form):
        params = self.PARAMS
        program = {
            "lambda": lambda ctx: ior_program(ctx, params),
            "callable_object": self.Wrapper(params),
            "partial": functools.partial(ior_program, params=params),
        }[form]
        direct = self.traced(ior_program, params)
        assert len(direct[0]) == 32
        assert direct[1][0] == pytest.approx(0.08518608)
        assert set(direct[2].values()) == {13}
        assert self.traced(program) == direct

    def test_plain_function_rejected_before_any_op(self):
        def plain(ctx):
            ctx.barrier()  # builds a generator that is never driven

        engine = Engine(2, platform=IdealPlatform())
        events = []
        engine.add_io_hook(events.append)
        with pytest.raises(MPIUsageError, match="not a generator"):
            engine.run(plain)
        assert events == []
        assert all(st.tick == 0 and st.clock == 0.0
                   for st in engine._states)
