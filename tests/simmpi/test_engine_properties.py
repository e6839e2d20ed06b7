"""Property-based engine tests: determinism and invariants under random
SPMD programs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import Engine, IdealPlatform

MB = 1024 * 1024

# An op script is a list of (op, arg) interpreted by every rank; being
# identical across ranks, collectives always match.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("compute"), st.floats(0.0, 0.5)),
        st.tuples(st.just("barrier"), st.none()),
        st.tuples(st.just("allreduce"), st.integers(0, 100)),
        st.tuples(st.just("bcast"), st.integers(0, 100)),
        st.tuples(st.just("write"), st.integers(1, 64)),  # KB
        st.tuples(st.just("read"), st.integers(1, 64)),
    ),
    min_size=1,
    max_size=12,
)


def interpret(script):
    def program(ctx):
        fh = yield from ctx.file_open("f")
        for op, arg in script:
            if op == "compute":
                yield from ctx.compute(arg)
            elif op == "barrier":
                yield from ctx.barrier()
            elif op == "allreduce":
                yield from ctx.allreduce(arg)
            elif op == "bcast":
                yield from ctx.bcast(arg if ctx.rank == 0 else None, root=0)
            elif op == "write":
                yield from fh.write_at_all(ctx.rank * 64 * 1024, arg * 1024)
            elif op == "read":
                yield from fh.read_at(ctx.rank * 64 * 1024, arg * 1024)
        yield from fh.close()

    return program


class TestEngineProperties:
    @given(script=OPS, nprocs=st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_runs_are_deterministic(self, script, nprocs):
        program = interpret(script)
        runs = []
        for _ in range(2):
            events = []
            engine = Engine(nprocs, platform=IdealPlatform())
            engine.add_io_hook(events.append)
            result = engine.run(program)
            runs.append((result.clocks, result.ticks, events))
        assert runs[0] == runs[1]

    @given(script=OPS, nprocs=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_clocks_nonnegative_and_ticks_uniform(self, script, nprocs):
        program = interpret(script)
        result = Engine(nprocs, platform=IdealPlatform()).run(program)
        assert all(c >= 0.0 for c in result.clocks.values())
        # Identical scripts -> identical per-rank MPI event counts.
        assert len(set(result.ticks.values())) == 1

    @given(script=OPS)
    @settings(max_examples=25, deadline=None)
    def test_event_count_matches_script(self, script):
        events = []
        engine = Engine(2, platform=IdealPlatform())
        engine.add_io_hook(events.append)
        engine.run(interpret(script))
        expected_io = sum(1 for op, _ in script if op in ("write", "read"))
        assert len(events) == 2 * expected_io

    @given(script=OPS)
    @settings(max_examples=25, deadline=None)
    def test_virtual_time_monotone_per_rank(self, script):
        events = []
        engine = Engine(2, platform=IdealPlatform())
        engine.add_io_hook(events.append)
        engine.run(interpret(script))
        for rank in (0, 1):
            times = [e.time for e in events if e.rank == rank]
            assert times == sorted(times)
