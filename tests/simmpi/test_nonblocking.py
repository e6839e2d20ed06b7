"""Nonblocking MPI-IO: overlap semantics, wait/test, events."""

from __future__ import annotations

import pytest

from repro.simmpi import Engine, IdealPlatform

MB = 1024 * 1024


def run_traced(program, nprocs=1, platform=None):
    events = []
    engine = Engine(nprocs, platform=platform or IdealPlatform())
    engine.add_io_hook(events.append)
    result = engine.run(program)
    return events, engine, result


class TestOverlap:
    def test_compute_overlaps_io(self):
        """iwrite + compute + wait finishes when the LONGER one does."""
        durations = {}

        def program(ctx):
            fh = yield from ctx.file_open("f")
            # 100 MB at 100 MB/s platform -> ~1 s of I/O.
            h = yield from fh.iwrite_at(0, 100 * MB)
            yield from ctx.compute(0.4)  # overlapped computation
            yield from h.wait()
            durations["overlap"] = ctx.clock
            yield from fh.close()

        run_traced(program)
        # ~1.0 s total, NOT 1.4 s.
        assert durations["overlap"] == pytest.approx(1.0, rel=0.05)

    def test_long_compute_hides_io_entirely(self):
        clock = {}

        def program(ctx):
            fh = yield from ctx.file_open("f")
            h = yield from fh.iwrite_at(0, 10 * MB)  # ~0.1 s
            yield from ctx.compute(2.0)
            yield from h.wait()  # already complete: free
            clock["t"] = ctx.clock
            yield from fh.close()

        run_traced(program)
        assert clock["t"] == pytest.approx(2.0, rel=0.05)

    def test_blocking_equivalent_is_slower(self):
        def nb(ctx):
            fh = yield from ctx.file_open("f")
            h = yield from fh.iwrite_at(0, 100 * MB)
            yield from ctx.compute(0.9)
            yield from h.wait()
            yield from fh.close()

        def blocking(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at(0, 100 * MB)
            yield from ctx.compute(0.9)
            yield from fh.close()

        _, _, r_nb = run_traced(nb)
        _, _, r_b = run_traced(blocking)
        assert r_nb.elapsed < r_b.elapsed


class TestSemantics:
    def test_event_emitted_with_op_name(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from (yield from fh.iwrite_at(5, 1024)).wait()
            yield from (yield from fh.iread_at(5, 1024)).wait()
            yield from fh.close()

        events, engine, _ = run_traced(program)
        assert [e.op for e in events] == \
            ["MPI_File_iwrite_at", "MPI_File_iread_at"]
        assert engine.files["f"].meta.used_nonblocking

    def test_double_wait_is_idempotent(self):
        clocks = []

        def program(ctx):
            fh = yield from ctx.file_open("f")
            h = yield from fh.iwrite_at(0, 10 * MB)
            yield from h.wait()
            clocks.append(ctx.clock)
            yield from h.wait()
            clocks.append(ctx.clock)
            yield from fh.close()

        run_traced(program)
        assert clocks[0] == clocks[1]

    def test_mpi_test_polls_completion(self):
        observed = []

        def program(ctx):
            fh = yield from ctx.file_open("f")
            h = yield from fh.iwrite_at(0, 100 * MB)  # ~1 s
            observed.append(h.test())  # immediately: not complete
            yield from ctx.compute(2.0)
            observed.append(h.test())  # after 2 s: complete
            yield from fh.close()

        run_traced(program)
        assert observed == [False, True]

    def test_wait_is_not_a_tick_event(self):
        ticks = {}

        def program(ctx):
            fh = yield from ctx.file_open("f")  # tick 1
            h = yield from fh.iwrite_at(0, 1024)  # tick 2
            yield from h.wait()  # no tick
            ticks["t"] = ctx.tick
            yield from fh.close()

        run_traced(program)
        assert ticks["t"] == 2

    def test_file_grows_at_issue(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            h = yield from fh.iwrite_at(0, 4096)
            assert fh.file.size == 4096  # growth visible before wait
            yield from h.wait()
            yield from fh.close()

        run_traced(program)

    def test_nonblocking_respects_queueing(self):
        """Two overlapped writes to the same platform serialize correctly
        through the resource model (no double-booking)."""
        from tests.conftest import make_nfs_cluster

        clock = {}

        def program(ctx):
            fh = yield from ctx.file_open("f")
            h1 = yield from fh.iwrite_at(0, 50 * MB)
            h2 = yield from fh.iwrite_at(50 * MB, 50 * MB)
            yield from h1.wait()
            yield from h2.wait()
            clock["t"] = ctx.clock
            yield from fh.close()

        run_traced(program, platform=make_nfs_cluster())
        # 100 MB through a ~1 GbE NFS path: at least ~0.8 s -- the two
        # requests cannot complete in parallel on the same server link.
        assert clock["t"] > 0.8
