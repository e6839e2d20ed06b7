"""MPI-IO layer: op names, pointers, etype units, views, metadata, errors."""

from __future__ import annotations

import pytest

from repro.simmpi import Engine, IdealPlatform, MPIFileError, MPIUsageError
from repro.simmpi.datatypes import Basic, Vector


def run_traced(program, nprocs=2, *args):
    events = []
    engine = Engine(nprocs, platform=IdealPlatform())
    engine.add_io_hook(events.append)
    engine.run(program, *args)
    return events, engine


class TestExplicitOffset:
    def test_write_at_event(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at(100, 50)
            yield from fh.close()

        events, _ = run_traced(program, 1)
        (e,) = events
        assert e.op == "MPI_File_write_at"
        assert e.offset == 100 and e.abs_offset == 100
        assert e.request_size == 50 and e.kind == "write"
        assert not e.collective

    def test_collective_names(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at_all(0, 10)
            yield from fh.read_at_all(0, 10)
            yield from fh.close()

        events, _ = run_traced(program, 2)
        names = {e.op for e in events}
        assert names == {"MPI_File_write_at_all", "MPI_File_read_at_all"}
        assert all(e.collective for e in events)

    def test_etype_units(self):
        """Explicit offsets count etypes; Fig. 2's 265302/10612080 pairing."""
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.set_view(disp=0, etype=Basic(40))
            yield from fh.write_at(265302, 10612080)
            yield from fh.close()

        events, _ = run_traced(program, 1)
        (e,) = events
        assert e.offset == 265302
        assert e.abs_offset == 265302 * 40
        assert e.request_size == 10612080


class TestIndividualPointer:
    def test_sequential_writes_advance_pointer(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.seek(10)
            yield from fh.write(5)
            yield from fh.write(5)
            yield from fh.close()

        events, _ = run_traced(program, 1)
        assert [e.offset for e in events] == [10, 15]
        assert events[0].op == "MPI_File_write"

    def test_seek_whence(self):
        offsets = []

        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.seek(100)
            yield from fh.seek(20, "cur")
            offsets.append(fh.individual_pointer)
            yield from fh.write(10)
            yield from fh.seek(-5, "cur")
            offsets.append(fh.individual_pointer)
            yield from fh.close()

        run_traced(program, 1)
        assert offsets == [120, 125]

    def test_seek_negative_rejected(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.seek(-1)

        with pytest.raises(MPIFileError):
            run_traced(program, 1)

    def test_pointer_in_etype_units(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.set_view(etype=Basic(8))
            yield from fh.write(16)  # 2 etypes
            assert fh.individual_pointer == 2
            yield from fh.close()

        run_traced(program, 1)

    def test_seek_and_view_are_not_tick_events(self):
        ticks = {}

        def program(ctx):
            fh = yield from ctx.file_open("f")  # 1 tick (collective open)
            yield from fh.seek(10)
            yield from fh.set_view()
            yield from fh.write(4)  # 1 tick
            yield from fh.close()
            ticks[ctx.rank] = ctx.tick

        run_traced(program, 1)
        assert ticks[0] == 2


class TestSharedPointer:
    def test_shared_pointer_serializes(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_shared(100)

        events, engine = run_traced(program, 4)
        offsets = sorted(e.offset for e in events)
        assert offsets == [0, 100, 200, 300]
        assert engine.files["f"].shared_pointer == 400

    def test_shared_op_name(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_shared(10)
            yield from fh.read_shared(10)

        events, _ = run_traced(program, 1)
        assert [e.op for e in events] == [
            "MPI_File_write_shared", "MPI_File_read_shared"]


class TestValidation:
    def test_write_on_readonly_rejected(self):
        def program(ctx):
            fh = yield from ctx.file_open("f", mode="r")
            yield from fh.write_at(0, 10)

        with pytest.raises(MPIFileError):
            run_traced(program, 1)

    def test_read_on_writeonly_rejected(self):
        def program(ctx):
            fh = yield from ctx.file_open("f", mode="w")
            yield from fh.read_at(0, 10)

        with pytest.raises(MPIFileError):
            run_traced(program, 1)

    def test_closed_file_rejected(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.close()
            yield from fh.write_at(0, 10)

        with pytest.raises(MPIFileError):
            run_traced(program, 1)

    def test_zero_size_rejected(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at(0, 0)

        with pytest.raises(MPIUsageError):
            run_traced(program, 1)

    def test_partial_etype_rejected(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.set_view(etype=Basic(8))
            yield from fh.write_at(0, 12)  # 1.5 etypes

        with pytest.raises(MPIUsageError):
            run_traced(program, 1)


class TestFilesAndMetadata:
    def test_unique_files_get_rank_suffix(self):
        def program(ctx):
            fh = yield from ctx.file_open("out", unique=True)
            yield from fh.write_at(0, 10)

        events, engine = run_traced(program, 3)
        assert sorted(engine.files) == ["out.0", "out.1", "out.2"]
        assert all(e.unique_file for e in events)

    def test_file_size_grows_to_written_extent(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at(ctx.rank * 100, 100)

        _, engine = run_traced(program, 4)
        assert engine.files["f"].size == 400

    def test_metadata_flags(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at_all(0, 8)
            yield from fh.seek(ctx.rank)
            yield from fh.read(4)

        _, engine = run_traced(program, 2)
        meta = engine.files["f"].meta
        assert meta.used_explicit_offset
        assert meta.used_individual_pointer
        assert meta.used_collective and meta.used_noncollective
        assert meta.access_mode == "sequential"

    def test_strided_view_sets_access_mode(self):
        def program(ctx):
            fh = yield from ctx.file_open("f")
            et = Basic(40)
            yield from fh.set_view(disp=ctx.rank * 40,
                        etype=et, filetype=Vector(4, 1, 2, et))
            yield from fh.write_at(0, 40)

        _, engine = run_traced(program, 2)
        meta = engine.files["f"].meta
        assert meta.access_mode == "strided"
        assert meta.etype_size == 40

    def test_strided_view_maps_collective_runs(self):
        """Each rank's strided block lands at its interleaved position."""
        def program(ctx):
            et = Basic(10)
            fh = yield from ctx.file_open("f")
            yield from fh.set_view(disp=ctx.rank * 10,
                        etype=et, filetype=Vector(3, 1, 2, et))
            yield from fh.write_at_all(1, 10)  # second block of each rank

        events, _ = run_traced(program, 2)
        by_rank = {e.rank: e.abs_offset for e in events}
        assert by_rank == {0: 20, 1: 30}
