"""Tracer: event capture, bundle save/load, metadata aggregation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.simmpi import Engine, IdealPlatform
from repro.simmpi.fileio import IOEvent
from repro.tracer import TraceBundle, Tracer, trace_run


def simple_app(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.write_at_all(ctx.rank * 1024, 1024)
    yield from fh.seek(ctx.rank * 10)
    yield from fh.read(100)
    yield from fh.close()
    yield from ctx.barrier()


class TestTracer:
    def test_trace_run_captures_all_ops(self):
        bundle = trace_run(simple_app, 4)
        assert bundle.nprocs == 4
        assert len(bundle.records) == 8  # 1 write + 1 read per rank
        assert bundle.nfiles == 1
        assert bundle.total_bytes == 4 * (1024 + 100)

    def test_by_rank_ordering(self):
        bundle = trace_run(simple_app, 2)
        for rank in (0, 1):
            recs = bundle.by_rank(rank)
            assert [r.kind for r in recs] == ["write", "read"]
            assert all(r.rank == rank for r in recs)

    def test_manual_attach(self):
        tracer = Tracer()
        engine = Engine(2, platform=IdealPlatform())
        tracer.attach(engine)
        engine.run(simple_app)
        bundle = tracer.finish(engine)
        assert len(bundle.records) == 4

    def test_metadata_captured(self):
        bundle = trace_run(simple_app, 2)
        (f,) = bundle.metadata.files
        assert f.access_type == "shared"
        assert f.collective and f.noncollective
        assert "explicit" in f.pointer_kinds
        assert "individual" in f.pointer_kinds


class TestBundlePersistence:
    def test_save_and_load(self, tmp_path):
        bundle = trace_run(simple_app, 3)
        bundle.save(tmp_path / "t")
        assert (tmp_path / "t" / "trace.0").exists()
        assert (tmp_path / "t" / "metadata.json").exists()
        back = TraceBundle.load(tmp_path / "t")
        assert back.nprocs == 3
        assert len(back.records) == len(bundle.records)
        assert back.metadata.files[0].filename == \
            bundle.metadata.files[0].filename

    def test_roundtrip_preserves_per_rank_ordering(self, tmp_path):
        bundle = trace_run(simple_app, 4)
        bundle.save(tmp_path / "t")
        back = TraceBundle.load(tmp_path / "t")
        for rank in range(4):
            orig = bundle.by_rank(rank)
            loaded = back.by_rank(rank)
            assert [(r.op, r.tick, r.offset) for r in loaded] == \
                [(r.op, r.tick, r.offset) for r in orig]

    def test_roundtrip_preserves_record_fields(self, tmp_path):
        bundle = trace_run(simple_app, 2)
        bundle.save(tmp_path / "t")
        back = TraceBundle.load(tmp_path / "t")
        # The file format stores times with 6 decimals; everything else
        # must round-trip exactly.
        def canon(r):
            return tuple(round(v, 6) if isinstance(v, float) else v
                         for v in dataclasses.astuple(r))
        assert [canon(r) for r in back.records] == \
            [canon(r) for r in bundle.records]
        assert back.total_bytes == bundle.total_bytes
        assert back.nfiles == bundle.nfiles

    def test_roundtrip_preserves_metadata(self, tmp_path):
        bundle = trace_run(simple_app, 3)
        bundle.save(tmp_path / "t")
        back = TraceBundle.load(tmp_path / "t")
        assert back.nprocs == bundle.nprocs
        assert back.metadata.to_dict() == bundle.metadata.to_dict()

    def test_loaded_bundle_builds_same_model(self, tmp_path):
        from repro.core.model import IOModel

        bundle = trace_run(simple_app, 4)
        bundle.save(tmp_path / "t")
        back = TraceBundle.load(tmp_path / "t")
        m1 = IOModel.from_trace(bundle)
        m2 = IOModel.from_trace(back)
        assert m1.nphases == m2.nphases
        assert [p.weight for p in m1.phases] == [p.weight for p in m2.phases]


class TestFinishOrdering:
    @staticmethod
    def _event(rank, time, tick, offset) -> IOEvent:
        return IOEvent(rank=rank, file_id=1, filename="data",
                       op="MPI_File_write_at", offset=offset,
                       abs_offset=offset, tick=tick, request_size=64,
                       time=time, duration=0.1, kind="write",
                       collective=False, unique_file=False)

    def test_sorted_by_rank_time_tick(self):
        tracer = Tracer()
        engine = Engine(2, platform=IdealPlatform())
        tracer.attach(engine)
        engine.run(simple_app)
        # Interleave extra events out of canonical order.
        tracer.events.append(self._event(0, 0.0, 0, offset=999))
        bundle = tracer.finish(engine)
        keys = [(r.rank, r.time, r.tick) for r in bundle.records]
        assert keys == sorted(keys)

    def test_stable_for_identical_keys(self):
        """Events with equal (rank, time, tick) keep insertion order."""
        tracer = Tracer()
        engine = Engine(1, platform=IdealPlatform())
        tracer.attach(engine)

        def idle(ctx):
            yield from ()

        engine.run(idle)
        for offset in (10, 20, 30):
            tracer.events.append(self._event(0, 1.0, 5, offset=offset))
        bundle = tracer.finish(engine)
        assert [r.offset for r in bundle.records] == [10, 20, 30]
        # finish() is reproducible: a second call yields the same order.
        again = tracer.finish(engine)
        assert [r.offset for r in again.records] == [10, 20, 30]
