"""hdf5lite and the ROMS-style multi-file workload (paper future work)."""

from __future__ import annotations

import pytest

from repro.apps.roms import HISTORY_FIELDS, ROMSParams, roms_program
from repro.core.model import IOModel
from repro.hdf5lite import H5File
from repro.simmpi import Engine, IdealPlatform, MPIUsageError
from repro.tracer import Tracer, trace_run


def run_traced(program, nprocs=4, *args):
    events = []
    engine = Engine(nprocs, platform=IdealPlatform())
    engine.add_io_hook(events.append)
    engine.run(program, *args)
    return events, engine


class TestH5File:
    def test_superblock_written_once(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            yield from f.close()

        events, _ = run_traced(program, 4)
        supers = [e for e in events if e.offset == 0 and e.request_size == 96]
        assert len(supers) == 1 and supers[0].rank == 0

    def test_dataset_slabs_cover_extent_disjointly(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            ds = yield from f.create_dataset("x", nbytes=8 * 1000,
                                             element_size=8)
            yield from ds.write_slab()
            yield from f.close()

        events, engine = run_traced(program, 4)
        slabs = [(e.abs_offset, e.request_size) for e in events
                 if e.collective]
        slabs.sort()
        assert sum(ln for _, ln in slabs) == 8000
        for (o1, l1), (o2, l2) in zip(slabs, slabs[1:]):
            assert o1 + l1 == o2  # contiguous, disjoint decomposition

    def test_uneven_slab_split_whole_elements(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            ds = yield from f.create_dataset("x", nbytes=8 * 10,
                                             element_size=8)
            assert sum(ds.slab(r, 3)[1] for r in range(3)) == 80
            assert all(ds.slab(r, 3)[1] % 8 == 0 for r in range(3))
            yield from ds.write_slab()
            yield from f.close()

        run_traced(program, 3)

    def test_duplicate_dataset_rejected(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            yield from f.create_dataset("x", 80)
            yield from f.create_dataset("x", 80)
            yield from f.close()

        with pytest.raises(MPIUsageError):
            run_traced(program, 2)

    def test_partial_element_rejected(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            yield from f.create_dataset("x", nbytes=81, element_size=8)
            yield from f.close()

        with pytest.raises(MPIUsageError):
            run_traced(program, 2)

    def test_attributes_are_small_rank0_writes(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            yield from f.attrs.set("time", 1)
            yield from f.attrs.set("time", 2)  # overwrite reuses the slot
            yield from f.close()

        events, _ = run_traced(program, 4)
        attr_writes = [e for e in events if e.request_size == 64]
        assert len(attr_writes) == 2
        assert all(e.rank == 0 for e in attr_writes)
        assert attr_writes[0].offset == attr_writes[1].offset

    def test_read_slab(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5", mode="rw")
            ds = yield from f.create_dataset("x", 8 * 512)
            yield from ds.write_slab()
            yield from ds.read_slab()
            yield from f.close()

        events, _ = run_traced(program, 2)
        assert any(e.kind == "read" for e in events)

    def test_getitem(self):
        def program(ctx):
            f = yield from H5File.open(ctx, "t.h5")
            yield from f.create_dataset("zeta", 80)
            assert f["zeta"].nbytes == 80
            with pytest.raises(KeyError):
                f["nope"]
            yield from f.close()

        run_traced(program, 2)


class TestROMS:
    @pytest.fixture(scope="class")
    def model(self):
        bundle = trace_run(roms_program, 8, None, ROMSParams())
        return IOModel.from_trace(bundle, app_name="roms-upwelling")

    def test_one_file_group_per_output_file(self, model):
        params = ROMSParams()
        expected = [f"his_{i:04d}.nc" for i in
                    range(1, params.n_history_files + 1)] + ["rst.nc"]
        assert model.file_groups == expected

    def test_model_applicable_per_file(self, model):
        """The paper's observation: each file has its own phase model."""
        for group in model.file_groups:
            phases = model.phases_for(group)
            assert phases, group
            # Data phases exist in each file (large collective writes).
            assert any(ph.collective and ph.request_size > 1024
                       for ph in phases), group

    def test_history_files_have_identical_models(self, model):
        his = [model.phases_for(f"his_{i:04d}.nc") for i in (1, 2, 3)]
        shapes = [
            [(ph.op_label, ph.rep, ph.request_size, ph.np) for ph in group]
            for group in his
        ]
        assert shapes[0] == shapes[1] == shapes[2]

    def test_total_volume(self, model):
        params = ROMSParams()
        his_bytes = params.n_history_files * params.history_bytes()
        rst_bytes = 2 * sum(params.field_bytes(3)
                            for _, d in HISTORY_FIELDS if d == 3)
        metadata = model.total_weight - his_bytes - rst_bytes
        # Everything beyond the field data is HDF5 metadata: small but
        # nonzero (superblocks, object headers, attributes).
        assert 0 < metadata < 0.05 * (his_bytes + rst_bytes)

    def test_rank0_metadata_phases_observed(self, model):
        """HDF5 metadata surfaces as rank-0-only small phases."""
        meta_phases = [ph for ph in model.phases
                       if ph.np == 1 and ph.ranks == (0,)]
        assert meta_phases
        assert all(not ph.collective or len(ph.ops) > 1
                   for ph in meta_phases)
