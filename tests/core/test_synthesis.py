"""Model-driven synthesis: the model -> program -> model round trip."""

from __future__ import annotations

import pytest

from repro.apps.btio import BTIOParams, btio_program
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.core.model import IOModel, models_equivalent
from repro.core.synthesis import SynthesisError, replay_model, synthesize_program
from repro.simmpi import Engine, IdealPlatform, MPIUsageError
from repro.tracer import trace_run

from tests.conftest import make_nfs_cluster

MB = 1024 * 1024


def model_of(program, np_, *args, name="app"):
    return IOModel.from_trace(trace_run(program, np_, None, *args), name)


class TestRoundTrip:
    def test_madbench(self):
        m = model_of(madbench2_program, 4, MADbench2Params(kpix=4))
        replayed, _ = replay_model(m)
        assert models_equivalent(m, replayed)

    def test_btio(self):
        m = model_of(btio_program, 4,
                     BTIOParams(cls="A", comm_events_per_step=2))
        replayed, _ = replay_model(m)
        assert models_equivalent(m, replayed)

    def test_unique_files(self):
        def app(ctx):
            fh = yield from ctx.file_open("out", unique=True)
            for k in range(4):
                yield from fh.write_at(k * MB, MB)
            yield from fh.close()

        m = model_of(app, 3)
        replayed, _ = replay_model(m)
        assert models_equivalent(m, replayed)

    def test_addressing_preserved(self):
        """Individual-pointer routines replay as individual-pointer ops."""
        def app(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.seek(ctx.rank * 4 * MB)
            for _ in range(4):
                yield from fh.write(MB)
            yield from fh.close()

        m = model_of(app, 2)
        replayed, _ = replay_model(m)
        assert replayed.phases[0].ops[0].op == "MPI_File_write"

    def test_replay_total_bytes(self):
        m = model_of(madbench2_program, 4, MADbench2Params(kpix=4))
        replayed, bundle = replay_model(m)
        assert bundle.total_bytes == m.total_weight


class TestSemantics:
    def test_wrong_np_rejected(self):
        m = model_of(madbench2_program, 4, MADbench2Params(kpix=4))
        program = synthesize_program(m)
        with pytest.raises(MPIUsageError):
            Engine(9, platform=IdealPlatform()).run(program)

    def test_table_offsets_rejected(self):
        def irregular(ctx):
            fh = yield from ctx.file_open("f", unique=True)
            yield from fh.write_at([0, 10, 25, 700][ctx.rank], 1024)
            yield from fh.close()

        m = model_of(irregular, 4)
        # Offsets 0/10/25/700 fit no line -> table fallback -> unsynthesizable.
        assert any(not op.abs_offset_fn.is_linear
                   for ph in m.phases for op in ph.ops)
        with pytest.raises(SynthesisError):
            synthesize_program(m)

    def test_replay_on_real_cluster(self):
        """A synthesized replay can be *measured* like the application."""
        m = model_of(madbench2_program, 4, MADbench2Params(kpix=4))
        replayed, _ = replay_model(m, platform=make_nfs_cluster())
        assert replayed.nphases == m.nphases
        assert all(ph.duration > 0 for ph in replayed.phases)

    def test_compute_gap_does_not_change_model(self):
        m = model_of(madbench2_program, 4, MADbench2Params(kpix=4))
        replayed, _ = replay_model(m, compute_between_phases=0.5)
        assert models_equivalent(m, replayed)
