"""Phase -> IOR replication mapping (section III-B)."""

from __future__ import annotations

import pytest

from repro.core.model import IOModel
from repro.core.replication import (
    STEADY_STATE_MIN_BLOCK,
    replicate_model,
    replication_for_phase,
)
from repro.tracer import trace_run

MB = 1024 * 1024


def collective_app(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.write_at_all(ctx.rank * 8 * MB, 8 * MB)
    yield from fh.close()


def unique_app(ctx):
    fh = yield from ctx.file_open("data", unique=True)
    yield from fh.write_at(0, 4 * MB)
    yield from fh.close()


def mixed_app(ctx):
    fh = yield from ctx.file_open("data")
    base = ctx.rank * 64 * MB
    yield from fh.seek(base)
    for k in range(4):
        yield from fh.seek(base + k * MB)
        yield from fh.write(MB)
        yield from fh.seek(base + 32 * MB + k * MB)
        yield from fh.read(MB)
    yield from fh.close()


def phase_of(app, np_=4):
    model = IOModel.from_trace(trace_run(app, np_))
    return model.phases[0]


class TestMapping:
    def test_paper_parameters(self):
        ph = phase_of(collective_app)
        repl = replication_for_phase(ph, min_block_bytes=0)
        (params,) = repl.runs
        assert params.segments == 1  # s = 1
        assert params.transfer_size == 8 * MB  # t = rs
        assert params.block_size == ph.rep * 8 * MB  # b = rep * rs
        assert params.np == ph.np  # NP = np(ph)
        assert params.collective  # -c
        assert not params.file_per_process

    def test_unique_file_sets_F(self):
        ph = phase_of(unique_app)
        repl = replication_for_phase(ph, min_block_bytes=0)
        assert repl.runs[0].file_per_process  # -F
        assert not repl.runs[0].collective

    def test_mixed_phase_gets_one_run_per_kind(self):
        ph = phase_of(mixed_app)
        assert ph.op_label == "W-R"
        repl = replication_for_phase(ph, min_block_bytes=0)
        assert len(repl.runs) == 2
        assert repl.kinds == ("write", "read")
        assert all(len(r.kinds) == 1 for r in repl.runs)

    def test_steady_state_inflation(self):
        ph = phase_of(collective_app)
        repl = replication_for_phase(ph)  # default min block
        (params,) = repl.runs
        assert params.block_size >= STEADY_STATE_MIN_BLOCK
        assert params.block_size % params.transfer_size == 0

    def test_inflation_skipped_for_heavy_phases(self):
        ph = phase_of(collective_app)
        repl = replication_for_phase(ph, min_block_bytes=4 * MB)
        assert repl.runs[0].block_size == ph.rep * 8 * MB

    def test_weight_carried(self):
        ph = phase_of(collective_app)
        repl = replication_for_phase(ph)
        assert repl.weight == ph.weight
        assert repl.phase_id == ph.phase_id

    def test_replicate_model_order(self):
        model = IOModel.from_trace(trace_run(collective_app, 4))
        repls = replicate_model(model.phases)
        assert [r.phase_id for r in repls] == \
            [ph.phase_id for ph in model.phases]

    def test_command_line_rendering(self):
        ph = phase_of(collective_app)
        (params,) = replication_for_phase(ph).runs
        cmd = params.command_line()
        assert cmd.startswith("ior -a MPIIO")
        assert "-c" in cmd and "-s 1" in cmd and "-w" in cmd
