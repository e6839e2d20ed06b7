"""Phase-faithful replayer (the paper's proposed multi-op benchmark)."""

from __future__ import annotations

import pytest

from repro.core.model import IOModel
from repro.core.replayer import estimate_phase_replayed, replay_phase
from repro.tracer import trace_run

from tests.conftest import make_nfs_cluster

MB = 1024 * 1024


def mixed_app(ctx):
    """An app with a MADbench-W-style mixed phase."""
    fh = yield from ctx.file_open("data")
    base = ctx.rank * 64 * MB
    for k in range(4):
        yield from fh.seek(base + k * 4 * MB)
        yield from fh.write(4 * MB)
        yield from fh.seek(base + 32 * MB + k * 4 * MB)
        yield from fh.read(4 * MB)
    yield from fh.close()


def collective_app(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.write_at_all(ctx.rank * 8 * MB, 8 * MB)
    yield from fh.close()


class TestReplayPhase:
    def test_mixed_phase_replays_both_kinds(self):
        model = IOModel.from_trace(trace_run(mixed_app, 4))
        phase = model.phases[0]
        assert phase.op_label == "W-R"
        result = replay_phase(phase, make_nfs_cluster())
        assert result.bw_mb_s > 0
        assert set(result.bw_by_kind) == {"write", "read"}

    def test_collective_phase(self):
        model = IOModel.from_trace(trace_run(collective_app, 4))
        result = replay_phase(model.phases[0], make_nfs_cluster(),
                              min_repetitions=4)
        assert result.bw_mb_s > 0
        assert result.elapsed > 0

    def test_min_repetitions_inflate(self):
        model = IOModel.from_trace(trace_run(collective_app, 4))
        short = replay_phase(model.phases[0], make_nfs_cluster(),
                             min_repetitions=1)
        long = replay_phase(model.phases[0], make_nfs_cluster(),
                            min_repetitions=8)
        assert long.elapsed > short.elapsed

    def test_replay_matches_application_closely(self):
        """The replayer's point: mixed phases tracked within a few %."""
        cluster = make_nfs_cluster()
        model = IOModel.from_trace(trace_run(mixed_app, 4, cluster))
        phase = model.phases[0]
        measured_bw = phase.weight / MB / phase.duration
        result = replay_phase(phase, make_nfs_cluster(), min_repetitions=4)
        err = abs(result.bw_mb_s - measured_bw) / measured_bw
        assert err < 0.35

    def test_estimate_phase_replayed(self):
        model = IOModel.from_trace(trace_run(mixed_app, 4))
        t = estimate_phase_replayed(model.phases[0], make_nfs_cluster)
        assert t > 0
