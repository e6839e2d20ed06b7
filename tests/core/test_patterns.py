"""Spatial/temporal pattern exports (figure series)."""

from __future__ import annotations

import pytest

from repro.core.model import IOModel
from repro.core.patterns import (
    ascii_plot,
    global_access_pattern,
    spatial_pattern,
    temporal_pattern,
    to_csv,
)
from repro.tracer import trace_run

MB = 1024 * 1024


def app(ctx):
    fh = yield from ctx.file_open("data")
    for k in range(2):
        yield from ctx.allreduce(1)
        yield from ctx.allreduce(1)
        yield from fh.write_at_all(ctx.rank * 2 * MB + k * MB, MB)
    yield from fh.read_at_all(ctx.rank * 2 * MB, MB)
    yield from fh.close()


@pytest.fixture(scope="module")
def traced():
    bundle = trace_run(app, 4)
    model = IOModel.from_trace(bundle, app_name="toy")
    return bundle, model


class TestGlobalPattern:
    def test_one_point_per_record(self, traced):
        bundle, model = traced
        points = global_access_pattern(bundle.records, model)
        assert len(points) == len(bundle.records)

    def test_points_tagged_with_phases(self, traced):
        bundle, model = traced
        points = global_access_pattern(bundle.records, model)
        tagged = [p for p in points if p.phase_id is not None]
        assert len(tagged) == len(points)
        assert {p.phase_id for p in tagged} == \
            {ph.phase_id for ph in model.phases}

    def test_points_sorted_by_tick(self, traced):
        bundle, model = traced
        points = global_access_pattern(bundle.records, model)
        assert all(a.tick <= b.tick for a, b in zip(points, points[1:]))

    def test_without_model_phase_is_none(self, traced):
        bundle, _ = traced
        points = global_access_pattern(bundle.records)
        assert all(p.phase_id is None for p in points)


class TestTableViews:
    def test_spatial_rows(self, traced):
        _, model = traced
        rows = spatial_pattern(model)
        assert len(rows) == sum(len(ph.ops) for ph in model.phases)
        assert all("init_offset" in r and "request_size" in r for r in rows)

    def test_temporal_rows_ordered(self, traced):
        _, model = traced
        rows = temporal_pattern(model)
        assert [r["phase"] for r in rows] == \
            [ph.phase_id for ph in model.phases]


class TestExports:
    def test_csv_shape(self, traced):
        bundle, model = traced
        points = global_access_pattern(bundle.records, model)
        csv = to_csv(points)
        lines = csv.strip().splitlines()
        assert lines[0] == "tick,rank,offset,request_size,kind,phase"
        assert len(lines) == len(points) + 1

    def test_ascii_plot_renders(self, traced):
        bundle, model = traced
        points = global_access_pattern(bundle.records, model)
        art = ascii_plot(points, width=40, height=10)
        assert "tick" in art
        assert any(c in art for c in "WR*")

    def test_ascii_plot_empty(self):
        assert "no I/O" in ascii_plot([])
