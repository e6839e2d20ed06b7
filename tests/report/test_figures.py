"""Figure-series generators."""

from __future__ import annotations

import pytest

from repro.core.lap import extract_laps
from repro.core.model import IOModel
from repro.iosim.monitor import DeviceMonitor
from repro.report.figures import (
    device_series_ascii,
    device_series_csv,
    figure2_trace_excerpt,
    figure3_lap,
    figure4_phases,
    figure5_global_pattern,
    figure8_device_series,
    save_figure_artifacts,
)
from repro.tracer import trace_run

MB = 1024 * 1024


def app(ctx):
    fh = yield from ctx.file_open("data")
    for k in range(2):
        yield from ctx.allreduce(1)
        yield from ctx.allreduce(1)
        yield from fh.write_at_all(ctx.rank * 2 * MB + k * MB, MB)
    yield from fh.close()


@pytest.fixture(scope="module")
def traced():
    bundle = trace_run(app, 4)
    return bundle, IOModel.from_trace(bundle, app_name="toy")


@pytest.fixture()
def monitor():
    mon = DeviceMonitor()
    mon.record("sda", 0.0, 1.5, 512 * 1000, "write")
    mon.record("sda", 2.0, 2.5, 512 * 400, "read")
    mon.record("sdb", 0.5, 1.0, 512 * 100, "write")
    return mon


class TestTraceFigures:
    def test_figure2_excerpt(self, traced):
        bundle, _ = traced
        text = figure2_trace_excerpt(bundle, nrows=2, ranks=(0, 1))
        assert text.count("IdP IdF") == 2
        assert "MPI_File_write_at_all" in text

    def test_figure3_lap(self, traced):
        bundle, _ = traced
        entries = extract_laps(bundle.records)
        text = figure3_lap(entries, ranks=(0,))
        assert "OffsetInit" in text
        assert "MPI_File_write_at_all" in text

    def test_figure4_phases(self, traced):
        _, model = traced
        text = figure4_phases(model, nphases=2)
        assert "Phase 1" in text and "Phase 2" in text

    def test_figure5_points(self, traced):
        bundle, model = traced
        points = figure5_global_pattern(bundle, model)
        assert len(points) == len(bundle.records)


class TestDeviceFigures:
    def test_series_per_device(self, monitor):
        series = figure8_device_series(monitor)
        assert set(series) == {"sda", "sdb"}
        assert len(series["sda"]) == 3  # horizon 2.5 s -> 3 buckets

    def test_csv_export(self, monitor):
        csv = device_series_csv(monitor)
        lines = csv.strip().splitlines()
        assert lines[0] == "device,time,wsec_per_s,rsec_per_s,busy_pct"
        assert any(line.startswith("sda,") for line in lines)
        assert any(line.startswith("sdb,") for line in lines)

    def test_ascii_sparkline(self, monitor):
        art = device_series_ascii(monitor, "sda")
        assert "sda" in art and "peak" in art

    def test_ascii_no_activity(self):
        assert "no activity" in device_series_ascii(DeviceMonitor(), "x")


class TestArtifacts:
    def test_save_artifacts(self, traced, monitor, tmp_path):
        bundle, model = traced
        written = save_figure_artifacts(tmp_path, "fig5", bundle=bundle,
                                        model=model, monitor=monitor)
        assert len(written) == 3
        for path in written:
            assert path.exists() and path.stat().st_size > 0
