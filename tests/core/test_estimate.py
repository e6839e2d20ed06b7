"""Estimators: eqs. 1-7 identities and the selection step."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import (
    PhaseEstimate,
    absolute_error,
    estimate_model,
    measure_phases,
    peak_bandwidth,
    relative_error,
    select_configuration,
    system_usage,
)
from repro.core.model import IOModel
from repro.tracer import trace_run

from tests.conftest import make_nfs_cluster, make_pvfs_cluster

MB = 1024 * 1024


def app(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.write_at_all(ctx.rank * 32 * MB, 32 * MB)
    yield from fh.read_at_all(ctx.rank * 32 * MB, 32 * MB)
    yield from fh.close()


@pytest.fixture(scope="module")
def model() -> IOModel:
    return IOModel.from_trace(trace_run(app, 4), app_name="toy")


class TestEquations:
    def test_eq2_time_is_weight_over_bw(self):
        est = PhaseEstimate(phase_id=1, weight=100 * MB, op_label="W",
                            bw_ch_mb_s=50.0)
        assert est.time_ch == pytest.approx(2.0)

    def test_eq5_system_usage(self):
        assert system_usage(93.0, 400.0) == pytest.approx(23.25)
        with pytest.raises(ValueError):
            system_usage(1.0, 0.0)

    def test_eq6_eq7_errors(self):
        assert absolute_error(68.0, 66.0) == pytest.approx(2.0)
        assert relative_error(68.0, 66.0) == pytest.approx(100 * 2 / 66)
        assert relative_error(50.0, 50.0) == 0.0
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)

    @given(bw_ch=st.floats(1.0, 1e4), bw_md=st.floats(1.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_error_properties(self, bw_ch, bw_md):
        err = relative_error(bw_ch, bw_md)
        assert err >= 0.0
        assert relative_error(bw_md, bw_md) == 0.0
        # Symmetric absolute error.
        assert absolute_error(bw_ch, bw_md) == absolute_error(bw_md, bw_ch)


class TestEstimateModel:
    def test_report_covers_all_phases(self, model):
        report = estimate_model(model.phases, make_nfs_cluster, "nfs")
        assert [p.phase_id for p in report.phases] == \
            [ph.phase_id for ph in model.phases]
        assert all(p.bw_ch_mb_s > 0 for p in report.phases)
        assert report.total_time_ch == pytest.approx(
            sum(p.time_ch for p in report.phases))

    def test_identical_phases_share_measurement(self, model):
        report = estimate_model(model.phases * 1, make_nfs_cluster, "nfs")
        # phase() accessor
        assert report.phase(model.phases[0].phase_id).weight == \
            model.phases[0].weight
        with pytest.raises(KeyError):
            report.phase(999)


class TestMeasure:
    def test_measure_from_target_trace(self):
        cluster = make_nfs_cluster()
        m = IOModel.from_trace(trace_run(app, 4, cluster), app_name="toy")
        report = measure_phases(m.phases, config_name="nfs")
        assert all(p.time_md > 0 for p in report.phases)
        assert all(p.bw_md_mb_s > 0 for p in report.phases)
        assert report.total_time_md == pytest.approx(
            sum(p.time_md for p in report.phases))


class TestPeakBandwidth:
    def test_analytic_matches_cluster_peak(self):
        analytic = peak_bandwidth(make_nfs_cluster, "write", analytic=True)
        assert analytic == pytest.approx(make_nfs_cluster().peak_bw("write"))

    def test_iozone_measures_below_analytic(self):
        measured = peak_bandwidth(make_nfs_cluster, "write")
        analytic = peak_bandwidth(make_nfs_cluster, "write", analytic=True)
        assert 0 < measured <= analytic * 1.05

    def test_parallel_fs_sums_ions(self):
        one_ion = peak_bandwidth(lambda: make_pvfs_cluster(n_ions=1), "write")
        three = peak_bandwidth(lambda: make_pvfs_cluster(n_ions=3), "write")
        assert three == pytest.approx(3 * one_ion, rel=0.05)


class TestSelection:
    def test_faster_configuration_wins(self, model):
        choice = select_configuration(model.phases, {
            "nfs": make_nfs_cluster,
            "pvfs": lambda: make_pvfs_cluster(n_ions=3),
        })
        assert choice.best in ("nfs", "pvfs")
        ranking = choice.ranking()
        assert ranking[0][1] <= ranking[1][1]
        assert choice.best == ranking[0][0]
