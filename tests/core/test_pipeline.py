"""End-to-end pipeline: characterize -> estimate -> measure -> evaluate."""

from __future__ import annotations

import pytest

from repro.core.pipeline import (
    characterize_app,
    characterize_peaks_for,
    estimate_on,
    evaluate,
    full_study,
    measure_on,
)

from tests.conftest import make_nfs_cluster, make_pvfs_cluster

MB = 1024 * 1024


def app(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.write_at_all(ctx.rank * 24 * MB, 24 * MB)
    yield from fh.read_at_all(ctx.rank * 24 * MB, 24 * MB)
    yield from fh.close()
    yield from ctx.barrier()


class TestStages:
    def test_characterize_is_platform_independent(self):
        m1, _ = characterize_app(app, 4, app_name="toy")
        m2, _ = characterize_app(app, 4, app_name="toy",
                                 platform=make_nfs_cluster())
        assert m1.nphases == m2.nphases
        assert [p.weight for p in m1.phases] == [p.weight for p in m2.phases]
        for a, b in zip(m1.phases, m2.phases):
            assert a.ops[0].abs_offset_fn(3) == b.ops[0].abs_offset_fn(3)

    def test_estimate_and_measure_join(self):
        model, _ = characterize_app(app, 4, app_name="toy")
        est = estimate_on(model, make_nfs_cluster, config_name="nfs")
        measure, mmodel = measure_on(app, 4, cluster_factory=make_nfs_cluster,
                                     app_name="toy")
        peaks = characterize_peaks_for(make_nfs_cluster)
        ev = evaluate(mmodel, est, measure, peaks=peaks)
        assert len(ev.rows) == model.nphases
        for row in ev.rows:
            assert row.bw_md_mb_s > 0 and row.bw_ch_mb_s > 0
            assert 0 < row.usage_pct <= 100
            assert row.error_rel_pct < 50
        assert ev.total_time_md > 0 and ev.total_time_ch > 0

    def test_evaluation_row_requires_peaks_for_usage(self):
        model, _ = characterize_app(app, 4)
        est = estimate_on(model, make_nfs_cluster)
        measure, mmodel = measure_on(app, 4, cluster_factory=make_nfs_cluster)
        ev = evaluate(mmodel, est, measure)  # no peaks
        with pytest.raises(ValueError):
            _ = ev.rows[0].usage_pct


class TestFullStudy:
    def test_full_study_selects_and_evaluates(self):
        study = full_study(
            app, 4,
            cluster_factories={
                "nfs": make_nfs_cluster,
                "pvfs": lambda: make_pvfs_cluster(n_ions=3),
            },
            app_name="toy",
            measure_configs=("nfs",),
        )
        assert study["model"].nphases >= 2
        assert set(study["estimates"]) == {"nfs", "pvfs"}
        assert set(study["evaluations"]) == {"nfs"}
        assert study["selection"]["best"] in ("nfs", "pvfs")
        totals = study["selection"]["totals"]
        assert totals[study["selection"]["best"]] == min(totals.values())
