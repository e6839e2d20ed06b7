"""Table renderers: structure and content of the paper-style output."""

from __future__ import annotations

import pytest

from repro.core.model import IOModel
from repro.core.pipeline import Evaluation, EvaluationRow
from repro.report.tables import (
    btio_phase_groups,
    configuration_table,
    error_table,
    fmt_bytes,
    phases_table,
    render,
    time_estimation_table,
    usage_table,
)
from repro.clusters import configuration_a, configuration_b
from repro.tracer import trace_run

MB = 1024 * 1024
GB = 1024 * MB


def app(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.write_at_all(ctx.rank * 8 * MB, 8 * MB)
    yield from fh.close()


def make_row(phase_id=1, **kw):
    defaults = dict(phase_id=phase_id, op_label="W", n_operations=128,
                    weight=4 * GB, bw_ch_mb_s=96.0, bw_md_mb_s=93.0,
                    time_ch=42.0, time_md=44.0, bw_pk_mb_s=400.0)
    defaults.update(kw)
    return EvaluationRow(**defaults)


class TestRender:
    def test_alignment_and_separator(self):
        out = render(["a", "long-header"], [["x", "1"], ["yyyy", "22"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "-+-" in lines[1]
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        out = render(["h"], [["v"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_markdown_mode(self):
        out = render(["a", "b"], [["1", "2"]], title="T", markdown=True)
        lines = out.splitlines()
        assert lines[0] == "**T**"
        assert lines[2].startswith("| a")
        assert set(lines[3]) <= {"|", "-"}
        assert "| 1" in lines[4]

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            render(["a", "b"], [["only-one"]])


class TestFmtBytes:
    def test_whole_gb(self):
        assert fmt_bytes(4 * GB) == "4GB"

    def test_fractional_gb(self):
        assert fmt_bytes(int(1.5 * GB)) == "1.5GB"

    def test_mb(self):
        assert fmt_bytes(40 * MB) == "40MB"


class TestConfigurationTable:
    def test_table_vi(self):
        out = configuration_table([configuration_a().description,
                                   configuration_b().description])
        assert "Configuration A" in out and "Configuration B" in out
        assert "NFS Ver 3" in out and "PVFS2 2.8.2" in out
        assert "RAID 5" in out and "JBOD" in out
        assert "Mounting Point" in out


class TestPhasesTable:
    def test_table_viii_style(self):
        model = IOModel.from_trace(trace_run(app, 4), app_name="toy")
        out = phases_table(model)
        assert "InitOffset" in out and "weight" in out
        assert "idP" in out  # the offset expression
        assert "4 write" in out


class TestUsageTable:
    def test_table_ix_style(self):
        ev = Evaluation(config_name="conf-A", rows=[make_row()])
        out = usage_table(ev)
        assert "BW_PK" in out and "BW_MD" in out and "System Usage" in out
        assert "128 W" in out and "4GB" in out
        assert "400" in out and "93" in out
        assert "23" in out  # 93/400 * 100

    def test_missing_peak_renders_dash(self):
        ev = Evaluation(config_name="c", rows=[make_row(bw_pk_mb_s=None)])
        assert "-" in usage_table(ev)


class TestTimeAndErrorTables:
    def test_table_xii_style(self):
        out = time_estimation_table({
            "conf. C": {"Phase 1-50": 1167.40, "Phase 51": 2868.51},
            "Finisterrae": {"Phase 1-50": 932.36, "Phase 51": 844.42},
        })
        assert "1167.40" in out and "844.42" in out
        assert "Time_io(CH) on conf. C" in out

    def test_table_xiii_style(self):
        ev = Evaluation(config_name="conf-C", rows=[
            make_row(1, time_ch=100.0, time_md=110.0),
            make_row(2, time_ch=50.0, time_md=50.0),
            make_row(3, op_label="R", time_ch=200.0, time_md=205.0),
        ])
        out = error_table(ev, {"Phase 1-2": [1, 2], "Phase 3": [3]})
        assert "Phase 1-2" in out and "error_rel" in out
        assert "6%" in out  # |150-160|/160
        assert "2%" in out  # |200-205|/205

    def test_btio_groups(self):
        groups = btio_phase_groups(50)
        assert groups["Phase 1-50"] == list(range(1, 51))
        assert groups["Phase 51"] == [51]
