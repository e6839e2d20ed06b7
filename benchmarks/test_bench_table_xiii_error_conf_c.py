"""Table XIII: estimation error on configuration C for 36/64/121 procs.

Paper values (Time_io(CH) vs Time_io(MD), relative error):

    36p:  Phase 1-50  1137.50 / 1239.05  9%      Phase 51  2773.32 / 2701.22  3%
    64p:  Phase 1-50  1167.40 / 1153.05  1%      Phase 51  2868.51 / 2984.75  4%
    121p: Phase 1-50  1253.05 / 1262.10  1%      Phase 51  3065.91 / 3107.19  1%

Shape claims: every group's error is below 10 %, and the write-phase
error shrinks as the process count grows (the paper: "estimation is
better [for a] higher number of processes").

121 processes use a reduced per-step communication count to keep the
bench's wall time reasonable; it does not change the I/O phases.
"""

from __future__ import annotations

from repro.core.estimate import time_error_pct
from repro.report.tables import btio_phase_groups, error_table

from bench_common import btio_error_study, once


def _grouped(ev):
    writes_ch = sum(r.time_ch for r in ev.rows if r.op_label == "W")
    writes_md = sum(r.time_md for r in ev.rows if r.op_label == "W")
    read = next(r for r in ev.rows if r.op_label == "R")
    err_w = time_error_pct(writes_ch, writes_md)
    err_r = read.time_error_rel_pct
    return writes_ch, writes_md, err_w, read.time_ch, read.time_md, err_r


def test_table_xiii_error_configuration_c(benchmark):
    def pipeline():
        return {
            36: btio_error_study("configuration-C", 36),
            64: btio_error_study("configuration-C", 64),
            121: btio_error_study("configuration-C", 121, comm_events=8),
        }

    studies = once(benchmark, pipeline)

    print("\nTable XIII: error on configuration C (BT-IO class D)")
    print(f"{'np':>5} {'group':<12} {'Time_CH':>10} {'Time_MD':>10} {'err':>6}")
    errors_w = {}
    for np_, ev in studies.items():
        w_ch, w_md, err_w, r_ch, r_md, err_r = _grouped(ev)
        errors_w[np_] = err_w
        print(f"{np_:>5} {'Phase 1-50':<12} {w_ch:>10.2f} {w_md:>10.2f} {err_w:>5.1f}%")
        print(f"{np_:>5} {'Phase 51':<12} {r_ch:>10.2f} {r_md:>10.2f} {err_r:>5.1f}%")
        # The paper's headline: relative error below 10 %.
        assert err_w < 10.0, f"write-group error {err_w:.1f}% at np={np_}"
        assert err_r < 10.0, f"read-phase error {err_r:.1f}% at np={np_}"
        # Magnitudes in the paper's range.
        assert 700 <= w_md <= 2000
        assert 1800 <= r_md <= 4000

    # Error does not grow with the process count (paper's trend).
    assert errors_w[121] <= errors_w[36] + 1.0
