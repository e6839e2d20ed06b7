"""Replayer fast paths: zero-event guard, replay memo, parallel sweeps."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.clusters import configuration_a, configuration_b
from repro.core import cache as simcache
from repro.core.estimate import select_configuration
from repro.core.executors import PoolExecutor
from repro.core.offsetfn import OffsetFunction
from repro.core.phases import Phase, PhaseOp
from repro.core.pipeline import characterize_app, full_study
from repro.core.replayer import estimate_phase_replayed, replay_phase

from tests.conftest import make_nfs_cluster

MB = 1024 * 1024


def make_phase(rep: int, request_size: int = MB, nranks: int = 4) -> Phase:
    offs = OffsetFunction(slope=Fraction(64 * MB), intercept=Fraction(0))
    op = PhaseOp(op="write_at", kind="write", request_size=request_size,
                 disp=0, offset_fn=offs, abs_offset_fn=offs)
    return Phase(phase_id=1, file_group="f", rep=rep, ops=(op,),
                 ranks=tuple(range(nranks)), tick=1.0, first_time=0.0,
                 duration=1.0)


class TestZeroEventGuard:
    def test_zero_rep_phase_returns_zero_bandwidth(self):
        phase = make_phase(rep=0)
        result = replay_phase(phase, make_nfs_cluster(), min_repetitions=0)
        assert result.bw_mb_s == 0.0
        assert result.bw_by_kind == {}

    def test_estimate_phase_replayed_zero(self):
        phase = make_phase(rep=0)
        assert estimate_phase_replayed(phase, make_nfs_cluster,
                                       min_repetitions=0) == 0.0


class TestRepExtrapolation:
    """Replay memoization (the replayer simulates every repetition)."""

    def test_replay_memo_hits(self):
        phase = make_phase(rep=8)
        replay_phase(phase, make_nfs_cluster())
        before = simcache.stats()["replay"]
        other_id = make_phase(rep=8)
        other_id.phase_id = 99  # same signature, different phase id
        result = replay_phase(other_id, make_nfs_cluster())
        after = simcache.stats()["replay"]
        assert after["hits"] == before["hits"] + 1
        assert result.phase_id == 99


class TestParallelSweeps:
    def test_select_configuration_parallel_matches_serial(self):
        model, _ = characterize_app(
            madbench2_program, 4, MADbench2Params(kpix=1, nbin=4,
                                                  busy_seconds=0.0),
            app_name="madbench2")
        factories = {"configuration-A": configuration_a,
                     "configuration-B": configuration_b}
        serial = select_configuration(model.phases, factories)
        simcache.clear_all()
        par = select_configuration(model.phases, factories,
                                   executor=PoolExecutor(max_workers=2))
        assert par.best == serial.best
        for name in factories:
            assert par.total_times[name] == pytest.approx(
                serial.total_times[name], rel=1e-12)

    def test_full_study_parallel_matches_serial(self):
        params = MADbench2Params(kpix=1, nbin=4, busy_seconds=0.0)
        factories = {"configuration-A": configuration_a,
                     "configuration-B": configuration_b}
        serial = full_study(madbench2_program, 4, params,
                            cluster_factories=factories,
                            app_name="madbench2")
        simcache.clear_all()
        par = full_study(madbench2_program, 4, params,
                         cluster_factories=factories,
                         app_name="madbench2",
                         executor=PoolExecutor(max_workers=2))
        assert par["selection"]["best"] == serial["selection"]["best"]
        for name in factories:
            assert (par["estimates"][name].total_time_ch
                    == pytest.approx(serial["estimates"][name].total_time_ch,
                                     rel=1e-12))

    def test_unpicklable_factories_fall_back_to_serial(self):
        model, _ = characterize_app(
            madbench2_program, 4, MADbench2Params(kpix=1, nbin=4,
                                                  busy_seconds=0.0),
            app_name="madbench2")
        factories = {"nfs": lambda: make_nfs_cluster()}
        choice = select_configuration(model.phases, factories,
                                      executor=PoolExecutor(max_workers=2))
        assert choice.best == "nfs"
