"""Replay planner: dedup across phases and configurations, exact fan-out."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.clusters import ALL_CONFIGURATIONS
from repro.core import cache as simcache
from repro.core.estimate import estimate_model, select_configuration
from repro.core.executors import SerialExecutor
from repro.core.offsetfn import OffsetFunction
from repro.core.phases import Phase, PhaseOp
from repro.core.planner import (
    ReplayPlan,
    build_replay_plan,
    phase_signature,
)
from repro.core.sweep import JobFailure, SweepJobError
from repro.iosim import Cluster

from tests.conftest import make_nfs_cluster, make_pvfs_cluster

MB = 1024 * 1024


def make_phase(pid: int, rs: int = MB, rep: int = 4,
               op: str = "write_at") -> Phase:
    offs = OffsetFunction(slope=Fraction(rs * rep), intercept=Fraction(0))
    unit = PhaseOp(op=op, kind="read" if "read" in op else "write",
                   request_size=rs, disp=0,
                   offset_fn=offs, abs_offset_fn=offs)
    return Phase(phase_id=pid, file_group="data", rep=rep, ops=(unit,),
                 ranks=(0, 1, 2, 3), tick=float(pid * 100),
                 first_time=float(pid), duration=1.0)


def nfs_a():
    return make_nfs_cluster()


def nfs_b():  # distinct callable, structurally identical cluster
    return make_nfs_cluster()


def pvfs():
    return make_pvfs_cluster()


def fake_runner(calls):
    def run(phase, factory):
        calls.append((phase_signature(phase),
                      simcache.factory_fingerprint(factory)))
        return SimpleNamespace(bw_ch_mb_s=100.0,
                               bw_ch_by_kind={"write": 100.0})
    return run


class TestDedup:
    def test_identical_phases_share_one_job(self):
        phases = [make_phase(1), make_phase(2), make_phase(3),
                  make_phase(4, rs=4 * MB)]
        plan = build_replay_plan(phases, {"a": nfs_a})
        assert plan.requests == 4
        assert plan.unique == 2  # three equal signatures + one distinct

    def test_signature_ignores_timing_but_not_geometry(self):
        assert phase_signature(make_phase(1)) == phase_signature(make_phase(9))
        assert phase_signature(make_phase(1)) \
            != phase_signature(make_phase(1, rep=8))
        assert phase_signature(make_phase(1)) \
            != phase_signature(make_phase(1, op="read_at"))

    def test_equal_fingerprints_dedupe_across_configs(self):
        phases = [make_phase(1), make_phase(2, rs=4 * MB)]
        plan = build_replay_plan(phases, {"a": nfs_a, "b": nfs_b})
        assert plan.requests == 4
        assert plan.unique == 2  # both configs feed off the same jobs

    def test_distinct_fingerprints_do_not_dedupe(self):
        phases = [make_phase(1)]
        plan = build_replay_plan(phases, {"a": nfs_a, "p": pvfs})
        assert plan.unique == 2

    def test_fingerprintless_factories_get_private_jobs(self):
        def bare_a():
            return SimpleNamespace()  # no fingerprint()

        def bare_b():
            return SimpleNamespace()

        plan = build_replay_plan([make_phase(1)],
                                 {"a": bare_a, "b": bare_b})
        assert plan.unique == 2  # no cross-config sharing without identity


class TestExecute:
    def test_executes_only_unique_jobs(self):
        phases = [make_phase(i) for i in range(1, 6)] \
            + [make_phase(6, rs=4 * MB)]
        plan = build_replay_plan(phases, {"a": nfs_a, "b": nfs_b})
        calls: list = []
        reports = plan.execute(runner=fake_runner(calls))
        assert len(calls) == plan.unique == 2
        assert plan.requests == 12
        for name in ("a", "b"):
            assert [p.phase_id for p in reports[name].phases] \
                == [ph.phase_id for ph in phases]
            assert all(p.bw_ch_mb_s == 100.0 for p in reports[name].phases)

    def test_fan_out_matches_estimate_model(self):
        phases = [make_phase(1), make_phase(2),
                  make_phase(3, rs=256 * 1024, rep=2)]
        direct = estimate_model(phases, nfs_a, config_name="a")
        plan = build_replay_plan(phases, {"a": nfs_a})
        planned = plan.execute()["a"]
        assert [p.bw_ch_mb_s for p in planned.phases] \
            == [p.bw_ch_mb_s for p in direct.phases]
        assert planned.total_time_ch == direct.total_time_ch

    def test_failed_job_fails_its_configs_only(self):
        def flaky(phase, factory):
            if factory is pvfs:
                raise RuntimeError("boom")
            return SimpleNamespace(bw_ch_mb_s=50.0, bw_ch_by_kind={})

        plan = build_replay_plan([make_phase(1)],
                                 {"good": nfs_a, "bad": pvfs})
        reports = plan.execute(runner=flaky,
                               executor=SerialExecutor(raise_on_error=False))
        assert not reports["bad"]  # JobFailure is falsy
        assert isinstance(reports["bad"], JobFailure)
        assert reports["good"].phases[0].bw_ch_mb_s == 50.0

    def test_raise_on_error_propagates(self):
        def boom(phase, factory):
            raise RuntimeError("boom")

        plan = build_replay_plan([make_phase(1)], {"a": nfs_a})
        with pytest.raises(SweepJobError):
            plan.execute(runner=boom)


class TestSelectConfiguration:
    def test_selection_runs_through_the_planner(self, monkeypatch):
        import repro.core.planner as planner_mod

        calls: list = []
        real = planner_mod.estimate_phase

        def counting(phase, factory):
            calls.append(phase_signature(phase))
            return real(phase, factory)

        monkeypatch.setattr(planner_mod, "_run_replay_job", counting)
        phases = [make_phase(i) for i in range(1, 5)]  # one signature
        choice = select_configuration(phases, {"a": nfs_a, "b": nfs_b,
                                               "p": pvfs})
        # 4 phases x 3 configs = 12 requests; 1 job for the nfs pair
        # (equal fingerprints) + 1 for pvfs.
        assert len(calls) == 2
        assert set(choice.total_times) == {"a", "b", "p"}
        assert choice.total_times["a"] == choice.total_times["b"]


def bare():
    return SimpleNamespace()  # no fingerprint(): scoped by config name


#: Job names of a fixed plan over the paper configurations plus one
#: fingerprint-less factory.  Names are ``sweep_map`` checkpoint names:
#: a changed name strands every checkpoint written before it.
PINNED_JOB_NAMES = {
    "configuration-A": ["replay-da772cf79e94", "replay-f2e9c1a08586",
                        "replay-fe46f178b38f"],
    "configuration-B": ["replay-093cef981bd6", "replay-5440512db331",
                        "replay-c58f8c7deccb"],
    "configuration-C": ["replay-3fd155565ec3", "replay-68af51e0e9bf",
                        "replay-ddc2713ab050"],
    "finisterrae": ["replay-04af654a1387", "replay-74566faebd56",
                    "replay-ef3026c76d14"],
    "bare": ["replay-38b3b8a7aae0", "replay-4796ebfdeb05",
             "replay-4cdce7d9fdab"],
}


def three_phases():
    return [make_phase(1), make_phase(2, rs=4 * MB),
            make_phase(3, op="read_at")]


def test_job_names_are_pinned():
    plan = build_replay_plan(three_phases(),
                             {**ALL_CONFIGURATIONS, "bare": bare})
    names: dict[str, list[str]] = {}
    for name, job in plan.jobs.items():
        for config_name, _ in job.consumers:
            names.setdefault(config_name, []).append(name)
    assert {c: sorted(v) for c, v in names.items()} == PINNED_JOB_NAMES


class TestWarmWorkCounts:
    """A warm repeat of a selection is memo lookups only: it builds no
    cluster, fingerprints none, and serializes each configuration's
    fingerprint into its job-name scope once, not once per phase."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"factory": 0, "fingerprint": 0, "repr": 0}

        class CountedRepr(tuple):
            def __repr__(self):
                counts["repr"] += 1
                return tuple.__repr__(self)

        real = Cluster.fingerprint

        def fingerprint(self):
            counts["fingerprint"] += 1
            return CountedRepr(real(self))

        monkeypatch.setattr(Cluster, "fingerprint", fingerprint)
        return counts

    @staticmethod
    def counted_factories(counts):
        # Fresh callables: the per-factory memos start cold for them.
        def counted(factory):
            def build():
                counts["factory"] += 1
                return factory()
            return build

        return {name: counted(f) for name, f in ALL_CONFIGURATIONS.items()}

    def test_warm_select_builds_and_fingerprints_nothing(self, counts):
        factories = self.counted_factories(counts)
        cold = select_configuration(three_phases(), factories)
        assert counts["factory"] > len(factories)  # replays ran
        counts.update(dict.fromkeys(counts, 0))
        warm = select_configuration(three_phases(), factories)
        assert warm == cold
        assert counts["factory"] == counts["fingerprint"] == 0
        assert 0 < counts["repr"] <= len(factories)

    def test_warm_lattice_select_builds_nothing(self, counts):
        factories = self.counted_factories(counts)
        cold = select_configuration(three_phases(), factories, lattice=True)
        assert counts["factory"] == len(factories)
        counts.update(dict.fromkeys(counts, 0))
        warm = select_configuration(three_phases(), factories, lattice=True)
        assert warm == cold
        assert counts == {"factory": 0, "fingerprint": 0, "repr": 0}
