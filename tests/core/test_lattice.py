"""Lattice-analytic selection vs. per-config replay: same rankings.

The vectorized kernels of :mod:`repro.core.lattice` evaluate eqs. (1)-(4)
analytically over the whole configuration lattice at once.  They are an
*approximation of the simulator*, so the contract is weaker than the
columnar one -- not bit-identical times, but the same ordering and the
same winner on the seed configurations (near-ties may swap deeper
positions; see docs/performance.md).  The kernels' eq. 1 totals are
pinned bit for bit by golden digests.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from repro.clusters import ALL_CONFIGURATIONS
from repro.core.estimate import select_configuration
from repro.core.lattice import (
    ConfigSpace,
    LatticeParams,
    LatticeUnsupportedError,
    evaluate_lattice,
    extract_row,
)
from repro.core.offsetfn import OffsetFunction
from repro.core.phases import Phase, PhaseOp

MB = 1024 * 1024


def mkphase(pid, np_, rs, block, kind="write", unique=False,
            collective=False):
    fn = OffsetFunction(slope=Fraction(0), intercept=Fraction(0))
    op = kind + ("_all" if collective else "")
    ops = (PhaseOp(op=op, kind=kind, request_size=rs, disp=0,
                   offset_fn=fn, abs_offset_fn=fn),)
    return Phase(phase_id=pid, file_group=f"f{pid}", rep=block // rs,
                 ops=ops, ranks=tuple(range(np_)), tick=0.0,
                 first_time=0.0, duration=1.0, unique_file=unique,
                 file_ids=tuple(range(np_)) if unique else (0,))


# One phase list per qualitatively distinct kernel path: large shared
# requests, sub-stripe writes (RAID5 read-modify-write), unique files
# (per-rank files + locator spread), single-rank latency-bound, and a
# collective (two-phase I/O) mix.
CASES = {
    "mixed": [mkphase(0, 4, MB, 48 * MB, "write"),
              mkphase(1, 4, MB, 48 * MB, "read"),
              mkphase(2, 4, 256 * 1024, 16 * MB, "write", collective=True)],
    "small-write": [mkphase(0, 2, 64 * 1024, 4 * MB, "write")],
    "unique": [mkphase(0, 4, 512 * 1024, 48 * MB, "write", unique=True),
               mkphase(1, 4, 512 * 1024, 48 * MB, "read", unique=True)],
    "np1": [mkphase(0, 1, MB, 48 * MB, "write"),
            mkphase(1, 1, MB, 48 * MB, "read")],
}


@pytest.fixture(scope="module")
def seed_params():
    return LatticeParams.from_factories(dict(ALL_CONFIGURATIONS))


@pytest.mark.parametrize("case", sorted(CASES))
def test_seed_ranking_matches_replay(case, seed_params):
    """The property the whole module exists for: on every seed cluster
    configuration the analytic ordering equals the replay ordering."""
    phases = CASES[case]
    replay = select_configuration(phases, dict(ALL_CONFIGURATIONS))
    lattice = evaluate_lattice(phases, seed_params).choice
    assert [n for n, _ in lattice.ranking()] == \
        [n for n, _ in replay.ranking()]
    assert lattice.best == replay.best


def test_select_configuration_lattice_flag(seed_params):
    phases = CASES["mixed"]
    via_flag = select_configuration(phases, dict(ALL_CONFIGURATIONS),
                                    lattice=True)
    via_params = select_configuration(phases, dict(ALL_CONFIGURATIONS),
                                      lattice=seed_params)
    direct = evaluate_lattice(phases, seed_params).choice
    assert via_flag.total_times == direct.total_times
    assert via_params.total_times == direct.total_times
    assert via_flag.best == direct.best


def test_table_xii_best_pick():
    """Table XII: BT-IO on configuration C vs. Finisterrae -- the
    lattice must pick the same winner as the replay reference."""
    from repro.apps import BTIOParams, btio_program
    from repro.core.model import IOModel
    from repro.tracer.hooks import trace_run

    bundle = trace_run(btio_program, 4, None,
                       BTIOParams(cls="A", comm_events_per_step=2))
    model = IOModel.from_trace(bundle, "bt")
    facs = {"configuration-C": ALL_CONFIGURATIONS["configuration-C"],
            "finisterrae": ALL_CONFIGURATIONS["finisterrae"]}
    replay = select_configuration(model.phases, facs)
    lattice = select_configuration(model.phases, facs, lattice=True)
    assert lattice.best == replay.best


def test_reports_structure(seed_params):
    sel = evaluate_lattice(CASES["mixed"], seed_params)
    rep = sel.report("configuration-A")
    assert rep.config_name == "configuration-A"
    assert len(rep.phases) == len(CASES["mixed"])
    assert rep.phase(0).bw_ch_mb_s > 0
    assert rep.total_time_ch == \
        pytest.approx(sel.choice.total_times["configuration-A"])
    assert set(sel.reports()) == set(ALL_CONFIGURATIONS)


def totals_digest(choice) -> str:
    """sha256 over every configuration's eq. 1 total (``float.hex``)."""
    h = hashlib.sha256()
    for name in sorted(choice.total_times):
        h.update(f"{name}={float(choice.total_times[name]).hex()}\n"
                 .encode())
    return h.hexdigest()


#: Captured from the scalar and numpy drivers (which agreed bit for bit)
#: before the scalar one was deleted; every CASES phase in one pass.
GOLDEN_SEED = \
    "6ca992a5a1c01c8329028c7a5d9580813b1ff2f4db6866a74e701fb73813dc96"
GOLDEN_SPACE = \
    "f9fcbabc3c53d9fe02a8745be07b1b1134ceee631e1585bd66bfef24c6715469"

ALL_PHASES = [ph for case in sorted(CASES) for ph in CASES[case]]


def test_totals_golden_seed(seed_params):
    assert totals_digest(evaluate_lattice(ALL_PHASES, seed_params).choice) \
        == GOLDEN_SEED


def test_totals_golden_space():
    params = ConfigSpace().params()
    assert len(params) == 4096
    assert totals_digest(evaluate_lattice(ALL_PHASES, params).choice) \
        == GOLDEN_SPACE


def test_peak_bw_matches_cluster(seed_params):
    """eqs. (3)/(4): the lattice peak equals the cluster's analytic
    peak for every seed configuration, both kinds."""
    for kind in ("write", "read"):
        peaks = seed_params.peak_bw(kind)
        for i, name in enumerate(seed_params.names):
            cluster = ALL_CONFIGURATIONS[name]()
            assert float(peaks[i]) == pytest.approx(cluster.peak_bw(kind),
                                                    rel=1e-12), (name, kind)


def test_config_space_shape():
    space = ConfigSpace()
    facs = space.factories()
    assert len(facs) == 4096
    params = space.params()
    assert len(params) == 4096
    assert list(facs) == params.names
    # spot-check one point round-trips through a real cluster build
    name = params.names[0]
    row = extract_row(facs[name]())
    for f, v in row.items():
        assert float(params.cols[f][0]) == v, f


def test_extract_row_rejects_degraded():
    cluster = ALL_CONFIGURATIONS["configuration-A"]()
    volume = cluster.globalfs.ions[0].fs.volume
    volume.fail_disk(0)
    with pytest.raises(LatticeUnsupportedError):
        extract_row(cluster)
