"""Ablation: tick tolerance in cross-process phase matching.

Phases group LAPs of different ranks whose first ticks are "similar"
(Fig. 2: 148 vs 147 -- real SPMD ranks drift by a few events).  Too
tight a tolerance splits one logical phase into per-tick fragments.
The bench has two parts:

* a drifting workload (rank pairs perform a rank-dependent number of
  point-to-point exchanges before a collective write) where tolerance 0
  shatters the single phase and the default recovers it;
* MADbench2 and BT-IO class C, whose perfectly symmetric ranks make the
  extraction stable across four orders of magnitude of tolerance --
  including absurdly loose values, because a phase takes at most one
  LAP per rank.
"""

from __future__ import annotations

from repro.core.model import IOModel
from repro.tracer import trace_run

from bench_common import MB, btio_model, madbench_model, once

NP = 8


def drifting_app(ctx):
    """Rank pair k exchanges k messages before one collective write."""
    pair = ctx.rank // 2
    partner = ctx.rank ^ 1
    for _ in range(pair * 4):
        if ctx.rank % 2 == 0:
            yield from ctx.send(partner, 1024)
        else:
            yield from ctx.recv(partner)
    fh = yield from ctx.file_open("drift.dat")
    yield from fh.write_at_all(ctx.rank * MB, MB)
    yield from fh.close()


def sweep():
    drift_bundle = trace_run(drifting_app, NP)
    _, mb_bundle = madbench_model()
    _, bt_bundle = btio_model("C", 16)
    results = {}
    for tol in (0, 1, 4, 16, 64, 100_000):
        drift = IOModel.from_trace(drift_bundle, tick_tol=tol).nphases
        mb = IOModel.from_trace(mb_bundle, tick_tol=tol).nphases
        bt = IOModel.from_trace(bt_bundle, tick_tol=tol).nphases
        results[tol] = (drift, mb, bt)
    return results


def test_ablation_tick_tolerance(benchmark):
    results = once(benchmark, sweep)

    print("\nAblation: phase count vs tick tolerance")
    print(f"{'tol':>8} {'drifting':>9} {'madbench2':>10} {'btio-C':>8}"
          "   (true: 1 / 5 / 41)")
    for tol, (drift, mb, bt) in results.items():
        print(f"{tol:>8} {drift:>9} {mb:>10} {bt:>8}")

    # Tolerance 0 shatters the drifting workload's single write phase.
    assert results[0][0] > 1
    # The default tolerance recovers the true structure everywhere.
    assert results[16] == (1, 5, 41)
    # A moderate band is stable on the symmetric workloads.
    assert results[4][1:] == results[16][1:] == results[64][1:]
    # Even an absurd tolerance cannot over-merge: a phase absorbs at
    # most one LAP per rank, so BT-IO keeps its 41 phases.
    assert results[100_000][2] == 41
