"""Ablation: replaying mixed W-R phases with plain IOR averaging.

The paper's conclusion reports ~50 % error on MADbench2's phase 3 when
it is replicated by separate IOR write and read runs whose bandwidths
are averaged ("IOR ... does not allow [us] to configure complex access
patterns. We are designing [a] benchmark to replicate the I/O when
there are 2 or more operations in a phase").

This bench quantifies the same fidelity gap on our substrate: the
averaged-IOR estimate of phase 3 is compared against the application's
measured phase time, and against a hypothetical interleaved replay
(write and read alternating per repetition, like the real W function).
"""

from __future__ import annotations

from repro.apps.ior import IORParams, run_ior
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.clusters import configuration_a
from repro.core.estimate import estimate_phase
from repro.core.pipeline import measure_on
from repro.simmpi.engine import Engine
from repro.simmpi.fileio import IOEvent

from bench_common import MB, madbench_model, once


def interleaved_replay(phase) -> float:
    """A W-R-aware replayer: alternate write/read per repetition."""
    rs = phase.request_size
    reps = max(phase.rep, 6)

    def program(ctx):
        fh = yield from ctx.file_open("wr-replay")
        base = ctx.rank * 2 * reps * rs
        for k in range(reps):
            yield from fh.seek(base + k * rs)
            yield from fh.write(rs)
            yield from fh.seek(base + reps * rs + k * rs)
            yield from fh.read(rs)
        yield from fh.close()

    events: list[IOEvent] = []
    engine = Engine(phase.np, platform=configuration_a())
    engine.add_io_hook(events.append)
    engine.run(program)
    begin = min(e.time for e in events)
    end = max(e.time + e.duration for e in events)
    nbytes = sum(e.request_size for e in events)
    return nbytes / MB / (end - begin)


def study():
    model, _ = madbench_model()
    phase3 = model.phases[2]
    assert phase3.op_label == "W-R"
    averaged = estimate_phase(phase3, configuration_a)
    measure, mmodel = measure_on(
        madbench2_program, 16, MADbench2Params(),
        cluster_factory=configuration_a, app_name="madbench2")
    measured = measure.phase(phase3.phase_id)
    bw_interleaved = interleaved_replay(phase3)
    return phase3, averaged, measured, bw_interleaved


def test_ablation_mixed_phase_replication(benchmark):
    phase3, averaged, measured, bw_interleaved = once(benchmark, study)

    err_avg = 100 * abs(averaged.bw_ch_mb_s - measured.bw_md_mb_s) / \
        measured.bw_md_mb_s
    err_int = 100 * abs(bw_interleaved - measured.bw_md_mb_s) / \
        measured.bw_md_mb_s

    print("\nAblation: MADbench2 phase 3 (W-R) replication fidelity")
    print(f" measured BW_MD:            {measured.bw_md_mb_s:8.1f} MB/s")
    print(f" averaged IOR (paper):      {averaged.bw_ch_mb_s:8.1f} MB/s "
          f"(error {err_avg:.1f}%)")
    print(f" interleaved replay:        {bw_interleaved:8.1f} MB/s "
          f"(error {err_int:.1f}%)")

    # The interleaved replayer is at least as faithful as plain
    # averaging -- the direction of the authors' planned fix.
    assert err_int <= err_avg + 2.0
    assert measured.bw_md_mb_s > 0
