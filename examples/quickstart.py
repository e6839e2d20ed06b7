"""Quickstart: model a parallel application's I/O and pick a subsystem.

The methodology in five steps:

1. write (or wrap) the application against the simulated MPI API;
2. trace it once, off-line, with the PAS2P-style tracer;
3. extract the I/O abstract model (metadata + I/O phases);
4. replay each phase with IOR on candidate I/O configurations (eqs. 1-2);
5. pick the configuration with the least estimated I/O time.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.clusters import configuration_a, configuration_b
from repro.core.estimate import select_configuration
from repro.core.pipeline import characterize_app, estimate_on
from repro.report.tables import phases_table

MB = 1024 * 1024


# -- 1. the application ------------------------------------------------------
# A small SPMD program: every rank computes, exchanges halos, and
# checkpoints its slice of a shared file every "iteration".
# Rank programs are generators: each MPI call is ``yield from ctx.<verb>``.

def my_app(ctx):
    fh = yield from ctx.file_open("checkpoint.dat")
    slice_bytes = 16 * MB
    for step in range(8):
        yield from ctx.compute(0.2)  # busy-work
        yield from ctx.allreduce(1.0)  # convergence check
        if step % 2 == 1:  # checkpoint every 2nd step
            yield from fh.write_at_all(ctx.rank * slice_bytes, slice_bytes)
    # final verification read
    yield from fh.read_at_all(ctx.rank * slice_bytes, slice_bytes)
    yield from fh.close()
    yield from ctx.barrier()


def main() -> None:
    # -- 2 & 3. trace once, extract the model (system-independent) ---------
    model, bundle = characterize_app(my_app, nprocs=8, app_name="my_app")
    print(model.describe())
    print()
    print(phases_table(model))
    print()

    # -- 4. estimate the I/O time on two candidate subsystems ---------------
    candidates = {
        "configuration-A (NFS + RAID5)": configuration_a,
        "configuration-B (PVFS2 + JBOD)": configuration_b,
    }
    for name, factory in candidates.items():
        report = estimate_on(model, factory, config_name=name)
        print(f"{name}: estimated I/O time {report.total_time_ch:.2f} s")
        for ph in report.phases:
            print(f"   phase {ph.phase_id}: BW_CH={ph.bw_ch_mb_s:.1f} MB/s "
                  f"-> {ph.time_ch:.2f} s")

    # -- 5. select -----------------------------------------------------------
    choice = select_configuration(model.phases, candidates)
    print(f"\nselected: {choice.best}")


if __name__ == "__main__":
    main()
