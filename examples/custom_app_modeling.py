"""Modeling your own application and shipping the model to target systems.

This example demonstrates the workflow the methodology is built for:
the application is characterized *once*, its I/O abstract model is
saved as JSON, and the model file alone -- no application, no input
data -- is later used to size up I/O subsystems (here: how NFS and
Lustre compare as the checkpoint frequency of a climate-style solver
changes).

Run:  python examples/custom_app_modeling.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.clusters import configuration_c, finisterrae
from repro.core.model import IOModel
from repro.core.pipeline import characterize_app, estimate_on
from repro.report.tables import phases_table
from repro.simmpi.datatypes import Basic, Vector

MB = 1024 * 1024


def make_solver(checkpoint_every: int, nsteps: int = 24):
    """A climate-style solver: halo exchanges + periodic strided dumps."""

    def solver(ctx):
        np_ = ctx.size
        etype = Basic(8)  # doubles
        slab = 4 * MB  # bytes per rank per dump
        slab_e = slab // 8
        ndumps = nsteps // checkpoint_every
        fh = yield from ctx.file_open("history.nc")
        filetype = Vector(count=max(1, ndumps), blocklen=slab_e,
                          stride=np_ * slab_e, base=etype)
        yield from fh.set_view(disp=ctx.rank * slab, etype=etype,
                               filetype=filetype)
        dump = 0
        for step in range(1, nsteps + 1):
            yield from ctx.compute(0.05)
            for _ in range(6):  # halo exchange sweeps
                yield from ctx.allreduce(1.0)
            if step % checkpoint_every == 0:
                yield from fh.write_at_all(dump * slab_e, slab)
                dump += 1
        yield from fh.close()
        yield from ctx.barrier()

    return solver


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="iomodels-"))
    print(f"model store: {workdir}\n")

    candidates = {"configuration-C (NFS)": configuration_c,
                  "Finisterrae (Lustre)": finisterrae}

    for every in (2, 6):
        app = make_solver(checkpoint_every=every)
        name = f"solver-ckpt{every}"
        # Characterize once, on a neutral platform...
        model, _ = characterize_app(app, nprocs=16, app_name=name)
        path = workdir / f"{name}.model.json"
        model.save(path)
        # ... and later, load the model alone on the target side.
        shipped = IOModel.load(path)

        print(phases_table(shipped,
                           title=f"checkpoint every {every} steps "
                                 f"({shipped.nphases} phases, "
                                 f"{shipped.total_weight // MB} MB)"))
        for cname, factory in candidates.items():
            report = estimate_on(shipped, factory, config_name=cname)
            print(f"  estimated I/O time on {cname}: "
                  f"{report.total_time_ch:.2f} s")
        print()

    print("The model file is all a target site needs: the application, "
          "its inputs and its runtime never leave the home system.")


if __name__ == "__main__":
    main()
