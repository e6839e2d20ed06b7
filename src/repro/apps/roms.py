"""ROMS-style 'upwelling' workload over parallel HDF5 (paper future work).

The Regional Ocean Modeling System's upwelling test case integrates a
coastal ocean and periodically dumps *history* files (2-D free surface
plus 3-D momentum and tracer fields) and a final *restart* file, each a
separate HDF5 file created during execution.  The paper's future-work
section traces exactly this on Finisterrae and observes that "the model
is applicable to each file".

This implementation reproduces that I/O structure on the substrate:

* every ``history_every`` steps a new ``his_NNNN.nc`` is created and
  the field set is written collectively (one phase group per file);
* at the end, ``rst.nc`` receives two time levels of the 3-D state;
* small attribute/metadata writes accompany each file, as HDF5 does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdf5lite import H5File
from repro.simmpi.context import RankContext

#: (name, dimensionality) of the upwelling history fields.
HISTORY_FIELDS = [
    ("zeta", 2),  # free surface
    ("ubar", 2),
    ("vbar", 2),
    ("u", 3),
    ("v", 3),
    ("temp", 3),
    ("salt", 3),
]


@dataclass(frozen=True)
class ROMSParams:
    """Upwelling test-case shape."""

    nx: int = 128
    ny: int = 64
    nz: int = 16
    nsteps: int = 24
    history_every: int = 8
    busy_seconds_per_step: float = 0.02
    comm_events_per_step: int = 6

    def field_bytes(self, dims: int) -> int:
        cells = self.nx * self.ny * (self.nz if dims == 3 else 1)
        return cells * 8  # double precision

    @property
    def n_history_files(self) -> int:
        return self.nsteps // self.history_every

    def history_bytes(self) -> int:
        return sum(self.field_bytes(d) for _, d in HISTORY_FIELDS)


def roms_program(ctx: RankContext, params: ROMSParams = ROMSParams()):
    """Rank program: time stepping with periodic multi-file history output."""
    his_index = 0
    for step in range(1, params.nsteps + 1):
        if params.busy_seconds_per_step:
            yield from ctx.compute(params.busy_seconds_per_step)
        for _ in range(params.comm_events_per_step):
            yield from ctx.allreduce(1.0)  # barotropic/baroclinic coupling
        if step % params.history_every == 0:
            his_index += 1
            f = yield from H5File.open(ctx, f"his_{his_index:04d}.nc")
            try:
                yield from f.attrs.set("ocean_time", step)
                for name, dims in HISTORY_FIELDS:
                    ds = yield from f.create_dataset(name,
                                                     params.field_bytes(dims))
                    yield from ds.write_slab()
            finally:
                yield from f.close()

    # Final restart: two time levels of the 3-D prognostic state.
    f = yield from H5File.open(ctx, "rst.nc")
    try:
        yield from f.attrs.set("ntimes", params.nsteps)
        for level in range(2):
            for name, dims in HISTORY_FIELDS:
                if dims != 3:
                    continue
                ds = yield from f.create_dataset(f"{name}_{level}",
                                                 params.field_bytes(3))
                yield from ds.write_slab()
    finally:
        yield from f.close()
    yield from ctx.barrier()
