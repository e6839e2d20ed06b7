"""NAS BT-IO, subtype FULL (paper section IV-B, Tables XI-XIV, Figs. 9-10).

The Block-Tridiagonal benchmark solves 3-D compressible Navier-Stokes on
a cubic mesh with a square number of processes.  The BTIO variant dumps
the whole solution field -- five double-precision words per mesh point
(a 40-byte record, the paper's "etype of 40") -- every 5 time steps,
through collective MPI-IO writes of a nested strided datatype; after the
last step all dumps are read back and verified.

FULL subtype = collective buffering: each dump is one
``MPI_File_write_at_all`` of ``rs = 40 * points/np`` bytes per process.
With the canonical layout, dump ``d`` of process ``p`` occupies bytes
``(d*np + p) * rs``: the Table XI formula
``rs*idP + rs*(ph-1) + rs*(np-1)*(ph-1)``.

Classes (mesh, time steps): A 64^3/200, B 102^3/200, C 162^3/200,
D 408^3/250.  A dump every 5 steps gives 40 write phases for class C and
50 for class D, plus the final read phase (rep 40/50) -- Table XI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi.context import RankContext
from repro.simmpi.datatypes import Basic, Vector
from repro.simmpi.errors import MPIUsageError

#: Bytes per mesh point: 5 double-precision solution words.
POINT_BYTES = 40

#: (mesh dimension, time steps) per problem class.
CLASSES = {
    "A": (64, 200),
    "B": (102, 200),
    "C": (162, 200),
    "D": (408, 250),
}

#: Dump the solution every this many steps.
DUMP_INTERVAL = 5

#: MPI events per time step (the x/y/z solver sweeps exchange faces);
#: chosen to reproduce the ~121-tick gap between write phases in Fig. 2.
COMM_EVENTS_PER_STEP = 24


@dataclass(frozen=True)
class BTIOParams:
    """One BT-IO invocation."""

    cls: str = "C"
    subtype: str = "full"
    busy_seconds_per_step: float = 0.01
    comm_events_per_step: int = COMM_EVENTS_PER_STEP
    filename: str = "btio.out"

    def __post_init__(self) -> None:
        if self.cls not in CLASSES:
            raise MPIUsageError(f"unknown BT class {self.cls!r}")
        if self.subtype not in ("full", "simple"):
            raise MPIUsageError(f"unknown BT-IO subtype {self.subtype!r}")

    @property
    def mesh(self) -> int:
        return CLASSES[self.cls][0]

    @property
    def nsteps(self) -> int:
        return CLASSES[self.cls][1]

    @property
    def ndumps(self) -> int:
        return self.nsteps // DUMP_INTERVAL

    def points_per_proc(self, np: int) -> int:
        """Mesh points each process dumps (balanced decomposition)."""
        total = self.mesh ** 3
        return total // np

    def request_size(self, np: int) -> int:
        """Per-process bytes per dump (the model's rs; ~10 MB for C/16)."""
        return self.points_per_proc(np) * POINT_BYTES


def validate_np(np: int) -> int:
    """BT requires a square process count; returns sqrt(np)."""
    root = int(round(np ** 0.5))
    if root * root != np:
        raise MPIUsageError(f"BT-IO requires a square number of processes, got {np}")
    return root


def btio_program(ctx: RankContext, params: BTIOParams = BTIOParams()):
    """Rank program for BT-IO FULL (and SIMPLE, without collectives)."""
    np = ctx.size
    validate_np(np)
    rs = params.request_size(np)
    pts = params.points_per_proc(np)
    ndumps = params.ndumps
    etype = Basic(POINT_BYTES)

    fh = yield from ctx.file_open(params.filename)
    # Nested strided view: process p owns slot p of each of the ndumps
    # dump groups -> absolute offset of dump d is (d*np + p) * rs.
    filetype = Vector(count=ndumps, blocklen=pts, stride=np * pts, base=etype)
    yield from fh.set_view(disp=ctx.rank * rs, etype=etype, filetype=filetype)

    collective = params.subtype == "full"
    for step in range(1, params.nsteps + 1):
        if params.busy_seconds_per_step:
            yield from ctx.compute(params.busy_seconds_per_step)
        # Solver sweeps: face exchanges with the process grid neighbours.
        for _ in range(params.comm_events_per_step):
            yield from ctx.allreduce(1.0)
        if step % DUMP_INTERVAL == 0:
            dump = step // DUMP_INTERVAL  # 1-based phase number
            view_off = (dump - 1) * pts  # etype units within the view
            if collective:
                yield from fh.write_at_all(view_off, rs)
            else:
                yield from fh.write_at(view_off, rs)

    yield from ctx.barrier()
    # Verification pass: re-read every dump, back to back (one phase).
    for dump in range(1, ndumps + 1):
        view_off = (dump - 1) * pts
        if collective:
            yield from fh.read_at_all(view_off, rs)
        else:
            yield from fh.read_at(view_off, rs)
    yield from fh.close()
    yield from ctx.barrier()


def expected_phase_count(params: BTIOParams) -> int:
    """Write phases + the single read phase (Table XI: 41 for C, 51 for D)."""
    return params.ndumps + 1
