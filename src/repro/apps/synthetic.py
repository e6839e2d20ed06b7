"""The 4-process example application of the paper's Figs. 2-5.

Four processes share one file through a strided view (etype 40 bytes,
one block of rs per process per repetition).  Each process performs 40
collective writes -- separated by ~121 ticks of communication, so every
write is its own phase (Phases 1-40) -- followed by 40 back-to-back
collective reads that form a single phase (Phase 41, the "vertical blue
line" of Fig. 5).

The trace numbers reproduce Fig. 2: request size 10 612 080 bytes,
view-relative offsets advancing by 265 302 etypes per repetition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi.context import RankContext
from repro.simmpi.datatypes import Basic, Vector

#: Fig. 2's request size (bytes) and its etype (40-byte record).
ETYPE_BYTES = 40
REQUEST_SIZE = 10_612_080
BLOCK_ETYPES = REQUEST_SIZE // ETYPE_BYTES  # 265302


@dataclass(frozen=True)
class SyntheticParams:
    """Shape of the example workload."""

    nrep: int = 40  # write repetitions (= write phases)
    request_size: int = REQUEST_SIZE
    comm_events_per_step: int = 121  # tick gap between writes (Fig. 2)
    compute_seconds: float = 0.0
    filename: str = "synthetic.dat"


def synthetic_program(ctx: RankContext, params: SyntheticParams = SyntheticParams()):
    """Rank program for the Figs. 2-5 example (coroutine style)."""
    np = ctx.size
    etype = Basic(ETYPE_BYTES)
    block = params.request_size // ETYPE_BYTES
    fh = yield from ctx.file_open(params.filename)
    # Strided view: process p owns block p of every repetition group.
    filetype = Vector(count=params.nrep, blocklen=block, stride=np * block, base=etype)
    yield from fh.set_view(disp=ctx.rank * params.request_size, etype=etype,
                            filetype=filetype)

    for rep in range(params.nrep):
        # Busy-work + communication between writes (the 121-tick gap).
        if params.compute_seconds:
            yield from ctx.compute(params.compute_seconds)
        for _ in range(params.comm_events_per_step):
            yield from ctx.allreduce(1.0)
        yield from fh.write_at_all(rep * block, params.request_size)

    # 40 back-to-back reads: one phase (no MPI events in between).
    for rep in range(params.nrep):
        yield from fh.read_at_all(rep * block, params.request_size)
    yield from fh.close()
    yield from ctx.barrier()
