"""MADbench2 in IO mode (paper section IV-A, Table VIII, Fig. 7).

MADbench2 is the I/O benchmark distilled from the MADspec CMB analysis
code.  In IO mode all calculation/communication is replaced by
busy-work, and three functions drive the I/O on one shared file through
*individual file pointers with non-collective blocking operations*:

* **S** writes ``nbin`` component matrices (8 back-to-back writes);
* **W** reads every matrix and writes it back, software-pipelined with a
  lookahead of 2: read bin0, read bin1, then alternate (write bin i-2,
  read bin i), and finally write the last two bins;
* **C** reads all ``nbin`` matrices.

Each process owns a contiguous region of the shared file holding its
slice of all bins: process ``p``'s bin ``j`` lives at
``(p*nbin + j) * rs`` -- which is exactly Table VIII's
``initOffset = idP * 8 * 32MB`` family of phases, with the pipelined W
function splitting into read(rep 2) / write-read(rep 6) / write(rep 2).

With 16 processes, 8KPIX and 8 bins the per-process slice is
``8192^2 * 8 bytes / 16 = 32 MB`` -- the paper's request size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi.context import RankContext
from repro.simmpi.errors import MPIUsageError


@dataclass(frozen=True)
class MADbench2Params:
    """MADbench2 invocation (IO mode)."""

    kpix: int = 8  # map size in kilo-pixels (8KPIX -> 8192 x 8192 matrix)
    nbin: int = 8  # number of component matrices
    ngang: int = 1  # gangs (single-gang by default, as in the paper)
    busy_seconds: float = 0.05  # busy-work between I/O calls
    filename: str = "madbench2.dat"
    filetype_shared: bool = True  # SHARED filetype (one file for all)

    def npix(self) -> int:
        return self.kpix * 1024

    def request_size(self, np: int) -> int:
        """Per-process slice of one matrix: npix^2 * 8 bytes / np."""
        total = self.npix() ** 2 * 8
        if total % np:
            raise MPIUsageError(
                f"matrix of {total} bytes does not divide over {np} processes"
            )
        return total // np


def madbench2_program(ctx: RankContext,
                      params: MADbench2Params = MADbench2Params()):
    """Rank program: S, W, C with busy-work, on one shared file.

    Multi-gang mode (``ngang > 1``): S builds and writes the matrices
    over all processes, then the processes are redistributed into gangs
    and W/C synchronize within their gang only -- the paper's "the
    matrices are built, summed and inverted over all the processors (S &
    D), but then redistributed over subsets of processors (gangs) for
    their subsequent manipulations (W & C)".  Each process still owns
    the same file region, so the I/O phases are unchanged.
    """
    np = ctx.size
    root = int(round(np ** 0.5))
    if root * root != np:
        raise MPIUsageError(f"MADbench2 requires a square process count, got {np}")
    if params.ngang < 1 or np % params.ngang != 0:
        raise MPIUsageError(
            f"ngang={params.ngang} must divide the process count {np}")
    rs = params.request_size(np)
    nbin = params.nbin
    fh = yield from ctx.file_open(params.filename,
                                  unique=not params.filetype_shared)
    base = ctx.rank * nbin * rs  # this process's region (bytes == etypes here)

    def busy():
        if params.busy_seconds:
            yield from ctx.compute(params.busy_seconds)

    # ---- S: write all bins -------------------------------------------------
    yield from fh.seek(base)
    for _ in range(nbin):
        yield from busy()
        yield from fh.write(rs)
    yield from ctx.barrier()
    yield from ctx.allreduce(1.0)  # dgemm-scale busy-work: reduction in S/W

    # Gang redistribution for W & C (no-op in single-gang mode).
    if params.ngang > 1:
        gang = yield from ctx.split(color=ctx.rank * params.ngang // np)
    else:
        gang = None

    # ---- W: read + write every bin, pipelined with lookahead 2 -------------
    lookahead = min(2, nbin)
    yield from fh.seek(base)
    for j in range(lookahead):  # prefetch
        yield from busy()
        yield from fh.read(rs)
    for j in range(lookahead, nbin):  # steady state: write back, read next
        yield from busy()
        yield from fh.seek(base + (j - lookahead) * rs)
        yield from fh.write(rs)
        yield from fh.seek(base + j * rs)
        yield from fh.read(rs)
    for j in range(nbin - lookahead, nbin):  # drain
        yield from busy()
        yield from fh.seek(base + j * rs)
        yield from fh.write(rs)
    yield from ctx.barrier(gang)
    yield from ctx.allreduce(1.0, comm=gang)

    # ---- C: read all bins ----------------------------------------------------
    yield from fh.seek(base)
    for _ in range(nbin):
        yield from busy()
        yield from fh.read(rs)
    yield from fh.close()
    yield from ctx.barrier()


#: The five phases of Table VIII for (16 procs, 8KPIX, 8 bins, 32 MB rs):
#: (label, op kinds, rep, weight in units of np*rs).
TABLE_VIII_SHAPE = [
    ("1", ("write",), 8, 8),
    ("2", ("read",), 2, 2),
    ("3", ("write", "read"), 6, 12),
    ("4", ("write",), 2, 2),
    ("5", ("read",), 8, 8),
]
