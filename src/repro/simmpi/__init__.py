"""Deterministic simulated MPI runtime (substitute for mpich2/OpenMPI).

Public surface::

    from repro.simmpi import Engine, IdealPlatform, RankContext
    from repro.simmpi import datatypes

    def program(ctx):  # a generator: each MPI verb is `yield from`-ed
        fh = yield from ctx.file_open("data.out")
        yield from fh.write_at_all(ctx.rank * 1024, 1024)
        yield from fh.close()

    Engine(nprocs=4, platform=IdealPlatform()).run(program)
"""

from .context import RankContext
from .datatypes import (
    BYTE,
    DOUBLE,
    Basic,
    Contiguous,
    Datatype,
    FileView,
    Resized,
    Subarray,
    Vector,
)
from .engine import Comm, Engine, IdealPlatform, IORequest, Platform, RunResult
from .errors import (
    CollectiveMismatch,
    DeadlockError,
    MPIFileError,
    MPIUsageError,
    RankFailedError,
    SimMPIError,
)
from .fileio import (
    IOEvent,
    IORequestHandle,
    OP_NAMES,
    SimFile,
    SimFileHandle,
)

__all__ = [
    "BYTE",
    "DOUBLE",
    "Basic",
    "Comm",
    "CollectiveMismatch",
    "Contiguous",
    "Datatype",
    "DeadlockError",
    "Engine",
    "FileView",
    "IOEvent",
    "IORequest",
    "IORequestHandle",
    "IdealPlatform",
    "MPIFileError",
    "MPIUsageError",
    "OP_NAMES",
    "Platform",
    "RankContext",
    "RankFailedError",
    "Resized",
    "RunResult",
    "SimFile",
    "SimFileHandle",
    "SimMPIError",
    "Subarray",
    "Vector",
]
