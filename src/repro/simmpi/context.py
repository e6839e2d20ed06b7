"""Rank-facing API of the simulated MPI runtime.

A rank program receives a context and calls the usual MPI verbs on it
(``barrier``, ``bcast``, ``allreduce``, ``send``/``recv``, ``compute``
for busy-work, and ``file_open`` for MPI-IO).  Every call is a
scheduling point of the deterministic engine and increments the rank's
*tick* (the paper's logical time unit); ``compute`` advances virtual
time without a tick since it is not an MPI event.

Every verb is a generator that yields one op dict to the engine; rank
programs delegate to it with ``yield from``, so the single-threaded
scheduler can suspend the rank at every op::

    def program(ctx):
        fh = yield from ctx.file_open("data")
        yield from fh.write_at(0, 1024)
        yield from ctx.barrier()

A collective verb's op names a module-level finalizer (``_barrier``,
``_allreduce``, ...).  The engine calls the lowest member's once every
member has arrived, as ``finalize(engine, start, ranks, ops)`` with the
sorted member ranks and ``{rank: op}``; it reads the call's arguments
(``nbytes``, ``root``, the reduction ``op``, the ``comm``) from the
lowest member's op and returns ``({rank: duration}, {rank: result})``.
Values are combined, gathered and scattered in communicator-rank order
(``comm.world_ranks``), as MPI does; roots are world ranks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Generator, Sequence

from .engine import Comm, Engine
from .errors import MPIUsageError
from .fileio import SimFileHandle


def _uniform(engine: Engine, t0: float, ranks: Sequence[int], nbytes: int,
             pattern: str, result: Any = None):
    """Every member takes the same time and gets the same result."""
    dur = engine.platform.comm_time(nbytes, len(ranks), pattern, t0)
    return dict.fromkeys(ranks, dur), dict.fromkeys(ranks, result)


def _barrier(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    return _uniform(engine, t0, ranks, 0, "barrier")


def _rooted(ops: dict, ranks: Sequence[int], verb: str) -> tuple[dict, int]:
    """The lowest member's op and its ``root``, which must be a member."""
    first = ops[ranks[0]]
    if first["root"] not in ops:
        raise MPIUsageError(f"{verb} root {first['root']} not in communicator")
    return first, first["root"]


def _bcast(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    first, root = _rooted(ops, ranks, "bcast")
    return _uniform(engine, t0, ranks, first["nbytes"], "bcast",
                    ops[root]["payload"])


def _allreduce(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    first = ops[ranks[0]]
    result = first["op"]([ops[r]["payload"]
                          for r in first["comm"].world_ranks])
    return _uniform(engine, t0, ranks, first["nbytes"], "allreduce", result)


def _gather(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    first = ops[ranks[0]]
    root = first["root"]
    values = [ops[r]["payload"] for r in first["comm"].world_ranks]
    n = len(ranks)
    dur = engine.platform.comm_time(first["nbytes"] * n, n, "gather", t0)
    return (dict.fromkeys(ranks, dur),
            {r: (values if r == root else None) for r in ranks})


def _reduce(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    first, root = _rooted(ops, ranks, "reduce")
    result = first["op"]([ops[r]["payload"]
                          for r in first["comm"].world_ranks])
    dur = engine.platform.comm_time(first["nbytes"], len(ranks), "reduce", t0)
    return (dict.fromkeys(ranks, dur),
            {r: (result if r == root else None) for r in ranks})


def _scatter(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    first, root = _rooted(ops, ranks, "scatter")
    vals = ops[root]["payload"]
    n = len(ranks)
    if vals is None or len(vals) != n:
        raise MPIUsageError(f"scatter needs exactly {n} values on the root")
    dur = engine.platform.comm_time(first["nbytes"] * n, n, "gather", t0)
    return dict.fromkeys(ranks, dur), dict(zip(first["comm"].world_ranks,
                                               vals))


def _allgather(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    first = ops[ranks[0]]
    values = [ops[r]["payload"] for r in first["comm"].world_ranks]
    n = len(ranks)
    dur = engine.platform.comm_time(first["nbytes"] * n, n, "alltoall", t0)
    return dict.fromkeys(ranks, dur), {r: list(values) for r in ranks}


def _alltoall(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    return _uniform(engine, t0, ranks, ops[ranks[0]]["nbytes"] * len(ranks),
                    "alltoall")


def _split(engine: Engine, t0: float, ranks: Sequence[int], ops: dict):
    # Visit the members in parent-communicator order: a missing key is
    # the parent rank, and the stable sort breaks key ties by it.
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, r in enumerate(ops[ranks[0]]["comm"].world_ranks):
        c, k = ops[r]["payload"]
        groups.setdefault(c, []).append((i if k is None else k, r))
    comms = {c: Comm([r for _, r in sorted(members, key=itemgetter(0))],
                     name=f"split-{c}")
             for c, members in groups.items()}
    dur = engine.platform.comm_time(8, len(ranks), "split", t0)
    return (dict.fromkeys(ranks, dur),
            {r: comms[ops[r]["payload"][0]] for r in ranks})


class RankContext:
    """The MPI world as seen by a single rank."""

    def __init__(self, engine: Engine, rank: int):
        self._engine = engine
        self._rank = rank

    # -- identity --------------------------------------------------------------
    @property
    def rank(self) -> int:
        """World rank of this process (the paper's ``idP``)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the world communicator (``np``)."""
        return self._engine.nprocs

    @property
    def world(self) -> Comm:
        return self._engine.world

    @property
    def clock(self) -> float:
        """Current virtual time of this rank, in seconds."""
        return self._engine._states[self._rank].clock

    @property
    def tick(self) -> int:
        """Logical event counter of this rank (paper's ``tick``)."""
        return self._engine._states[self._rank].tick

    # -- computation -------------------------------------------------------------
    def compute(self, seconds: float) -> Generator:
        """Busy-work: advance virtual time without an MPI event (no tick)."""
        if seconds < 0:
            raise MPIUsageError(f"compute time must be >= 0, got {seconds}")
        yield {"kind": "local", "ticks": 0,
               "fn": lambda start: (seconds, None)}

    # -- collectives --------------------------------------------------------------
    def barrier(self, comm: Comm | None = None) -> Generator:
        """Synchronize all ranks of ``comm`` (world by default)."""
        return (yield {"kind": "collective", "name": "barrier",
                       "comm": comm or self._engine.world,
                       "finalize": _barrier})

    def bcast(self, value: Any = None, root: int = 0, nbytes: int = 8,
              comm: Comm | None = None) -> Generator:
        """Broadcast ``value`` from world-rank ``root``; returns it on all ranks."""
        return (yield {"kind": "collective", "name": "bcast",
                       "comm": comm or self._engine.world, "payload": value,
                       "finalize": _bcast, "root": root, "nbytes": nbytes})

    def allreduce(self, value: Any,
                  op: Callable[[Sequence[Any]], Any] = sum,
                  nbytes: int = 8, comm: Comm | None = None) -> Generator:
        """Reduce ``value`` across ranks with ``op`` (sum by default)."""
        return (yield {"kind": "collective", "name": "allreduce",
                       "comm": comm or self._engine.world, "payload": value,
                       "finalize": _allreduce, "op": op, "nbytes": nbytes})

    def gather(self, value: Any, root: int = 0, nbytes: int = 8,
               comm: Comm | None = None) -> Generator:
        """Gather values to ``root``; returns the list on root, None elsewhere."""
        return (yield {"kind": "collective", "name": "gather",
                       "comm": comm or self._engine.world, "payload": value,
                       "finalize": _gather, "root": root, "nbytes": nbytes})

    def reduce(self, value: Any, root: int = 0,
               op: Callable[[Sequence[Any]], Any] = sum, nbytes: int = 8,
               comm: Comm | None = None) -> Generator:
        """Reduce to ``root``; returns the result on root, None elsewhere."""
        return (yield {"kind": "collective", "name": "reduce",
                       "comm": comm or self._engine.world, "payload": value,
                       "finalize": _reduce, "root": root, "op": op,
                       "nbytes": nbytes})

    def scatter(self, values: Sequence[Any] | None = None, root: int = 0,
                nbytes: int = 8, comm: Comm | None = None) -> Generator:
        """Scatter ``values`` (one per comm rank, given on root) from root."""
        return (yield {"kind": "collective", "name": "scatter",
                       "comm": comm or self._engine.world, "payload": values,
                       "finalize": _scatter, "root": root, "nbytes": nbytes})

    def allgather(self, value: Any, nbytes: int = 8,
                  comm: Comm | None = None) -> Generator:
        """Gather values from all ranks to all ranks."""
        return (yield {"kind": "collective", "name": "allgather",
                       "comm": comm or self._engine.world, "payload": value,
                       "finalize": _allgather, "nbytes": nbytes})

    def sendrecv(self, dest: int, source: int, nbytes: int = 8,
                 tag: int = 0, payload: Any = None) -> Generator:
        """Combined send-to-dest / receive-from-source (deadlock-free).

        Implemented as two rendezvous halves ordered by rank parity so a
        ring of sendrecvs (the classic halo exchange) cannot deadlock.
        """
        if dest == source == self._rank:
            raise MPIUsageError("sendrecv with self on both sides")
        if self._rank % 2 == 0:
            yield from self.send(dest, nbytes, tag=tag, payload=payload)
            return (yield from self.recv(source, tag=tag))
        received = yield from self.recv(source, tag=tag)
        yield from self.send(dest, nbytes, tag=tag, payload=payload)
        return received

    def alltoall(self, nbytes_per_peer: int = 8,
                 comm: Comm | None = None) -> Generator:
        """Model an all-to-all exchange of ``nbytes_per_peer`` per pair."""
        return (yield {"kind": "collective", "name": "alltoall",
                       "comm": comm or self._engine.world,
                       "finalize": _alltoall, "nbytes": nbytes_per_peer})

    def split(self, color: int, key: int | None = None,
              comm: Comm | None = None) -> Generator:
        """Split a communicator by ``color`` (like ``MPI_Comm_split``).

        Members are ordered by ``key``, then by their rank in ``comm``;
        the default key is that rank.
        """
        return (yield {"kind": "collective", "name": "split",
                       "comm": comm or self._engine.world,
                       "payload": (color, key), "finalize": _split})

    # -- point-to-point --------------------------------------------------------------
    def send(self, peer: int, nbytes: int, tag: int = 0,
             payload: Any = None) -> Generator:
        """Synchronous send of ``nbytes`` to world-rank ``peer``."""
        self._check_peer(peer)
        yield {"kind": "p2p", "role": "send", "peer": peer, "tag": tag,
               "nbytes": nbytes, "payload": payload, "ticks": 1}

    def recv(self, peer: int, tag: int = 0) -> Generator:
        """Blocking receive from world-rank ``peer``; returns the payload."""
        self._check_peer(peer)
        return (yield {"kind": "p2p", "role": "recv", "peer": peer,
                       "tag": tag, "nbytes": 0, "ticks": 1})

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self._engine.nprocs):
            raise MPIUsageError(f"peer rank {peer} out of range [0, {self._engine.nprocs})")
        if peer == self._rank:
            raise MPIUsageError("send/recv to self would deadlock a rendezvous pair")

    # -- MPI-IO ------------------------------------------------------------------------
    def file_open(self, filename: str, mode: str = "rw",
                  unique: bool = False,
                  comm: Comm | None = None) -> Generator:
        """Open a file; ``unique=True`` opens a per-process file (``name.<rank>``).

        A shared open (the default) is collective over ``comm`` and all
        ranks obtain handles onto the same simulated file, mirroring
        ``MPI_File_open`` on a communicator.
        """
        return SimFileHandle.open(
            self._engine, self, filename, mode=mode, unique=unique,
            comm=comm or self._engine.world)
