"""Rank-facing API of the simulated MPI runtime.

A rank program receives a context and calls the usual MPI verbs on it
(``barrier``, ``bcast``, ``allreduce``, ``send``/``recv``, ``compute``
for busy-work, and ``file_open`` for MPI-IO).  Every call is a
scheduling point of the deterministic engine and increments the rank's
*tick* (the paper's logical time unit); ``compute`` advances virtual
time without a tick since it is not an MPI event.

Every verb is a generator that yields op dicts to the engine; rank
programs delegate to it with ``yield from``, so the single-threaded
scheduler can suspend the rank at every op::

    def program(ctx):
        fh = yield from ctx.file_open("data")
        yield from fh.write_at(0, 1024)
        yield from ctx.barrier()
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from .engine import Comm, Engine
from .errors import MPIUsageError
from .fileio import SimFileHandle


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
    def _collective(
        self,
        name: str,
        comm: Comm | None,
        finalize: Callable,
        payload: Any = None,
        **extra: Any,
    ) -> Generator:
        comm = comm or self._engine.world
        op = {
            "kind": "collective",
            "name": name,
            "comm": comm,
            "ticks": 1,
            "payload": payload,
            "finalize": finalize,
        }
        op.update(extra)
        result = yield op
        return result

    def barrier(self, comm: Comm | None = None) -> Generator:
        """Synchronize all ranks of ``comm`` (world by default)."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            dur = platform.comm_time(0, len(ops), "barrier", t0)
            return {r: dur for r in ops}, {r: None for r in ops}

        return (yield from self._collective("barrier", comm, finalize))

    def bcast(self, value: Any = None, root: int = 0, nbytes: int = 8,
              comm: Comm | None = None) -> Generator:
        """Broadcast ``value`` from world-rank ``root``; returns it on all ranks."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            if root not in ops:
                raise MPIUsageError(f"bcast root {root} not in communicator")
            result = ops[root]["payload"]
            dur = platform.comm_time(nbytes, len(ops), "bcast", t0)
            return {r: dur for r in ops}, {r: result for r in ops}

        return (yield from self._collective("bcast", comm, finalize,
                                            payload=value))

    def allreduce(self, value: Any,
                  op: Callable[[Sequence[Any]], Any] = sum,
                  nbytes: int = 8, comm: Comm | None = None) -> Generator:
        """Reduce ``value`` across ranks with ``op`` (sum by default)."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            values = [ops[r]["payload"] for r in sorted(ops)]
            result = op(values)
            dur = platform.comm_time(nbytes, len(ops), "allreduce", t0)
            return {r: dur for r in ops}, {r: result for r in ops}

        return (yield from self._collective("allreduce", comm, finalize,
                                            payload=value))

    def gather(self, value: Any, root: int = 0, nbytes: int = 8,
               comm: Comm | None = None) -> Generator:
        """Gather values to ``root``; returns the list on root, None elsewhere."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            values = [ops[r]["payload"] for r in sorted(ops)]
            dur = platform.comm_time(nbytes * len(ops), len(ops), "gather", t0)
            return (
                {r: dur for r in ops},
                {r: (values if r == root else None) for r in ops},
            )

        return (yield from self._collective("gather", comm, finalize,
                                            payload=value))

    def reduce(self, value: Any, root: int = 0,
               op: Callable[[Sequence[Any]], Any] = sum, nbytes: int = 8,
               comm: Comm | None = None) -> Generator:
        """Reduce to ``root``; returns the result on root, None elsewhere."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            if root not in ops:
                raise MPIUsageError(f"reduce root {root} not in communicator")
            values = [ops[r]["payload"] for r in sorted(ops)]
            result = op(values)
            dur = platform.comm_time(nbytes, len(ops), "reduce", t0)
            return ({r: dur for r in ops},
                    {r: (result if r == root else None) for r in ops})

        return (yield from self._collective("reduce", comm, finalize,
                                            payload=value))

    def scatter(self, values: Sequence[Any] | None = None, root: int = 0,
                nbytes: int = 8, comm: Comm | None = None) -> Generator:
        """Scatter ``values`` (one per comm rank, given on root) from root."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            if root not in ops:
                raise MPIUsageError(f"scatter root {root} not in communicator")
            vals = ops[root]["payload"]
            ranks = sorted(ops)
            if vals is None or len(vals) != len(ranks):
                raise MPIUsageError(
                    f"scatter needs exactly {len(ranks)} values on the root")
            dur = platform.comm_time(nbytes * len(ranks), len(ranks),
                                     "gather", t0)
            return ({r: dur for r in ops},
                    {r: vals[i] for i, r in enumerate(ranks)})

        return (yield from self._collective("scatter", comm, finalize,
                                            payload=values))

    def allgather(self, value: Any, nbytes: int = 8,
                  comm: Comm | None = None) -> Generator:
        """Gather values from all ranks to all ranks."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            values = [ops[r]["payload"] for r in sorted(ops)]
            dur = platform.comm_time(nbytes * len(ops), len(ops),
                                     "alltoall", t0)
            return {r: dur for r in ops}, {r: list(values) for r in ops}

        return (yield from self._collective("allgather", comm, finalize,
                                            payload=value))

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
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            n = len(ops)
            dur = platform.comm_time(nbytes_per_peer * n, n, "alltoall", t0)
            return {r: dur for r in ops}, {r: None for r in ops}

        return (yield from self._collective("alltoall", comm, finalize))

    def split(self, color: int, key: int | None = None,
              comm: Comm | None = None) -> Generator:
        """Split a communicator by ``color`` (like ``MPI_Comm_split``)."""
        platform = self._engine.platform

        def finalize(t0: float, ops: dict[int, Any]):
            groups: dict[int, list[tuple[int, int]]] = {}
            for r in sorted(ops):
                c, k = ops[r]["payload"]
                groups.setdefault(c, []).append((k, r))
            comms: dict[int, Comm] = {}
            results: dict[int, Comm] = {}
            for c, members in groups.items():
                ranks = [r for _, r in sorted(members)]
                comms[c] = Comm(ranks, name=f"split-{c}")
            for r in sorted(ops):
                c, _ = ops[r]["payload"]
                results[r] = comms[c]
            dur = platform.comm_time(8, len(ops), "split", t0)
            return {r: dur for r in ops}, results

        me = key if key is not None else self._rank
        return (yield from self._collective("split", comm, finalize,
                                            payload=(color, me)))

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
        return (yield from SimFileHandle.open(
            self._engine, self, filename, mode=mode, unique=unique,
            comm=comm or self._engine.world))
