"""Deterministic discrete-event SPMD engine.

This module is the substitute for a real MPI runtime (mpich2/OpenMPI in
the paper).  The engine enforces *strict one-at-a-time* execution: a
rank runs only between two MPI calls, and every MPI call is a
scheduling point.  The scheduler always resumes the rank with the
smallest ``(virtual clock, rank id)``, so a whole run is a pure function
of the program -- identical traces on every execution (verified by the
determinism tests).

Every rank program is a generator: each MPI verb of the rank's
:class:`~repro.simmpi.context.RankContext` yields one op dict, and the
program delegates to it with ``yield from ctx.<verb>(...)``.  One
single-threaded event loop resumes the ranks with ``gen.send`` and
processes each yielded op on the spot -- no threads, no locks, one
dispatch per simulated MPI call.  A collective op carries a
module-level ``finalize`` function; when the last member arrives the
engine calls the lowest rank's one, which reads its arguments from the
members' ops.

Virtual time is tracked per rank in seconds; *ticks* are per-rank logical
event counters incremented at every MPI event, exactly the logical time
unit the paper uses to order I/O and communication events (Table I,
Fig. 2).

The engine delegates all costs to a :class:`Platform`: the I/O subsystem
simulator (``repro.iosim.Cluster``) in real studies, or the trivial
:class:`IdealPlatform` in unit tests.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from repro import obs

from .errors import (
    CollectiveMismatch,
    DeadlockError,
    MPIUsageError,
    RankFailedError,
    SimMPIError,
)

# Rank statuses -------------------------------------------------------------
_INIT = "init"
_RUNNING = "running"
_IN_COLLECTIVE = "in_collective"  # arrived at a collective, peers missing
_WAITING_RESUME = "waiting_resume"  # op processed, waiting to be resumed
_DONE = "done"
_FAILED = "failed"


@dataclass(slots=True)
class IORequest:
    """One rank's part of an I/O operation, as seen by the platform.

    ``runs`` are absolute ``(offset, length)`` byte ranges in the file --
    already mapped through the rank's file view.  ``runs`` is fixed at
    construction (only ``start`` is mutated at service time); ``nbytes``
    is their total, summed once here unless the caller passes it.
    """

    rank: int
    node: int
    filename: str
    file_id: int
    kind: str  # "write" | "read"
    runs: list[tuple[int, int]]
    start: float
    collective: bool = False
    unique_file: bool = False
    nbytes: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.nbytes is None:
            self.nbytes = sum(length for _, length in self.runs)


class Platform(Protocol):
    """Cost model the engine charges MPI and I/O operations against."""

    def service_io(self, req: IORequest) -> float:
        """Duration (s) of one independent I/O request starting at req.start."""
        ...

    def service_collective_io(self, reqs: Sequence[IORequest], start: float) -> dict[int, float]:
        """Durations per rank for a collective I/O op entered together at start."""
        ...

    def comm_time(self, nbytes: int, nranks: int, pattern: str, start: float) -> float:
        """Duration of a communication op (barrier/bcast/allreduce/p2p)."""
        ...

    def node_of_rank(self, rank: int, nranks: int) -> int:
        """Compute node hosting a rank (placement policy)."""
        ...


class IdealPlatform:
    """Flat-cost platform for unit tests: fixed bandwidth, zero contention."""

    def __init__(self, bw_bytes_per_s: float = 100e6, latency: float = 1e-4):
        self.bw = float(bw_bytes_per_s)
        self.latency = float(latency)

    def fingerprint(self) -> tuple:
        """Structural identity for memoization (see repro.core.cache)."""
        return ("IdealPlatform", self.bw, self.latency)

    def service_io(self, req: IORequest) -> float:
        return self.latency + req.nbytes / self.bw

    def service_collective_io(self, reqs: Sequence[IORequest], start: float) -> dict[int, float]:
        total = sum(r.nbytes for r in reqs)
        dur = self.latency + total / self.bw
        return {r.rank: dur for r in reqs}

    def comm_time(self, nbytes: int, nranks: int, pattern: str, start: float) -> float:
        return self.latency + nbytes / self.bw

    def node_of_rank(self, rank: int, nranks: int) -> int:
        return rank


@dataclass(slots=True)
class _RankState:
    rank: int
    clock: float = 0.0
    tick: int = 0
    status: str = _INIT
    op_result: Any = None
    exception: BaseException | None = None
    #: communicator id -> index of this rank's next collective on it
    coll_index: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class _Collective:
    """An in-flight collective instance on one communicator."""

    op: str
    comm: "Comm"
    arrived: dict[int, Any] = field(default_factory=dict)


class Comm:
    """A communicator: an ordered set of world ranks.

    ``world_ranks`` lists the members in communicator-rank order (the
    order ``split`` derives from its ``key``), and ``rank(world_rank)``
    gives the rank *within* the communicator.  The engine keys
    collective matching on the communicator identity plus a per-rank
    entry counter, and raises :class:`CollectiveMismatch` when members
    disagree on the operation.
    """

    _next_id = 0

    def __init__(self, world_ranks: Sequence[int], name: str = "comm"):
        if len(set(world_ranks)) != len(world_ranks):
            raise MPIUsageError("communicator ranks must be unique")
        self.world_ranks = tuple(world_ranks)
        #: The members by world rank: finalizers read the lowest one's op.
        self._sorted = tuple(sorted(self.world_ranks))
        self._members = frozenset(self.world_ranks)
        self.name = name
        self.cid = Comm._next_id
        Comm._next_id += 1

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def rank(self, world_rank: int) -> int:
        try:
            return self.world_ranks.index(world_rank)
        except ValueError:
            raise MPIUsageError(
                f"world rank {world_rank} is not in communicator {self.name}"
            ) from None

    def __contains__(self, world_rank: int) -> bool:
        return world_rank in self._members

    def __repr__(self) -> str:  # pragma: no cover
        return f"Comm({self.name}, size={self.size})"


class RunResult:
    """Outcome of an engine run: per-rank virtual times and event counts."""

    def __init__(self, clocks: dict[int, float], ticks: dict[int, int]):
        self.clocks = clocks
        self.ticks = ticks

    @property
    def elapsed(self) -> float:
        """Virtual makespan of the run (max rank clock)."""
        return max(self.clocks.values()) if self.clocks else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"RunResult(elapsed={self.elapsed:.6f}s, nprocs={len(self.clocks)})"


class Engine:
    """Runs an SPMD program of ``nprocs`` ranks over a :class:`Platform`.

    Usage::

        eng = Engine(nprocs=4, platform=IdealPlatform())
        result = eng.run(program)   # generator program(ctx) per rank

    Event hooks (``add_io_hook``) observe every I/O operation with the full
    record the paper's tracer needs.
    """

    def __init__(self, nprocs: int, platform: Platform | None = None):
        if nprocs <= 0:
            raise MPIUsageError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self.platform: Platform = platform if platform is not None else IdealPlatform()
        self._states = [_RankState(r) for r in range(nprocs)]
        self._collectives: dict[tuple, _Collective] = {}
        self._p2p_queues: dict[tuple, list] = {}  # (src, dst, tag) -> waiting ops
        self._io_hooks: list[Callable[..., None]] = []
        self._files: dict[str, Any] = {}  # filename -> fileio.SimFile
        self._next_file_id = 0
        self.world = Comm(range(nprocs), name="world")
        # Lazy-deletion ready heap of (clock, rank), see _run.
        self._ready: list[tuple[float, int]] = []

    # -- hooks ---------------------------------------------------------------
    def add_io_hook(self, hook: Callable[..., None]) -> None:
        """Register ``hook(record)`` called after every I/O event (IOEvent)."""
        self._io_hooks.append(hook)

    def emit_io_event(self, record: Any) -> None:
        for hook in self._io_hooks:
            hook(record)
        if obs.ACTIVE:
            obs.observe_io_event(record)

    # -- file registry (used by fileio) ---------------------------------------
    def get_file(self, filename: str, factory: Callable[[int], Any]) -> Any:
        if filename not in self._files:
            self._files[filename] = factory(self._next_file_id)
            self._next_file_id += 1
        return self._files[filename]

    @property
    def files(self) -> dict[str, Any]:
        return dict(self._files)

    # -- main entry ------------------------------------------------------------
    def run(self, program: Callable, *args: Any) -> RunResult:
        """Execute ``program(ctx, *args)`` on every rank; return RunResult.

        ``program(ctx, *args)`` must return a generator (a function
        using ``yield from ctx...``, or any callable returning one, such
        as a lambda or ``functools.partial`` around such a function);
        anything else raises :class:`MPIUsageError` before any op runs.
        """
        from .context import RankContext  # local import to avoid cycle

        gens = [program(RankContext(self, st.rank), *args)
                for st in self._states]
        for gen in gens:
            if not isinstance(gen, Generator):
                raise MPIUsageError(
                    f"rank program {program!r} returned "
                    f"{type(gen).__name__}, not a generator: rank programs "
                    "call MPI verbs as 'yield from ctx.<verb>(...)'")
        if obs.ACTIVE:
            obs.inc("engine_runs_total")
        run_span = obs.span("engine.run", cat="engine", nprocs=self.nprocs,
                            platform=type(self.platform).__name__)
        with run_span:
            self._run(gens)
        return self._collect_result(run_span)

    def _collect_result(self, run_span: Any) -> RunResult:
        failed = [st for st in self._states if st.status == _FAILED]
        if failed:
            st = failed[0]
            assert st.exception is not None
            if isinstance(st.exception, SimMPIError):
                raise st.exception
            raise RankFailedError(st.rank, st.exception) from st.exception
        run_span.annotate(
            elapsed=max((st.clock for st in self._states), default=0.0))
        return RunResult(
            clocks={st.rank: st.clock for st in self._states},
            ticks={st.rank: st.tick for st in self._states},
        )

    # -- scheduler -------------------------------------------------------------
    def _run(self, gens: list[Generator]) -> None:
        """Single-threaded event loop over the ranks' generators.

        ``_WAITING_RESUME`` means "has an op result to consume";
        resuming is a plain ``gen.send`` (or ``gen.throw`` for a failed
        op).  The loop always resumes the runnable rank with the
        smallest ``(clock, rank)`` and processes the op it yields right
        away: the rank's clock did not move while it ran and nothing was
        enqueued, so it is still the minimum.
        """
        states = self._states
        # Lazy-deletion ready heap of (clock, rank): every rank gets an
        # entry each time it becomes runnable (startup or `_wake`), and a
        # rank's clock never changes *while* runnable, so the smallest
        # non-stale entry is exactly the min (clock, rank) pick, in
        # O(log n) per step.
        heap = self._ready = []
        heappush, heappop = heapq.heappush, heapq.heappop
        for st in states:
            st.status = _WAITING_RESUME
            st.op_result = None
            heappush(heap, (st.clock, st.rank))
        n_done = 0
        process_op = self._process_op
        try:
            while True:
                while heap:
                    clock, rank = heappop(heap)
                    st = states[rank]
                    if st.status is _WAITING_RESUME and st.clock == clock:
                        break
                else:
                    if n_done == len(states):
                        return
                    blocked = [s.rank for s in states
                               if s.status == _IN_COLLECTIVE]
                    raise DeadlockError(
                        f"no runnable rank; ranks {blocked} blocked in collectives "
                        f"{sorted((c.op, sorted(c.arrived)) for c in self._collectives.values())}"
                    )
                # Feed the op result to the rank's generator; it runs
                # until its next yielded op (or ends).
                result, st.op_result = st.op_result, None
                st.status = _RUNNING
                try:
                    if isinstance(result, BaseException):
                        op = gens[rank].throw(result)
                    else:
                        op = gens[rank].send(result)
                except StopIteration:
                    st.status = _DONE
                    n_done += 1
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    st.exception = exc
                    st.status = _FAILED
                    return
                else:
                    process_op(st, op)  # re-enqueues via _wake
        finally:
            for st in states:
                if st.status not in (_DONE, _FAILED):
                    gens[st.rank].close()

    def _wake(self, st: _RankState) -> None:
        """Mark a rank runnable and enqueue it (clock and op_result final)."""
        st.status = _WAITING_RESUME
        heapq.heappush(self._ready, (st.clock, st.rank))

    def _process_op(self, st: _RankState, op: Any) -> None:
        kind = op["kind"]
        if obs.ACTIVE:
            obs.inc("engine_ops_total", kind=kind)
        if kind == "collective":
            self._arrive_collective(st, op)
        elif kind == "local":
            # op["fn"](start) -> (duration, result); ticks charged as given.
            duration, result = op["fn"](st.clock)
            st.clock += duration
            st.tick += op["ticks"]
            st.op_result = result
            self._wake(st)
        elif kind == "p2p":
            self._arrive_p2p(st, op)
        else:  # pragma: no cover - defensive
            st.op_result = MPIUsageError(f"unknown op kind {kind!r}")
            self._wake(st)

    # -- point-to-point -------------------------------------------------------
    def _arrive_p2p(self, st: _RankState, op: Any) -> None:
        """Synchronous (rendezvous) send/recv matching by (src, dst, tag)."""
        if op["role"] == "send":
            key = (st.rank, op["peer"], op["tag"])
        else:
            key = (op["peer"], st.rank, op["tag"])
        queue = self._p2p_queues.setdefault(key, [])
        # A match is a queued op from the *other* role.
        for i, (peer_st, peer_op) in enumerate(queue):
            if peer_op["role"] != op["role"]:
                del queue[i]
                self._finalize_p2p(key, (peer_st, peer_op), (st, op))
                return
        queue.append((st, op))
        st.status = _IN_COLLECTIVE

    def _finalize_p2p(self, key: tuple, a: tuple, b: tuple) -> None:
        (st_a, op_a), (st_b, op_b) = a, b
        send_op = op_a if op_a["role"] == "send" else op_b
        t0 = max(st_a.clock, st_b.clock)
        dur = self.platform.comm_time(send_op["nbytes"], 2, "p2p", t0)
        if obs.ACTIVE:
            src, dst, _tag = key
            obs.observe_p2p(src, dst, t0, dur, send_op["nbytes"])
        for st, op in (a, b):
            st.clock = t0 + dur
            st.tick += op.get("ticks", 1)
            st.op_result = send_op.get("payload")
            self._wake(st)

    # -- collectives ---------------------------------------------------------------
    def _arrive_collective(self, st: _RankState, op: Any) -> None:
        comm: Comm = op["comm"]
        rank = st.rank
        if rank not in comm._members:
            st.op_result = MPIUsageError(
                f"rank {rank} called a collective on {comm!r} it does not belong to"
            )
            self._wake(st)
            return
        cid = comm.cid
        coll_index = st.coll_index
        index = coll_index.get(cid, 0)
        coll_index[cid] = index + 1
        key = (cid, index)
        name = op["name"]
        coll = self._collectives.get(key)
        if coll is None:
            coll = self._collectives[key] = _Collective(name, comm)
        elif coll.op != name:
            err = CollectiveMismatch(
                f"collective #{index} on {comm!r}: rank {rank} called "
                f"{name!r} but peers called {coll.op!r}"
            )
            # Fail everyone involved to unblock the run.
            st.op_result = err
            self._wake(st)
            for r in coll.arrived:
                peer = self._states[r]
                peer.op_result = err
                self._wake(peer)
            del self._collectives[key]
            return
        arrived = coll.arrived
        arrived[rank] = op
        st.status = _IN_COLLECTIVE
        # Arrivals are membership-checked and at most one per rank per
        # index, so counting replaces a set comparison.
        if len(arrived) == len(comm._members):
            del self._collectives[key]
            self._finalize_collective(coll)

    def _finalize_collective(self, coll: _Collective) -> None:
        ops = coll.arrived
        # Every member arrived: the sorted member list is the comm's own.
        ranks = coll.comm._sorted
        states = self._states
        parts = [states[r] for r in ranks]
        t0 = max([p.clock for p in parts])
        # finalize(engine, start, ranks, {rank: op})
        #   -> ({rank: duration}, {rank: result})
        durations, results = ops[ranks[0]]["finalize"](self, t0, ranks, ops)
        if obs.ACTIVE:
            obs.observe_collective(coll.op, t0, durations)
        ready = self._ready
        heappush = heapq.heappush
        for p in parts:
            rank = p.rank
            p.clock = clock = t0 + durations.get(rank, 0.0)
            p.tick += 1  # a collective is one MPI event
            p.op_result = results.get(rank)
            p.status = _WAITING_RESUME  # _wake, inlined
            heappush(ready, (clock, rank))
