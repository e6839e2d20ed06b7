"""Deterministic discrete-event SPMD engine.

This module is the substitute for a real MPI runtime (mpich2/OpenMPI in
the paper).  The engine enforces *strict one-at-a-time* execution: a
rank runs only between two MPI calls, and every MPI call is a
scheduling point.  The scheduler always acts on the rank with the
smallest ``(virtual clock, rank id)``, so a whole run is a pure function
of the program -- identical traces on every execution (verified by the
determinism tests).

Two schedulers implement that contract:

* the **coroutine scheduler** (default for generator rank programs):
  every rank is a generator that *yields* op dicts to a single-threaded
  event loop -- no threads, no locks, near-zero cost per simulated MPI
  call.  Rank programs use ``yield from ctx.<verb>(...)`` with a
  :class:`~repro.simmpi.context.CoroContext`.
* the **threaded scheduler** (plain-callable rank programs): each rank
  runs as a Python thread that blocks in :meth:`Engine.submit` between
  MPI calls.  It predates the coroutine core and remains for programs
  that cannot be expressed as generators.

Both paths share the op-processing machinery (:meth:`Engine._process_op`
and the collective/p2p matching), so a generator program produces
bit-identical traces, clocks and ticks under either scheduler
(``mode="threads"`` forces the threaded path for the equivalence tests).

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
import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Protocol, Sequence

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
_WAITING_SCHED = "waiting_sched"  # posted an op, waiting for it to be processed
_IN_COLLECTIVE = "in_collective"  # arrived at a collective, peers missing
_WAITING_RESUME = "waiting_resume"  # op processed, waiting for CPU handoff
_DONE = "done"
_FAILED = "failed"


@dataclass
class IORequest:
    """One rank's part of an I/O operation, as seen by the platform.

    ``runs`` are absolute ``(offset, length)`` byte ranges in the file --
    already mapped through the rank's file view.
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
    nbytes: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # ``runs`` is fixed at construction (only ``start`` is mutated at
        # service time), so the byte count is computed once, eagerly.
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


@dataclass
class _RankState:
    rank: int
    clock: float = 0.0
    tick: int = 0
    status: str = _INIT
    pending: Any = None
    op_result: Any = None
    resume_event: threading.Event = field(default_factory=threading.Event)
    thread: threading.Thread | None = None
    exception: BaseException | None = None


@dataclass
class _Collective:
    """An in-flight collective instance on one communicator."""

    op: str
    expected: frozenset[int]
    arrived: dict[int, Any] = field(default_factory=dict)


class Comm:
    """A communicator: an ordered set of world ranks.

    ``rank(world_rank)`` gives the rank *within* the communicator.  The
    engine keys collective matching on the communicator identity plus a
    per-rank entry counter, and raises :class:`CollectiveMismatch` when
    members disagree on the operation.
    """

    _next_id = 0

    def __init__(self, world_ranks: Sequence[int], name: str = "comm"):
        if len(set(world_ranks)) != len(world_ranks):
            raise MPIUsageError("communicator ranks must be unique")
        self.world_ranks = tuple(sorted(world_ranks))
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
        result = eng.run(program)         # program(ctx) per rank

    Event hooks (``add_io_hook``) observe every I/O operation with the full
    record the paper's tracer needs.
    """

    def __init__(self, nprocs: int, platform: Platform | None = None,
                 mode: str = "auto"):
        if nprocs <= 0:
            raise MPIUsageError(f"nprocs must be positive, got {nprocs}")
        if mode not in ("auto", "coro", "threads"):
            raise MPIUsageError(
                f"mode must be 'auto', 'coro' or 'threads', got {mode!r}")
        self.nprocs = nprocs
        self.mode = mode
        self.platform: Platform = platform if platform is not None else IdealPlatform()
        self._states = [_RankState(r) for r in range(nprocs)]
        self._sched_event = threading.Event()
        self._collectives: dict[tuple, _Collective] = {}
        self._coll_counts: dict[tuple, int] = {}
        self._p2p_queues: dict[tuple, list] = {}  # (src, dst, tag) -> waiting ops
        self._io_hooks: list[Callable[..., None]] = []
        self._files: dict[str, Any] = {}  # filename -> fileio.SimFile
        self._next_file_id = 0
        self.world = Comm(range(nprocs), name="world")
        self._abort = False
        # Coroutine-scheduler ready heap; None under the threaded
        # scheduler, whose loop scans statuses itself.
        self._woken: list[tuple[float, int]] | None = None

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

        Generator programs (``yield from ctx...``) run on the
        single-threaded coroutine scheduler; plain callables run on the
        threaded scheduler.  ``mode="threads"`` forces a generator
        program onto the threaded path (for equivalence testing);
        ``mode="coro"`` rejects plain callables, which cannot be
        suspended without a thread.
        """
        is_gen = inspect.isgeneratorfunction(program)
        mode = self.mode
        if mode == "auto":
            mode = "coro" if is_gen else "threads"
        if mode == "coro" and not is_gen:
            raise MPIUsageError(
                "the coroutine scheduler needs a generator rank program "
                "(one using 'yield from ctx...'); plain callables require "
                "mode='threads'")
        if obs.ACTIVE:
            obs.inc("engine_runs_total")
        run_span = obs.span("engine.run", cat="engine", nprocs=self.nprocs,
                            platform=type(self.platform).__name__,
                            scheduler=mode)
        if mode == "coro":
            with run_span:
                self._run_coro(program, args)
        else:
            self._run_threads(program, args, is_gen, run_span)
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

    # -- coroutine scheduler -----------------------------------------------------
    def _run_coro(self, program: Callable, args: tuple) -> None:
        """Single-threaded event loop over generator rank programs.

        Every rank is a generator; ``_WAITING_RESUME`` means "has an op
        result to consume", and resuming is a plain ``gen.send`` instead
        of a condition-variable handoff.  The pick rule and the op
        processing are exactly the threaded scheduler's, so both paths
        produce identical traces.
        """
        from .context import CoroContext  # local import to avoid cycle

        states = self._states
        gens: dict[int, Generator] = {}
        # Lazy-deletion ready heap of (clock, rank): every rank gets an
        # entry each time it becomes runnable (startup, `_wake`, or after
        # posting an op below), and a rank's clock never changes *while*
        # runnable, so the smallest non-stale entry is exactly the
        # threaded scheduler's pick -- min (clock, rank) -- in O(log n)
        # per step instead of an O(n) scan.
        heap: list[tuple[float, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        heappushpop = heapq.heappushpop
        self._woken = heap
        for st in states:
            gens[st.rank] = program(CoroContext(self, st.rank), *args)
            st.status = _WAITING_RESUME
            st.op_result = None
            heappush(heap, (st.clock, st.rank))
        n_done = 0
        # A rank that just posted an op was the minimum when it was popped
        # and nothing was enqueued while it ran, so it goes back through
        # heappushpop: one comparison hands it straight back.
        handoff = None
        try:
            while True:
                st = None
                while heap or handoff:
                    clock, rank = (heappushpop(heap, handoff) if handoff
                                   else heappop(heap))
                    handoff = None
                    cand = states[rank]
                    status = cand.status
                    if ((status is _WAITING_SCHED
                         or status is _WAITING_RESUME)
                            and cand.clock == clock):
                        st = cand
                        break
                if st is None:
                    if n_done == len(states):
                        return
                    blocked = [s.rank for s in states
                               if s.status == _IN_COLLECTIVE]
                    raise DeadlockError(
                        f"no runnable rank; ranks {blocked} blocked in collectives "
                        f"{sorted((c.op, sorted(c.arrived)) for c in self._collectives.values())}"
                    )
                if st.status is _WAITING_SCHED:
                    self._process_op(st)  # re-enqueues via _wake
                    continue
                # _WAITING_RESUME: feed the op result to the rank's
                # generator; it runs until its next yielded op (or ends).
                result, st.op_result = st.op_result, None
                st.status = _RUNNING
                try:
                    if isinstance(result, BaseException):
                        op = gens[st.rank].throw(result)
                    else:
                        op = gens[st.rank].send(result)
                except StopIteration:
                    st.status = _DONE
                    n_done += 1
                except _AbortRun:
                    st.status = _DONE
                    n_done += 1
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    st.exception = exc
                    st.status = _FAILED
                    return
                else:
                    st.pending = op
                    st.status = _WAITING_SCHED
                    handoff = (st.clock, st.rank)
        finally:
            self._woken = None
            for st in states:
                if st.status not in (_DONE, _FAILED):
                    gens[st.rank].close()

    # -- threaded scheduler -------------------------------------------------------
    def _run_threads(self, program: Callable, args: tuple, is_gen: bool,
                     run_span: Any) -> None:
        from .context import CoroContext, RankContext  # avoid cycle

        if is_gen:
            # Drive the generator from a per-rank thread: each yielded op
            # goes through the same blocking ``submit`` a plain program
            # would use, which is what makes the two schedulers
            # trace-equivalent on the same program.
            def entry(ctx: Any, *a: Any) -> None:
                drive_blocking(self, ctx.rank, program(ctx, *a))

            contexts: list[Any] = [CoroContext(self, r)
                                   for r in range(self.nprocs)]
        else:
            entry = program
            contexts = [RankContext(self, r) for r in range(self.nprocs)]
        for st, ctx in zip(self._states, contexts):
            st.thread = threading.Thread(
                target=self._thread_main,
                args=(st, entry, ctx, args),
                name=f"simmpi-rank-{st.rank}",
                daemon=True,
            )
            st.status = _WAITING_RESUME
            st.thread.start()

        try:
            with run_span:
                self._scheduler_loop()
        finally:
            self._abort = True
            for st in self._states:
                st.resume_event.set()
            for st in self._states:
                if st.thread is not None:
                    st.thread.join(timeout=5.0)

    # -- rank thread ------------------------------------------------------------
    def _thread_main(self, st: _RankState, program: Callable, ctx: Any, args: tuple) -> None:
        st.resume_event.wait()
        st.resume_event.clear()
        if self._abort:
            st.status = _DONE
            self._sched_event.set()
            return
        try:
            program(ctx, *args)
            st.status = _DONE
        except _AbortRun:
            st.status = _DONE
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            st.exception = exc
            st.status = _FAILED
        finally:
            self._sched_event.set()

    def submit(self, rank: int, op: Any) -> Any:
        """Called from a rank thread: post an op and block until processed+resumed."""
        st = self._states[rank]
        st.pending = op
        st.status = _WAITING_SCHED
        self._sched_event.set()
        st.resume_event.wait()
        st.resume_event.clear()
        if self._abort:
            raise _AbortRun()
        st.status = _RUNNING
        result, st.op_result = st.op_result, None
        if isinstance(result, BaseException):
            raise result
        return result

    # -- scheduler ---------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        states = self._states
        while True:
            if any(st.status == _FAILED for st in states):
                return
            if all(st.status == _DONE for st in states):
                return
            actionable = [
                st for st in states if st.status in (_WAITING_SCHED, _WAITING_RESUME)
            ]
            if not actionable:
                if any(st.status == _RUNNING for st in states):
                    # A thread is between states; wait for it to post.
                    self._sched_event.wait()
                    self._sched_event.clear()
                    continue
                blocked = [st.rank for st in states if st.status == _IN_COLLECTIVE]
                raise DeadlockError(
                    f"no runnable rank; ranks {blocked} blocked in collectives "
                    f"{sorted((c.op, sorted(c.arrived)) for c in self._collectives.values())}"
                )
            st = min(actionable, key=lambda s: (s.clock, s.rank))
            if st.status == _WAITING_SCHED:
                self._process_op(st)
            else:  # _WAITING_RESUME: hand the CPU to this rank
                st.status = _RUNNING
                self._sched_event.clear()
                st.resume_event.set()
                self._sched_event.wait()
                self._sched_event.clear()

    def _wake(self, st: _RankState) -> None:
        """Mark a rank runnable (clock and op_result must be final).

        Under the coroutine scheduler this also enqueues the rank on
        the ready heap; the threaded scheduler's loop scans statuses
        itself and ignores the heap.
        """
        st.status = _WAITING_RESUME
        if self._woken is not None:
            heapq.heappush(self._woken, (st.clock, st.rank))

    def _process_op(self, st: _RankState) -> None:
        op = st.pending
        st.pending = None
        kind = op["kind"]
        if obs.ACTIVE:
            obs.inc("engine_ops_total", kind=kind)
        if kind == "local":
            # op["fn"](start) -> (duration, result); ticks charged as given.
            duration, result = op["fn"](st.clock)
            st.clock += duration
            st.tick += op.get("ticks", 1)
            st.op_result = result
            self._wake(st)
        elif kind == "collective":
            self._arrive_collective(st, op)
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
        count_key = (comm.cid, rank)
        index = self._coll_counts.get(count_key, 0)
        self._coll_counts[count_key] = index + 1
        key = (comm.cid, index)
        name = op["name"]
        coll = self._collectives.get(key)
        if coll is None:
            coll = self._collectives[key] = _Collective(name, comm._members)
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
        if len(arrived) == len(coll.expected):
            del self._collectives[key]
            self._finalize_collective(coll)

    def _finalize_collective(self, coll: _Collective) -> None:
        ops = coll.arrived
        states = self._states
        parts = [states[r] for r in sorted(ops)]
        t0 = max([p.clock for p in parts])
        # finalize(start, {rank: op}) -> ({rank: duration}, {rank: result})
        durations, results = ops[parts[0].rank]["finalize"](t0, ops)
        if obs.ACTIVE:
            obs.observe_collective(coll.op, t0, durations)
        woken = self._woken
        for p in parts:
            rank = p.rank
            p.clock = clock = t0 + durations.get(rank, 0.0)
            p.tick += ops[rank].get("ticks", 1)
            p.op_result = results.get(rank)
            p.status = _WAITING_RESUME  # _wake, inlined
            if woken is not None:
                heapq.heappush(woken, (clock, rank))


class _AbortRun(BaseException):
    """Internal: unwinds rank threads when the run is torn down."""


def drive_blocking(engine: Engine, rank: int, gen: Generator) -> Any:
    """Run a generator of ops to completion via blocking ``Engine.submit``.

    This is the bridge between the generator-core MPI verbs and the two
    execution styles: the blocking API (:class:`~repro.simmpi.context.
    RankContext`) drives each verb's generator through ``submit`` from
    the calling rank thread, and the threaded scheduler uses it to run
    whole generator programs for the golden-trace equivalence tests.

    Exceptions produced by an op are thrown *into* the generator so
    program-level handlers and ``finally`` blocks behave exactly as they
    do under the coroutine scheduler.
    """
    resume, payload = gen.send, None
    while True:
        try:
            op = resume(payload)
        except StopIteration as stop:
            return stop.value
        try:
            payload = engine.submit(rank, op)
            resume = gen.send
        except BaseException as exc:  # noqa: BLE001 - delivered to the program
            resume, payload = gen.throw, exc
