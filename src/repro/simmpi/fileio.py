"""MPI-IO layer of the simulated runtime.

Implements the subset of MPI-IO the paper's workloads exercise:

* explicit-offset operations (``read_at``/``write_at`` and their
  collective ``*_all`` forms) -- NAS BT-IO;
* individual-file-pointer operations (``seek``/``read``/``write``) --
  MADbench2 ("individual file pointers, non-collective");
* shared-file-pointer operations (``read_shared``/``write_shared``);
* file views (``set_view``) with the strided datatypes of
  :mod:`repro.simmpi.datatypes` -- the Fig. 2-5 example and BT-IO.

Offset units follow MPI: explicit offsets, seek positions and the
individual/shared file pointers are measured in **etypes** (whole
elementary-type units of the current view), while request sizes are in
**bytes**.  This is exactly the convention of the paper's traces --
Fig. 2 shows offsets stepping by 265302 (etypes of 40 bytes) while the
request size column reads 10612080 bytes.

Every operation is implemented once as a generator core (``_g_*`` in
:class:`_FileHandleCore`) yielding op dicts to the engine.  Two shells
expose them: :class:`SimFileHandle` (blocking, for plain rank programs
on the threaded scheduler) and :class:`CoroFileHandle` (generator, for
``yield from``-style programs on the coroutine scheduler).

Every data operation produces an :class:`IOEvent` delivered to the
engine's I/O hooks; the tracer (``repro.tracer``) turns those into the
paper's trace-file format.  Offsets in events are *view-relative etype
offsets*, as in the paper's traces; the I/O subsystem simulator receives
the view-mapped absolute byte runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, NamedTuple

from .datatypes import BYTE, Datatype, FileView
from .engine import Comm, Engine, IORequest, drive_blocking
from .errors import MPIFileError, MPIUsageError

if TYPE_CHECKING:  # pragma: no cover
    from .context import RankContext

#: Canonical MPI routine names emitted in events, keyed by
#: (kind, addressing, collective).
OP_NAMES = {
    ("write", "explicit", True): "MPI_File_write_at_all",
    ("write", "explicit", False): "MPI_File_write_at",
    ("read", "explicit", True): "MPI_File_read_at_all",
    ("read", "explicit", False): "MPI_File_read_at",
    ("write", "individual", True): "MPI_File_write_all",
    ("write", "individual", False): "MPI_File_write",
    ("read", "individual", True): "MPI_File_read_all",
    ("read", "individual", False): "MPI_File_read",
    ("write", "shared", False): "MPI_File_write_shared",
    ("read", "shared", False): "MPI_File_read_shared",
}


class IOEvent(NamedTuple):
    """One traced I/O operation -- the row format of the paper's Fig. 2.

    An immutable NamedTuple, cheap to build: one is built per simulated
    MPI-IO call, on the simulator's hot path.
    """

    rank: int  # idP
    file_id: int  # idF
    filename: str
    op: str  # MPI routine name
    offset: int  # view-relative offset in etype units (MPI convention)
    abs_offset: int  # absolute file offset of the first accessed byte
    tick: int  # logical time of the event on this rank
    request_size: int  # bytes
    time: float  # virtual start time (s)
    duration: float  # virtual duration (s)
    kind: str  # "write" | "read"
    collective: bool
    unique_file: bool


#: Builds an IOEvent without the generated ``__new__`` frame.
_new_event = tuple.__new__


@dataclass
class FileMeta:
    """Access metadata accumulated per file (the model's *metadata* part)."""

    used_explicit_offset: bool = False
    used_individual_pointer: bool = False
    used_shared_pointer: bool = False
    used_collective: bool = False
    used_noncollective: bool = False
    used_nonblocking: bool = False
    used_set_view: bool = False
    etype_size: int = 1
    view_descriptions: set[str] = field(default_factory=set)
    access_type: str = "shared"  # "shared" (one file, all procs) | "unique"

    @property
    def access_mode(self) -> str:
        """"strided" when a non-contiguous view was set, else "sequential"."""
        return "strided" if self.used_set_view and self.view_descriptions else "sequential"


class SimFile:
    """A simulated file: size, shared pointer, metadata flags."""

    def __init__(self, file_id: int, name: str, unique: bool):
        self.file_id = file_id
        self.name = name
        self.size = 0
        self.shared_pointer = 0
        self.meta = FileMeta(access_type="unique" if unique else "shared")
        self.unique = unique
        self.openers: set[int] = set()

    def grow(self, end: int) -> None:
        if end > self.size:
            self.size = end


class _FileHandleCore:
    """A rank's handle onto a simulated file (view + individual pointer).

    Holds all state and the generator cores of every MPI-IO verb; the
    blocking/coroutine shells below only choose how the yielded ops
    reach the engine.
    """

    #: Completion-handle class the nonblocking verbs produce.
    _req_handle_class: type["IORequestHandle"]

    def __init__(self, engine: Engine, ctx: "RankContext", simfile: SimFile,
                 mode: str, comm: Comm):
        self._engine = engine
        self._ctx = ctx
        self.file = simfile
        self.mode = mode
        self.comm = comm
        self.view = FileView()
        self.individual_pointer = 0
        self.closed = False
        # Placement is fixed for the run: resolved once per handle.
        self._node = engine.platform.node_of_rank(ctx.rank, engine.nprocs)

    # -- open / close --------------------------------------------------------------
    @classmethod
    def _g_open(cls, engine: Engine, ctx: "RankContext", filename: str,
                mode: str = "rw", unique: bool = False,
                comm: Comm | None = None) -> Generator:
        comm = comm or engine.world
        actual_name = f"{filename}.{ctx.rank}" if unique else filename
        simfile = engine.get_file(actual_name, lambda fid: SimFile(fid, actual_name, unique))
        handle = cls(engine, ctx, simfile, mode, comm)

        platform = engine.platform

        if unique:
            # Opening a per-process file is an independent event.
            yield {
                "kind": "local", "ticks": 1,
                "fn": lambda start: (platform.comm_time(0, 1, "file_open", start), None),
            }
        else:
            def finalize(t0: float, ops: dict[int, Any]):
                dur = platform.comm_time(0, len(ops), "file_open", t0)
                return {r: dur for r in ops}, {r: None for r in ops}

            yield from ctx._g_collective("file_open", comm, finalize)
        simfile.openers.add(ctx.rank)
        return handle

    def _g_close(self) -> Generator:
        """Close the handle (counts as one MPI event, negligible time)."""
        self._check_open()
        self.closed = True
        # Bookkeeping only: not a traced MPI event (no tick).
        yield {"kind": "local", "ticks": 0, "fn": lambda start: (0.0, None)}

    # -- views ------------------------------------------------------------------------
    def _g_set_view(self, disp: int = 0, etype: Datatype = BYTE,
                    filetype: Datatype | None = None) -> Generator:
        """``MPI_File_set_view``: install a (possibly strided) view."""
        self._check_open()
        self.view = FileView(disp=disp, etype=etype, filetype=filetype or etype)
        self.individual_pointer = 0
        meta = self.file.meta
        meta.used_set_view = True
        meta.etype_size = etype.size
        if not self.view.is_contiguous:
            ft = self.view.filetype
            meta.view_descriptions.add(
                f"filetype(size={ft.size},extent={ft.extent})"
            )
        # View installation is metadata, not a data event (no tick).
        yield {"kind": "local", "ticks": 0, "fn": lambda start: (0.0, None)}

    # -- explicit offset ----------------------------------------------------------------
    def _g_write_at(self, offset: int, nbytes: int) -> Generator:
        return self._g_independent_io("write", "explicit", offset, nbytes)

    def _g_read_at(self, offset: int, nbytes: int) -> Generator:
        return self._g_independent_io("read", "explicit", offset, nbytes)

    def _g_iwrite_at(self, offset: int, nbytes: int) -> Generator:
        """``MPI_File_iwrite_at``: starts the write, returns a handle.

        The operation is charged against the I/O subsystem immediately
        (the resource is occupied), but the rank's clock does not
        advance until the handle's ``wait`` -- modelling computation/I/O
        overlap.
        """
        return self._g_nonblocking_io("write", offset, nbytes)

    def _g_iread_at(self, offset: int, nbytes: int) -> Generator:
        """``MPI_File_iread_at``: see ``iwrite_at``."""
        return self._g_nonblocking_io("read", offset, nbytes)

    def _g_write_at_all(self, offset: int, nbytes: int) -> Generator:
        return self._g_collective_io("write", "explicit", offset, nbytes)

    def _g_read_at_all(self, offset: int, nbytes: int) -> Generator:
        return self._g_collective_io("read", "explicit", offset, nbytes)

    # -- individual pointer ----------------------------------------------------------------
    def _g_seek(self, offset: int, whence: str = "set") -> Generator:
        """``MPI_File_seek`` on the individual pointer (etype units)."""
        self._check_open()
        if whence == "set":
            new = offset
        elif whence == "cur":
            new = self.individual_pointer + offset
        elif whence == "end":
            new = (self.file.size - self.view.disp) // self.view.etype.size + offset
        else:
            raise MPIUsageError(f"unknown whence {whence!r}")
        if new < 0:
            raise MPIFileError(f"seek to negative offset {new}")
        self.individual_pointer = new
        # Pointer bookkeeping, not a traced MPI event (no tick).
        yield {"kind": "local", "ticks": 0, "fn": lambda start: (0.0, None)}

    def _g_write(self, nbytes: int) -> Generator:
        off = self.individual_pointer
        yield from self._g_independent_io("write", "individual", off, nbytes)
        self.individual_pointer = off + self._etypes(nbytes)

    def _g_read(self, nbytes: int) -> Generator:
        off = self.individual_pointer
        yield from self._g_independent_io("read", "individual", off, nbytes)
        self.individual_pointer = off + self._etypes(nbytes)

    def _g_write_all(self, nbytes: int) -> Generator:
        off = self.individual_pointer
        yield from self._g_collective_io("write", "individual", off, nbytes)
        self.individual_pointer = off + self._etypes(nbytes)

    def _g_read_all(self, nbytes: int) -> Generator:
        off = self.individual_pointer
        yield from self._g_collective_io("read", "individual", off, nbytes)
        self.individual_pointer = off + self._etypes(nbytes)

    # -- shared pointer ----------------------------------------------------------------------
    def _g_write_shared(self, nbytes: int) -> Generator:
        return self._g_shared_io("write", nbytes)

    def _g_read_shared(self, nbytes: int) -> Generator:
        return self._g_shared_io("read", nbytes)

    # -- internals ----------------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise MPIFileError(f"operation on closed file {self.file.name!r}")

    def _check_io(self, kind: str, nbytes: int) -> None:
        self._check_open()
        if nbytes <= 0:
            raise MPIUsageError(f"request size must be positive, got {nbytes}")
        if nbytes % self.view.etype.size != 0:
            raise MPIUsageError(
                f"request of {nbytes} bytes is not a whole number of etypes "
                f"(etype size {self.view.etype.size})"
            )
        if kind == "write" and "w" not in self.mode:
            raise MPIFileError(f"file {self.file.name!r} not opened for writing")
        if kind == "read" and "r" not in self.mode:
            raise MPIFileError(f"file {self.file.name!r} not opened for reading")

    def _etypes(self, nbytes: int) -> int:
        """Convert a byte count to etype units of the current view."""
        return nbytes // self.view.etype.size

    def _mark_meta(self, addressing: str, collective: bool) -> None:
        meta = self.file.meta
        if addressing == "explicit":
            meta.used_explicit_offset = True
        elif addressing == "individual":
            meta.used_individual_pointer = True
        else:
            meta.used_shared_pointer = True
        if collective:
            meta.used_collective = True
        else:
            meta.used_noncollective = True

    def _build_request(self, kind: str, offset: int, nbytes: int,
                       collective: bool) -> IORequest:
        # `offset` is in etype units (MPI convention); the view maps bytes.
        runs = self.view.map_range(offset * self.view.etype.size, nbytes)
        return IORequest(
            rank=self._ctx.rank,
            node=self._node,
            filename=self.file.name,
            file_id=self.file.file_id,
            kind=kind,
            runs=runs,
            start=0.0,  # filled at service time
            collective=collective,
            unique_file=self.file.unique,
        )

    def _emit(self, kind: str, addressing: str, collective: bool, offset: int,
              nbytes: int, start: float, duration: float, tick: int,
              abs_offset: int) -> None:
        f = self.file
        self._engine.emit_io_event(_new_event(IOEvent, (
            self._ctx.rank, f.file_id, f.name,
            OP_NAMES[(kind, addressing, collective)], offset, abs_offset, tick,
            nbytes, start, duration, kind, collective, f.unique)))

    def _g_independent_io(self, kind: str, addressing: str, offset: int,
                          nbytes: int) -> Generator:
        self._check_io(kind, nbytes)
        self._mark_meta(addressing, collective=False)
        req = self._build_request(kind, offset, nbytes, collective=False)
        engine = self._engine
        rank = self._ctx.rank
        simfile = self.file

        def fn(start: float):
            req.start = start
            duration = engine.platform.service_io(req)
            if kind == "write" and req.runs:
                simfile.grow(req.runs[-1][0] + req.runs[-1][1])
            tick = engine._states[rank].tick + 1
            abs_off = req.runs[0][0] if req.runs else 0
            self._emit(kind, addressing, False, offset, nbytes, start, duration,
                       tick, abs_off)
            return duration, None

        yield {"kind": "local", "ticks": 1, "fn": fn}

    def _g_collective_io(self, kind: str, addressing: str, offset: int,
                         nbytes: int) -> Generator:
        self._check_io(kind, nbytes)
        self._mark_meta(addressing, collective=True)
        req = self._build_request(kind, offset, nbytes, collective=True)
        engine = self._engine
        simfile = self.file

        def finalize(t0: float, ops: dict[int, Any]):
            peers = [ops[r] for r in sorted(ops)]
            reqs = []
            for peer in peers:
                peer_req: IORequest = peer["req"]
                peer_req.start = t0
                reqs.append(peer_req)
            durations = engine.platform.service_collective_io(reqs, t0)
            states = engine._states
            for peer, peer_req in zip(peers, reqs):
                runs = peer_req.runs
                if kind == "write" and runs:
                    simfile.grow(runs[-1][0] + runs[-1][1])
                r = peer_req.rank
                peer["handle"]._emit(kind, addressing, True, peer["view_offset"],
                                     peer["nbytes"], t0, durations[r],
                                     states[r].tick + 1,
                                     runs[0][0] if runs else 0)
            return durations, dict.fromkeys(ops)

        # The op dict _ContextCore._g_collective would yield, built here
        # to save a generator level on every resume.
        yield {"kind": "collective", "name": OP_NAMES[(kind, addressing, True)],
               "comm": self.comm, "ticks": 1, "payload": None,
               "finalize": finalize, "req": req, "handle": self,
               "view_offset": offset, "nbytes": nbytes}

    def _g_nonblocking_io(self, kind: str, offset: int,
                          nbytes: int) -> Generator:
        self._check_io(kind, nbytes)
        self._mark_meta("explicit", collective=False)
        self.file.meta.used_nonblocking = True
        req = self._build_request(kind, offset, nbytes, collective=False)
        engine = self._engine
        rank = self._ctx.rank
        simfile = self.file
        handle = self._req_handle_class(self)

        op_name = "MPI_File_iwrite_at" if kind == "write" else "MPI_File_iread_at"

        def fn(start: float):
            req.start = start
            duration = engine.platform.service_io(req)
            if kind == "write" and req.runs:
                simfile.grow(req.runs[-1][0] + req.runs[-1][1])
            tick = engine._states[rank].tick + 1
            abs_off = req.runs[0][0] if req.runs else 0
            engine.emit_io_event(_new_event(IOEvent, (
                rank, simfile.file_id, simfile.name, op_name, offset, abs_off,
                tick, nbytes, start, duration, kind, False, simfile.unique)))
            handle._completion = start + duration
            # The rank continues immediately: overlap with computation.
            return 0.0, None

        yield {"kind": "local", "ticks": 1, "fn": fn}
        return handle

    def _g_shared_io(self, kind: str, nbytes: int) -> Generator:
        self._check_io(kind, nbytes)
        self._mark_meta("shared", collective=False)
        engine = self._engine
        rank = self._ctx.rank
        simfile = self.file
        handle = self

        def fn(start: float):
            offset = simfile.shared_pointer
            simfile.shared_pointer = offset + nbytes
            req = handle._build_request(kind, offset, nbytes, collective=False)
            req.start = start
            duration = engine.platform.service_io(req)
            if kind == "write" and req.runs:
                simfile.grow(req.runs[-1][0] + req.runs[-1][1])
            tick = engine._states[rank].tick + 1
            abs_off = req.runs[0][0] if req.runs else 0
            handle._emit(kind, "shared", False, offset, nbytes, start, duration,
                         tick, abs_off)
            return duration, None

        yield {"kind": "local", "ticks": 1, "fn": fn}


class SimFileHandle(_FileHandleCore):
    """Blocking shell over the file-handle core (threaded scheduler)."""

    def _drive(self, gen: Generator) -> Any:
        return drive_blocking(self._engine, self._ctx.rank, gen)

    @classmethod
    def open(cls, engine: Engine, ctx: "RankContext", filename: str,
             mode: str = "rw", unique: bool = False,
             comm: Comm | None = None) -> "SimFileHandle":
        return drive_blocking(engine, ctx.rank,
                              cls._g_open(engine, ctx, filename, mode=mode,
                                          unique=unique, comm=comm))

    def close(self) -> None:
        return self._drive(self._g_close())

    def set_view(self, disp: int = 0, etype: Datatype = BYTE,
                 filetype: Datatype | None = None) -> None:
        return self._drive(self._g_set_view(disp, etype, filetype))

    def write_at(self, offset: int, nbytes: int) -> None:
        return self._drive(self._g_write_at(offset, nbytes))

    def read_at(self, offset: int, nbytes: int) -> None:
        return self._drive(self._g_read_at(offset, nbytes))

    def iwrite_at(self, offset: int, nbytes: int) -> "IORequestHandle":
        return self._drive(self._g_iwrite_at(offset, nbytes))

    def iread_at(self, offset: int, nbytes: int) -> "IORequestHandle":
        return self._drive(self._g_iread_at(offset, nbytes))

    def write_at_all(self, offset: int, nbytes: int) -> None:
        return self._drive(self._g_write_at_all(offset, nbytes))

    def read_at_all(self, offset: int, nbytes: int) -> None:
        return self._drive(self._g_read_at_all(offset, nbytes))

    def seek(self, offset: int, whence: str = "set") -> None:
        return self._drive(self._g_seek(offset, whence))

    def write(self, nbytes: int) -> None:
        return self._drive(self._g_write(nbytes))

    def read(self, nbytes: int) -> None:
        return self._drive(self._g_read(nbytes))

    def write_all(self, nbytes: int) -> None:
        return self._drive(self._g_write_all(nbytes))

    def read_all(self, nbytes: int) -> None:
        return self._drive(self._g_read_all(nbytes))

    def write_shared(self, nbytes: int) -> None:
        return self._drive(self._g_write_shared(nbytes))

    def read_shared(self, nbytes: int) -> None:
        return self._drive(self._g_read_shared(nbytes))


class CoroFileHandle(_FileHandleCore):
    """Generator shell over the file-handle core (coroutine scheduler).

    Every method returns a generator to be delegated to with
    ``yield from``, e.g. ``yield from fh.write_at(0, 1024)``.
    """

    open = _FileHandleCore._g_open
    close = _FileHandleCore._g_close
    set_view = _FileHandleCore._g_set_view
    write_at = _FileHandleCore._g_write_at
    read_at = _FileHandleCore._g_read_at
    iwrite_at = _FileHandleCore._g_iwrite_at
    iread_at = _FileHandleCore._g_iread_at
    write_at_all = _FileHandleCore._g_write_at_all
    read_at_all = _FileHandleCore._g_read_at_all
    seek = _FileHandleCore._g_seek
    write = _FileHandleCore._g_write
    read = _FileHandleCore._g_read
    write_all = _FileHandleCore._g_write_all
    read_all = _FileHandleCore._g_read_all
    write_shared = _FileHandleCore._g_write_shared
    read_shared = _FileHandleCore._g_read_shared


class IORequestHandle:
    """Completion handle for a nonblocking I/O operation (``MPI_Wait``)."""

    def __init__(self, fh: _FileHandleCore):
        self._fh = fh
        self._completion: float | None = None
        self._done = False

    @property
    def completed(self) -> bool:
        return self._done

    def _g_wait(self) -> Generator:
        """Block until the operation completes (advances virtual time)."""
        if self._done:
            return
        self._done = True
        completion = self._completion

        def fn(start: float):
            if completion is None:
                return 0.0, None
            return max(0.0, completion - start), None

        # Waiting is synchronization bookkeeping, not a traced data event.
        yield {"kind": "local", "ticks": 0, "fn": fn}

    def wait(self) -> None:
        """Block until the operation completes (advances virtual time)."""
        drive_blocking(self._fh._engine, self._fh._ctx.rank, self._g_wait())

    def test(self) -> bool:
        """``MPI_Test``: non-blocking completion check."""
        if self._done:
            return True
        if self._completion is not None and \
                self._fh._ctx.clock >= self._completion:
            self._done = True
            return True
        return False


class CoroIORequestHandle(IORequestHandle):
    """Generator-style completion handle: ``yield from handle.wait()``."""

    wait = IORequestHandle._g_wait


SimFileHandle._req_handle_class = IORequestHandle
CoroFileHandle._req_handle_class = CoroIORequestHandle
