"""The paper's trace-file format (Fig. 2): rows and the writer.

One trace file per MPI process, one row per I/O operation::

    IdP IdF MPI-Operation Offset tick RequestSize time duration AbsOffset

Offsets are view-relative etype offsets, request sizes are bytes, time
and duration are seconds -- exactly the columns of Fig. 2.  One column
is added to the paper's format: ``AbsOffset``, the absolute file offset
of the first accessed byte (the paper derives it from the view metadata
when building the global logical view; carrying it in the trace makes
the f(initOffset) fit explicit).

The parser lives in :mod:`repro.tracer.ingest`;
``read_trace_columns(path).to_records()`` reads a file back as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.simmpi.fileio import IOEvent

HEADER = "IdP IdF MPI-Operation Offset tick RequestSize time duration AbsOffset"

#: Sentinel for legacy 8-field (paper-format) rows whose absolute byte
#: offset cannot be derived: the view offset is in *etype units*, so it
#: must never be reused as a byte offset (that was a silent-corruption
#: bug for any file with etype_size != 1).
ABS_OFFSET_UNKNOWN = -1


@dataclass(frozen=True)
class TraceRecord:
    """One row of a trace file."""

    rank: int
    file_id: int
    op: str
    offset: int
    tick: int
    request_size: int
    time: float
    duration: float
    abs_offset: int

    @classmethod
    def from_event(cls, event: IOEvent) -> "TraceRecord":
        return cls(
            rank=event.rank,
            file_id=event.file_id,
            op=event.op,
            offset=event.offset,
            tick=event.tick,
            request_size=event.request_size,
            time=event.time,
            duration=event.duration,
            abs_offset=event.abs_offset,
        )

    def to_line(self) -> str:
        return (f"{self.rank} {self.file_id} {self.op} {self.offset} "
                f"{self.tick} {self.request_size} {self.time:.6f} "
                f"{self.duration:.6f} {self.abs_offset}")

    @property
    def kind(self) -> str:
        """"write" or "read", derived from the MPI routine name."""
        return "write" if "write" in self.op else "read"

    @property
    def has_abs_offset(self) -> bool:
        """False for legacy rows whose byte offset could not be derived."""
        return self.abs_offset != ABS_OFFSET_UNKNOWN


def write_trace_file(path: str | Path, records: Iterable[TraceRecord]) -> None:
    """Write one process's trace file (``traceFile_(p)`` in Table I).

    The write is atomic (temp file + rename): a run killed mid-save
    leaves the previous trace (or nothing), never a truncated file.
    """
    from repro.ioutil import atomic_open

    with atomic_open(Path(path), "w") as f:
        f.write(HEADER + "\n")
        for rec in records:
            f.write(rec.to_line() + "\n")


def iter_by_rank(records: Iterable[TraceRecord]) -> Iterator[tuple[int, list[TraceRecord]]]:
    """Group records by rank (idP), preserving per-rank order."""
    by_rank: dict[int, list[TraceRecord]] = {}
    for rec in records:
        by_rank.setdefault(rec.rank, []).append(rec)
    for rank in sorted(by_rank):
        yield rank, by_rank[rank]
