"""Quarantine-mode trace ingest: salvage what parses, report the rest.

Long traced runs die in ugly ways -- a node crash truncates a rank's
trace file mid-line, a full filesystem interleaves garbage into the
text, a binary bundle loses its tail.  The strict loaders raise on the
first bad byte, which throws away every well-formed record collected
before the corruption.  Quarantine mode inverts that: pass a
:class:`QuarantineReport` to
:func:`~repro.tracer.columns.read_trace_columns` or
:meth:`~repro.tracer.hooks.TraceBundle.load` and every salvageable
record is kept while each rejected line / missing file / corrupt blob
becomes a :class:`QuarantineEntry` naming its source, rank and reason.

Salvage granularity follows the formats:

* **text traces** are line-delimited, so recovery is per line -- every
  well-formed row before, between and after garbage survives;
* **packed binary columns** (``.trc``/``.npz``) are column-major blobs;
  a truncated file cannot be partially decoded (row ``i`` lives at
  ``i``-th position of *every* blob, and the tail blobs are the ones
  missing), so the whole file is quarantined and the loader falls back
  to per-rank text files when they exist.

The quarantined-line count is exported through the
``quarantined_lines_total`` obs metric, labelled by reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro import obs

#: Rank attribution for lines too mangled to carry one.
RANK_UNKNOWN = -1


@dataclass(frozen=True)
class QuarantineEntry:
    """One rejected input: where it came from and why it was dropped."""

    source: str  # file (or file:lineno) the input came from
    rank: int  # owning rank, RANK_UNKNOWN if unparseable
    lineno: int  # 0 for whole-file problems
    reason: str
    line: str = ""  # offending text, truncated for the report

    def __str__(self) -> str:
        loc = f"{self.source}:{self.lineno}" if self.lineno else self.source
        shown = self.line if len(self.line) <= 80 else self.line[:77] + "..."
        tail = f": {shown!r}" if shown else ""
        return f"{loc} [rank {self.rank}] {self.reason}{tail}"


@dataclass
class QuarantineReport:
    """Collects everything an ingest had to drop.

    Truthy when anything was quarantined, so callers can write
    ``if report: log(report.summary())``.  ``strict=True`` turns the
    report into a pass-through: the first problem raises exactly as the
    quarantine-less loaders do (useful to share one code path).
    """

    entries: list[QuarantineEntry] = field(default_factory=list)
    strict: bool = False

    def note(self, source: str | Path, rank: int, lineno: int, reason: str,
             line: str = "") -> None:
        if self.strict:
            loc = f"{source}:{lineno}" if lineno else str(source)
            raise ValueError(f"{loc}: {reason}" +
                             (f": {line!r}" if line else ""))
        self.entries.append(QuarantineEntry(
            source=str(source), rank=rank, lineno=lineno, reason=reason,
            line=line))
        if obs.ACTIVE:
            obs.inc("quarantined_lines_total", reason=reason.split(":")[0])

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def by_rank(self) -> dict[int, list[QuarantineEntry]]:
        """Per-rank error report (RANK_UNKNOWN groups the unattributable)."""
        out: dict[int, list[QuarantineEntry]] = {}
        for e in self.entries:
            out.setdefault(e.rank, []).append(e)
        return dict(sorted(out.items()))

    def summary(self, max_lines: int = 20) -> str:
        """Human-readable digest: per-rank counts plus the first entries."""
        if not self.entries:
            return "quarantine: clean (nothing dropped)"
        counts = {rank: len(es) for rank, es in self.by_rank().items()}
        head = ", ".join(
            (f"rank {rank}: {n}" if rank != RANK_UNKNOWN else f"unattributed: {n}")
            for rank, n in counts.items())
        lines = [f"quarantine: {len(self.entries)} dropped ({head})"]
        for e in self.entries[:max_lines]:
            lines.append(f"  {e}")
        if len(self.entries) > max_lines:
            lines.append(f"  ... and {len(self.entries) - max_lines} more")
        return "\n".join(lines)


def guess_rank(line: str) -> int:
    """Best-effort rank attribution for a rejected text row."""
    head = line.split(maxsplit=1)
    if head:
        try:
            return int(head[0])
        except ValueError:
            pass
    return RANK_UNKNOWN
