"""Local Access Pattern (LAP) extraction -- paper section III-A.1, Fig. 3.

A LAP compresses one process's trace into repetitive units.  Extraction
runs in three steps per (rank, file):

1. **Burst splitting.**  Consecutive I/O records whose tick delta is
   <= ``gap`` (default 1: strictly adjacent MPI events) belong to one
   *burst*.  A tick gap means other MPI events (communication) happened
   in between -- that is the paper's cue that a new phase begins (the
   Fig. 5 example: writes separated by ~121 communication ticks are
   distinct phases; the 40 back-to-back reads are one).

2. **Tandem-repeat compression.**  Within a burst, find maximal runs of
   a repeating *unit* of 1..3 operations.  A unit member matches across
   repetitions when op name and request size agree and its offset
   advances by a constant displacement ``disp``.  This is what
   decomposes MADbench2's W function (R R W R W R ... W W) into the
   paper's Table VIII rows: reads(rep 2), write-read(rep 6), writes(rep 2).

3. Each compressed group becomes a :class:`LAPEntry` (the Fig. 3 rows):
   idP, idF, op(s), rep, request size, disp, initial offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.tracer.columns import (
    ALL_COLUMNS,
    StreamDigest,
    TraceColumns,
    intern_ops,
)

#: Maximum repeating-unit length the tandem detector searches for.
MAX_UNIT = 3


@dataclass(frozen=True)
class LAPOp:
    """One operation of a (possibly multi-op) repeating unit."""

    op: str  # MPI routine name
    kind: str  # "write" | "read"
    request_size: int  # bytes (rs)
    disp: int  # offset displacement between repetitions (etype units)
    init_offset: int  # view-relative initial offset (etype units)
    init_abs_offset: int  # absolute initial byte offset


@dataclass(frozen=True)
class LAPEntry:
    """One row group of the LAP file (Fig. 3) for a single process."""

    rank: int
    file_id: int
    rep: int
    ops: tuple[LAPOp, ...]
    first_tick: int
    last_tick: int
    first_time: float
    total_duration: float

    @property
    def signature(self) -> tuple:
        """What must match across processes for LAPs to be 'similar'
        (everything except the initial offsets -- Table I's simLAP)."""
        return (
            self.file_id,
            self.rep,
            tuple((o.op, o.request_size, o.disp) for o in self.ops),
        )

    @property
    def nbytes(self) -> int:
        """Bytes this process moves in the entry: rep * sum of unit sizes."""
        return self.rep * sum(o.request_size for o in self.ops)

    def to_lines(self) -> list[str]:
        """Fig. 3-style text rows: IdP IdF Op Rep RequestSize Disp OffsetInit."""
        return [
            f"{self.rank} {self.file_id} {o.op} {self.rep} "
            f"{o.request_size} {o.disp} {o.init_offset}"
            for o in self.ops
        ]


def extract_laps(records: Sequence, gap: int = 1) -> list[LAPEntry]:
    """LAP extraction for a list of ``TraceRecord`` (all ranks, all
    files): :func:`extract_laps_columns` over their columns.  Entries
    come back ordered by (rank, file, first_tick)."""
    return extract_laps_columns(TraceColumns.from_records(records), gap=gap)


# -- columnar extraction: one kernel, one fold --------------------------------
#
# Batch and streamed extraction are one fold over ``TraceColumns``
# chunks (:class:`LAPFolder`; :func:`extract_laps_columns` is a single
# chunk).  Per chunk, ``_partition`` sorts the rows stably by (rank,
# file), the open burst of each key in the chunk goes back in front of
# the key's rows, bursts are cut at key changes and tick steps > gap,
# and every burst but the last one per key is closed; that one is
# *copied* into the key's buffer.
#
# ``_compress_bursts`` closes a chunk's bursts all at once.  Per unit
# length u it builds two row masks:
#
#   chain[u][p]  op/request_size at p match p-u (same burst)
#   g[u][p]      chain[u][p] and off[p]-off[p-u] == off[p-u]-off[p-2u]
#
# A burst [s, e) is exactly one tandem run of unit u iff u divides e-s
# (>= 3 repetitions for u > 1), chain holds on [s+u, e) and g on
# [s+2u, e) -- an O(log n) test per burst.  Tried in the greedy scan's
# order (u = 1, 2, 3), the first exact run is the greedy's own answer: a
# shorter unit that fell short of e-s cannot match full coverage and a
# longer one cannot strictly beat it.  Exact runs -- nearly every burst
# of the paper's apps -- become one entry from per-burst gathered
# scalars; the rest go through the greedy ``_scan``, whose repetition
# queries are O(1) on the suffix run lengths C/G of the same masks:
#
#   reps(i, u, e) = 1                      if i+2u > e or C[u][i+u] < u
#                   2 + min(G[u][i+2u]//u, (e-i-2u)//u)   otherwise
#
# ``total_duration`` is ``sum()`` over the burst's slice of one list:
# the record-by-record summation of the reference extractor in
# tests/core/lap_reference.py, hence bit-identical (``np.add.reduceat``
# sums in another order).  tests/core/test_lap_golden.py pins the
# output bit for bit.

def extract_laps_columns(cols, gap: int = 1) -> list[LAPEntry]:
    """LAP extraction over a ``TraceColumns`` (all ranks, all files);
    entries ordered by (rank, file, first_tick)."""
    folder = LAPFolder(gap=gap, digest=False)
    folder._fold(cols, final=True)
    return folder._close_all()


def _new(cls, **fields):
    """``cls(**fields)`` for the frozen LAPOp/LAPEntry without the
    per-field ``object.__setattr__`` of the dataclass ``__init__``; they
    are built tens of thousands of times per trace.  Identical objects:
    eq/hash/repr of a non-slots dataclass read the same ``__dict__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _kinds(op_table: Sequence[str]) -> list[str]:
    return ["write" if "write" in name else "read" for name in op_table]


def _key_starts(a: dict):
    """Rows where the (rank, file_id) key changes, row 0 included."""
    rank, fid = a["rank"], a["file_id"]
    newkey = np.empty(len(rank), dtype=bool)
    newkey[0] = True
    newkey[1:] = (rank[1:] != rank[:-1]) | (fid[1:] != fid[:-1])
    return np.flatnonzero(newkey)


def _partition(a: dict):
    """Stable sort of the columns ``a`` by (rank, file_id); returns the
    sorted columns and the start row of each key's run."""
    rank, fid = a["rank"], a["file_id"]
    step = rank[1:] - rank[:-1]
    if not np.all((step > 0) | ((step == 0) & (fid[1:] >= fid[:-1]))):
        order = np.lexsort((fid, rank))
        a = {name: col[order] for name, col in a.items()}
    return a, _key_starts(a)


def _suffix_runs(flags) -> list[int]:
    """runs[p] = length of the consecutive True run starting at p."""
    n = len(flags)
    idx = np.arange(n)
    next_false = np.minimum.accumulate(np.where(flags, n, idx)[::-1])[::-1]
    return (next_false - idx).tolist()


def _holds(mask, lo, hi):
    """Per range b: ``mask`` is True on all of ``[lo[b], hi[b])`` -- no
    failure row lies between the two, an O(log n) test per range."""
    fail = np.flatnonzero(~mask)
    return np.searchsorted(fail, lo) == np.searchsorted(fail, hi)


#: column order of the lists ``_scan`` reads
_SCAN_COLS = ("rank", "file_id", "op_code", "offset", "tick", "request_size",
              "time", "duration", "abs_offset")


def _compress_bursts(a: dict, starts, ends,
                     op_table: Sequence[str]) -> list[LAPEntry]:
    """Tandem-compress the bursts ``[starts[b], ends[b])`` of the
    (rank, file)-sorted columns ``a``, in burst order."""
    nb = len(starts)
    if not nb:
        return []
    op, off, rs, aoff = (a["op_code"], a["offset"], a["request_size"],
                         a["abs_offset"])
    n = len(op)
    idx = np.arange(n)
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    pos = idx - np.maximum.accumulate(np.where(first, idx, 0))
    length = ends - starts
    unit = np.zeros(nb, dtype=np.int64)
    masks = [None]
    for u in range(1, MAX_UNIT + 1):
        chain = np.zeros(n, dtype=bool)
        du = np.zeros(n, dtype=np.int64)
        if n > u:
            chain[u:] = ((op[u:] == op[:-u]) & (rs[u:] == rs[:-u])
                         & (pos[u:] >= u))
            du[u:] = off[u:] - off[:-u]
        g = np.zeros(n, dtype=bool)
        if n > 2 * u:
            g[2 * u:] = (chain[2 * u:] & (du[2 * u:] == du[u:-u])
                         & (pos[2 * u:] >= 2 * u))
        masks.append((chain, g))
        reps, rem = np.divmod(length, u)
        exact = ((unit == 0) & (rem == 0)
                 & _holds(chain, np.minimum(starts + u, ends), ends)
                 & _holds(g, np.minimum(starts + 2 * u, ends), ends))
        if u > 1:
            exact &= reps >= 3
        unit[exact] = u

    # per-burst scalars of the exact runs (the others ignore theirs)
    ub = np.maximum(unit, 1)
    reps = length // ub
    last = n - 1
    members = []
    for j in range(MAX_UNIT):
        p = np.minimum(starts + j, last)
        disp = np.where(reps > 1, off[np.minimum(p + ub, last)] - off[p], 0)
        members.append(tuple(zip(op[p].tolist(), rs[p].tolist(),
                                 disp.tolist(), off[p].tolist(),
                                 aoff[p].tolist())))
    dur = a["duration"].tolist()

    # the rest go through the greedy scan over their rows only
    scan_at: dict[int, int] = {}
    sc = np.flatnonzero(unit == 0)
    if len(sc):
        lens = length[sc]
        at = np.cumsum(lens) - lens
        rows = np.repeat(starts[sc] - at, lens) + np.arange(int(lens.sum()))
        lists = [a[name][rows].tolist() for name in _SCAN_COLS]
        C = [None] + [_suffix_runs(c[rows]) for c, _ in masks[1:]]
        G = [None] + [_suffix_runs(g[rows]) for _, g in masks[1:]]

        def reps_fn(i: int, u: int, e: int) -> int:
            if i + 2 * u > e or C[u][i + u] < u:
                return 1 if i + u <= e else 0
            avail = (e - i - 2 * u) // u
            if avail <= 0:  # the 2nd repetition ends exactly at the burst edge
                return 2
            return 2 + min(G[u][i + 2 * u] // u, avail)

        scan_at = dict(zip(sc.tolist(), at.tolist()))

    kinds = _kinds(op_table)
    entries: list[LAPEntry] = []
    for b, (s, e, u, r, rank, fid, t0, t1, time0) in enumerate(zip(
            starts.tolist(), ends.tolist(), unit.tolist(), reps.tolist(),
            a["rank"][starts].tolist(), a["file_id"][starts].tolist(),
            a["tick"][starts].tolist(), a["tick"][ends - 1].tolist(),
            a["time"][starts].tolist())):
        if u:
            ops = []
            for j in range(u):
                code, size, disp, o, ao = members[j][b]
                ops.append(_new(LAPOp, op=op_table[code], kind=kinds[code],
                                request_size=size, disp=disp, init_offset=o,
                                init_abs_offset=ao))
            entries.append(_new(LAPEntry, rank=rank, file_id=fid, rep=r,
                                ops=tuple(ops), first_tick=t0, last_tick=t1,
                                first_time=time0, total_duration=sum(dur[s:e])))
        else:
            i = scan_at[b]
            _scan(lists, i, i + e - s, reps_fn, op_table, kinds, entries)
    return entries


def _emit(lists, i: int, u: int, r: int, op_table: Sequence[str],
          kinds: list[str]) -> LAPEntry:
    """The entry for ``r`` repetitions of the ``u``-op unit at ``i``."""
    rank, fid, op, off, tick, rs, time, dur, aoff = lists
    end = i + u * r
    ops = []
    for p in range(i, i + u):
        code = op[p]
        ops.append(_new(LAPOp, op=op_table[code], kind=kinds[code],
                        request_size=rs[p],
                        disp=off[p + u] - off[p] if r > 1 else 0,
                        init_offset=off[p], init_abs_offset=aoff[p]))
    return _new(LAPEntry, rank=rank[i], file_id=fid[i], rep=r, ops=tuple(ops),
                first_tick=tick[i], last_tick=tick[end - 1],
                first_time=time[i], total_duration=sum(dur[i:end]))


def _scan(lists, s: int, e: int, reps_fn: Callable[[int, int, int], int],
          op_table: Sequence[str], kinds: list[str],
          out: list[LAPEntry]) -> None:
    """The greedy tandem-repeat scan (step 2 above) of the burst
    ``[s, e)`` of the column lists, appending its entries to ``out``."""
    i = s
    while i < e:
        best_u, best_r = 1, reps_fn(i, 1, e)
        if i + best_r < e:
            # a unit-u run covers at most e - i events, so once the
            # unit-1 run reaches the burst end no longer unit can
            # strictly beat its coverage
            for u in range(2, MAX_UNIT + 1):
                r = reps_fn(i, u, e)
                if r >= 3 and r * u > best_r * best_u:
                    best_u, best_r = u, r
        out.append(_emit(lists, i, best_u, best_r, op_table, kinds))
        i += best_u * best_r


class LAPFolder:
    """The one LAP extraction fold, for batch and streamed traces.

    Feed trace chunks (``TraceColumns``, e.g. from
    :func:`repro.tracer.ingest.iter_ingest_chunks`) through
    :meth:`push`; :meth:`finish` returns the LAP entries.  Each chunk is
    sorted by (rank, file), cut into bursts and compressed by the one
    vectorized kernel (see "columnar extraction" above); only the last
    burst of each key stays open, since the next chunk may extend it.
    :func:`extract_laps_columns` is the same fold over one chunk.

    Memory is O(open bursts + emitted entries + op table): an open
    burst's rows are *copied* into the key's buffer -- a view would pin
    the whole chunk -- and released once a tick gap (or the end of the
    stream) closes the burst.

    The output is **bit-identical** to :func:`extract_laps_columns` over
    the full trace, provided the chunks preserve each (rank, file)'s record
    order -- any interleaving *across* keys is fine (burst buffers are
    per-key and the final entry list is sorted like the batch path).
    A :class:`~repro.tracer.columns.StreamDigest` runs alongside, so
    after :meth:`finish` the folder knows the stream's content digest
    without ever having materialized the columns.
    """

    def __init__(self, gap: int = 1, digest: bool = True):
        self.gap = gap
        self.op_table: list[str] = []
        self._op_index: dict[str, int] = {}
        #: (rank, file_id) -> the key's open burst (column name -> rows)
        self._open: dict[tuple[int, int], dict] = {}
        self._entries: list[LAPEntry] = []
        # digest=False skips the per-chunk sha256 work entirely -- for
        # callers that will never ask for content_digest() (e.g. a
        # streaming characterization with no store attached)
        self.digest = StreamDigest() if digest else None
        self.nrows = 0
        self.peak_open_rows = 0  # high-water mark of buffered rows
        self._finished = False

    # -- ingestion ------------------------------------------------------------
    def push(self, chunk) -> None:
        """Fold one ``TraceColumns`` chunk (any op table)."""
        if self._finished:
            raise RuntimeError("LAPFolder already finished")
        self._fold(chunk, final=False)

    def _remap(self, op_table: Sequence[str]) -> list[int] | None:
        """Chunk op code -> global op code, or None when they agree."""
        remap = intern_ops(op_table, self.op_table, self._op_index)
        return None if remap == list(range(len(remap))) else remap

    def _fold(self, chunk, final: bool) -> None:
        """Fold ``chunk``; ``final`` closes its bursts, the last ones too
        (the caller knows no chunk follows and no burst is open)."""
        remap = self._remap(chunk.op_table)
        n = len(chunk)
        a = {name: getattr(chunk, name) for name in ALL_COLUMNS}
        if remap is not None and n:
            a["op_code"] = np.asarray(remap, dtype=np.int64)[a["op_code"]]
        if self.digest is not None:
            self.digest.update(a)
        self.nrows += n
        if n:
            self._fold_arrays(a, final)

    def _fold_arrays(self, a: dict, final: bool) -> None:
        a, key_starts = _partition(a)
        if self._open:
            # the open burst of each key in the chunk goes back in
            # front of the key's rows
            bounds = np.append(key_starts, len(a["rank"])).tolist()
            keys = zip(a["rank"][key_starts].tolist(),
                       a["file_id"][key_starts].tolist())
            pieces, held = [], False
            for key, lo, hi in zip(keys, bounds, bounds[1:]):
                buf = self._open.pop(key, None)
                if buf is not None:
                    pieces.append(buf)
                    held = True
                pieces.append({name: col[lo:hi] for name, col in a.items()})
            if held:
                a = {name: np.concatenate([p[name] for p in pieces])
                     for name in a}
                key_starts = _key_starts(a)
        tick, n = a["tick"], len(a["tick"])
        cut = np.zeros(n, dtype=bool)
        cut[1:] = tick[1:] - tick[:-1] > self.gap
        cut[key_starts] = True
        starts = np.flatnonzero(cut)
        ends = np.append(starts[1:], n)
        # unless final, a burst that ends where its key's rows end stays open
        key_ends = np.append(key_starts[1:], n)
        closed = final | (key_ends[np.searchsorted(key_ends, ends)] != ends)
        self._entries += _compress_bursts(a, starts[closed], ends[closed],
                                          self.op_table)
        if final:
            return
        for s, e in zip(starts[~closed].tolist(), ends[~closed].tolist()):
            # a copy, never a view: a view would pin the whole chunk
            key = (int(a["rank"][s]), int(a["file_id"][s]))
            self._open[key] = {name: col[s:e].copy()
                               for name, col in a.items()}
        open_rows = sum(len(buf["tick"]) for buf in self._open.values())
        self.peak_open_rows = max(self.peak_open_rows, open_rows)

    # -- results --------------------------------------------------------------
    def _close_all(self) -> list[LAPEntry]:
        """Close every open burst; the entries in the batch-path order."""
        if self._open:
            bufs = [self._open.pop(key) for key in sorted(self._open)]
            self._fold_arrays({name: np.concatenate([b[name] for b in bufs])
                               for name in ALL_COLUMNS}, final=True)
        self._entries.sort(key=attrgetter("rank", "file_id", "first_tick"))
        return self._entries

    def finish(self) -> list[LAPEntry]:
        """Close the remaining bursts; entries in the batch-path order."""
        if not self._finished:
            self._close_all()
            self._finished = True
        return self._entries

    def content_digest(self) -> str:
        """The streamed trace's content digest (valid any time)."""
        if self.digest is None:
            raise RuntimeError("LAPFolder was built with digest=False")
        return self.digest.finalize(self.op_table)


def expand_entry(entry: LAPEntry) -> list[tuple[str, int, int]]:
    """Inverse of compression: the (op, offset, request_size) sequence
    the entry stands for.  Used by the round-trip property tests."""
    out = []
    for k in range(entry.rep):
        for o in entry.ops:
            out.append((o.op, o.init_offset + k * o.disp, o.request_size))
    return out
