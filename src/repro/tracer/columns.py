"""Columnar trace representation -- the characterization fast path.

A :class:`TraceColumns` holds one trace as parallel arrays (one per
Fig. 2 column) instead of one :class:`~repro.tracer.tracefile.TraceRecord`
dataclass per row.  This is the same storage idea that gives tracing
tools like Recorder and Darshan their scalability: at millions of I/O
events, per-event Python objects dominate both memory and CPU, while
columns parse in bulk, sort with one ``lexsort`` and feed the
vectorized LAP/phase kernels of :mod:`repro.core.lap`.

Every column is a numpy ``ndarray``: int64 for the integer fields,
float64 for ``time`` and ``duration``.

On-disk formats:

* the Fig. 2 **text** format (via :func:`read_trace_columns`, which
  delegates to the ingest engine, :mod:`repro.tracer.ingest`);
* a **packed-struct binary** format (``.trc``: magic + JSON header +
  little-endian int64/float64 column blobs), also the wire and
  parse-cache encoding;
* a **compressed npz** format (``.npz``) for the smallest on-disk
  footprint.

Round-trip parity between the three is asserted by
``tests/tracer/test_columns.py``.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .tracefile import TraceRecord

#: Column names in serialization order (ints first, then floats).
INT_COLUMNS = ("rank", "file_id", "op_code", "offset", "tick",
               "request_size", "abs_offset")
FLOAT_COLUMNS = ("time", "duration")
ALL_COLUMNS = INT_COLUMNS + FLOAT_COLUMNS

#: Packed binary format magic (version 1).
MAGIC = b"REPROTRC1\n"

#: The int64 range every integer column must fit.
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def check_chunk_rows(chunk_rows: int) -> None:
    """Reject a non-positive streaming chunk size up front."""
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")


def intern_ops(ops: Iterable[str], op_table: list[str],
               op_index: dict[str, int]) -> list[int]:
    """Intern a chunk's op table into a merged one (first-appearance
    order); returns chunk op code -> merged op code."""
    remap = []
    for op in ops:
        code = op_index.get(op)
        if code is None:
            code = op_index[op] = len(op_table)
            op_table.append(op)
        remap.append(code)
    return remap


class TraceColumns:
    """One trace as parallel columns plus an interned op-name table."""

    __slots__ = ALL_COLUMNS + ("op_table",)

    def __init__(self, *, rank, file_id, op_code, offset, tick,
                 request_size, time, duration, abs_offset,
                 op_table: Sequence[str]):
        self.op_table = list(op_table)
        self.rank = np.asarray(rank, dtype=np.int64)
        self.file_id = np.asarray(file_id, dtype=np.int64)
        self.op_code = np.asarray(op_code, dtype=np.int64)
        self.offset = np.asarray(offset, dtype=np.int64)
        self.tick = np.asarray(tick, dtype=np.int64)
        self.request_size = np.asarray(request_size, dtype=np.int64)
        self.abs_offset = np.asarray(abs_offset, dtype=np.int64)
        self.time = np.asarray(time, dtype=np.float64)
        self.duration = np.asarray(duration, dtype=np.float64)

    # -- construction ---------------------------------------------------------
    @classmethod
    def _empty_lists(cls) -> dict[str, list]:
        return {name: [] for name in ALL_COLUMNS}

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceColumns":
        """Build columns from TraceRecord rows (order preserved)."""
        cols = cls._empty_lists()
        op_table: list[str] = []
        op_index: dict[str, int] = {}
        append = [cols[name].append for name in
                  ("rank", "file_id", "op_code", "offset", "tick",
                   "request_size", "time", "duration", "abs_offset")]
        a_rank, a_fid, a_op, a_off, a_tick, a_rs, a_t, a_d, a_abs = append
        for r in records:
            code = op_index.get(r.op)
            if code is None:
                code = op_index[r.op] = len(op_table)
                op_table.append(r.op)
            a_rank(r.rank); a_fid(r.file_id); a_op(code)
            a_off(r.offset); a_tick(r.tick); a_rs(r.request_size)
            a_t(r.time); a_d(r.duration); a_abs(r.abs_offset)
        return cls(op_table=op_table, **cols)

    @classmethod
    def from_stream(cls, chunks: Iterable["TraceColumns"]) -> "TraceColumns":
        """Build one trace from an iterable of column *chunks*.

        Each chunk's op codes are remapped onto one merged table in
        first-appearance order -- the same interning order
        ``from_records`` / ``from_events`` produce, so the result's
        :meth:`content_digest` matches the equivalent one-shot build.
        The iterable is consumed lazily (never materialized as a list
        of chunks); only the chunks' column arrays are kept until the
        final concatenation.
        """
        arrs: dict[str, list] = {name: [] for name in ALL_COLUMNS}
        op_table: list[str] = []
        op_index: dict[str, int] = {}
        for part in chunks:
            remap = intern_ops(part.op_table, op_table, op_index)
            codes = part.op_code
            if remap != list(range(len(remap))) and len(codes):
                codes = np.asarray(remap, dtype=np.int64)[codes]
            for name in ALL_COLUMNS:
                arrs[name].append(codes if name == "op_code"
                                  else getattr(part, name))
        cols = {name: np.concatenate(arrs[name]) if arrs[name] else ()
                for name in ALL_COLUMNS}
        return cls(op_table=op_table, **cols)

    @classmethod
    def from_events(cls, events: Iterable) -> "TraceColumns":
        """Build columns straight from engine ``IOEvent`` objects (they
        carry the TraceRecord fields under the same names)."""
        return cls.from_records(events)

    # -- basic views ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rank)

    def column_lists(self) -> dict[str, list]:
        """Every column as a plain Python list."""
        return {name: getattr(self, name).tolist() for name in ALL_COLUMNS}

    def op_at(self, i: int) -> str:
        return self.op_table[int(self.op_code[i])]

    def record(self, i: int) -> TraceRecord:
        """Materialize one row as a TraceRecord (on demand only)."""
        return TraceRecord(
            rank=int(self.rank[i]), file_id=int(self.file_id[i]),
            op=self.op_at(i), offset=int(self.offset[i]),
            tick=int(self.tick[i]), request_size=int(self.request_size[i]),
            time=float(self.time[i]), duration=float(self.duration[i]),
            abs_offset=int(self.abs_offset[i]))

    def iter_records(self) -> Iterator[TraceRecord]:
        cols = self.column_lists()
        table = self.op_table
        for rank, fid, code, off, tick, rs, t, d, aoff in zip(
                cols["rank"], cols["file_id"], cols["op_code"],
                cols["offset"], cols["tick"], cols["request_size"],
                cols["time"], cols["duration"], cols["abs_offset"]):
            yield TraceRecord(rank=rank, file_id=fid, op=table[code],
                              offset=off, tick=tick, request_size=rs,
                              time=t, duration=d, abs_offset=aoff)

    def to_records(self) -> list[TraceRecord]:
        return list(self.iter_records())

    @property
    def total_bytes(self) -> int:
        return int(self.request_size.sum())

    @property
    def nfiles(self) -> int:
        return len(np.unique(self.file_id))

    # -- reordering -----------------------------------------------------------
    def take(self, indices) -> "TraceColumns":
        """New TraceColumns holding rows ``indices`` in that order."""
        if isinstance(indices, range) and indices.step == 1:
            # contiguous row window: O(1) views instead of an O(n)
            # index materialization + fancy-index copy -- this is the
            # binary-bundle streaming re-slice hot path
            rows = slice(indices.start, indices.stop)
        else:
            rows = np.asarray(indices, dtype=np.intp)
        return TraceColumns(op_table=self.op_table,
                            **{name: getattr(self, name)[rows]
                               for name in ALL_COLUMNS})

    def sorted_canonical(self) -> "TraceColumns":
        """Stable sort by (rank, time, tick) -- the Tracer bundle order."""
        if len(self) <= 1:
            return self
        return self.take(np.lexsort((self.tick, self.time, self.rank)))

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """Concatenate traces (per-rank files -> one bundle), remapping
        each part's op codes onto a merged op table."""
        return cls.from_stream(parts)

    def content_digest(self) -> str:
        """sha256 hex digest of the trace content.

        Hashes per-column sub-digests of the canonical little-endian
        column blobs (the packed ``.trc`` encoding) plus the op table,
        so a round-trip through any of the on-disk formats produces the
        same digest.  Used as the content address of characterization
        results in the persistent store.

        The column sub-digest structure makes the digest *streamable*:
        a :class:`StreamDigest` fed the same rows chunk by chunk
        finalizes to the identical hex string without ever holding the
        full columns (per-chunk blobs concatenate to per-column blobs).
        """
        sd = StreamDigest()
        sd.update({name: getattr(self, name) for name in ALL_COLUMNS})
        return sd.finalize(self.op_table)

    # -- persistence ----------------------------------------------------------
    def dump_trc(self, f) -> None:
        """Write the packed ``.trc`` encoding to a binary file object.

        This is the canonical compact bundle: magic + JSON header +
        little-endian int64/float64 column blobs.  It doubles as the
        wire encoding of a trace (``to_bytes``) for the cluster
        executor -- columns never cross a socket as pickles.
        """
        f.write(MAGIC)
        header = {"version": 1, "n": len(self),
                  "op_table": self.op_table,
                  "columns": list(ALL_COLUMNS)}
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in INT_COLUMNS:
            f.write(_int_blob(getattr(self, name)))
        for name in FLOAT_COLUMNS:
            f.write(_float_blob(getattr(self, name)))

    @classmethod
    def load_trc(cls, f, what: str = "<stream>") -> "TraceColumns":
        """Read one packed ``.trc`` encoding from a binary file object
        (the rest of the file: one encoding per file)."""
        return cls._decode(f.read(), what)

    def to_bytes(self) -> bytes:
        """The packed ``.trc`` encoding as one bytes object."""
        import io

        buf = io.BytesIO()
        self.dump_trc(buf)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceColumns":
        """Decode a :meth:`to_bytes` blob (the ``.trc`` wire format)."""
        return cls._decode(data, "<bytes>")

    @classmethod
    def _decode(cls, data: bytes, what: str) -> "TraceColumns":
        """Decode one ``.trc`` encoding.  The bytes may be untrusted
        (parse-cache entries, wire frames, bundles): a bad magic or
        header, a short column blob or an op code outside the op table
        raises ``ValueError``; no allocation is sized from the header."""
        if data[:len(MAGIC)] != MAGIC:
            raise ValueError(f"{what}: not a packed trace file "
                             f"(bad magic {bytes(data[:len(MAGIC)])!r})")
        eol = data.find(b"\n", len(MAGIC))
        eol = len(data) if eol < 0 else eol
        try:
            header = json.loads(data[len(MAGIC):eol])
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            raise ValueError(f"{what}: bad packed trace header: {exc}") \
                from None
        n, op_table = _check_header(header, what)
        start = eol + 1
        if len(data) - start < 8 * n * len(ALL_COLUMNS):
            raise ValueError(f"{what}: truncated packed trace file")
        kwargs = {name: np.frombuffer(data, count=n,
                                      offset=start + 8 * n * i,
                                      dtype="<f8" if name in FLOAT_COLUMNS
                                      else "<i8").copy()
                  for i, name in enumerate(ALL_COLUMNS)}
        _check_columns(kwargs, op_table, what)
        return cls(op_table=op_table, **kwargs)

    def save(self, path: str | Path) -> Path:
        """Write the binary trace: compressed ``.npz`` or packed ``.trc``.

        Both formats write atomically (temp file in the same directory,
        then rename): a killed run never leaves a truncated bundle that
        a later :meth:`load` would reject.
        """
        from repro.ioutil import atomic_path

        path = Path(path)
        if path.suffix == ".npz":
            with atomic_path(path) as tmp:
                np.savez_compressed(
                    tmp, op_table=np.array(self.op_table, dtype=str),
                    **{name: np.asarray(getattr(self, name))
                       for name in ALL_COLUMNS})
            return path
        with atomic_path(path) as tmp:
            with tmp.open("wb") as f:
                self.dump_trc(f)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TraceColumns":
        """Read a binary trace written by :meth:`save` (either format).

        Both formats pass the same checks: a damaged or inconsistent
        file raises ``ValueError`` naming ``path``; only a file that
        cannot be opened raises ``OSError``.
        """
        path = Path(path)
        if path.suffix != ".npz":
            with path.open("rb") as f:
                return cls.load_trc(f, what=str(path))
        with path.open("rb") as f:
            try:
                with np.load(f) as data:
                    op_table = data["op_table"]
                    kwargs = {name: data[name] for name in ALL_COLUMNS}
            # A damaged zip surfaces as any of these (RuntimeError covers
            # zipfile's NotImplementedError for garbled header fields,
            # OSError a seek to a garbled offset).
            except (ValueError, OSError, EOFError, KeyError, RuntimeError,
                    zipfile.BadZipFile, zlib.error) as exc:
                raise ValueError(f"{path}: unreadable .npz trace: "
                                 f"{exc}") from None
        if op_table.ndim != 1 or op_table.dtype.kind != "U":
            raise ValueError(f"{path}: op_table is not a list of strings")
        op_table = [str(x) for x in op_table]
        _check_columns(kwargs, op_table, str(path))
        return cls(op_table=op_table, **kwargs)


class StreamDigest:
    """Running :meth:`TraceColumns.content_digest` over column chunks.

    Keeps one sha256 per column (O(1) memory however long the trace);
    :meth:`update` hashes a chunk's column blobs, :meth:`finalize`
    combines the sub-digests with the header exactly as
    ``content_digest`` does.  Op codes must already be *global* (interned
    against the final op table in first-appearance order) -- the
    :class:`~repro.core.lap.LAPFolder` does that remapping as it folds.
    """

    __slots__ = ("_cols", "nrows")

    def __init__(self):
        import hashlib

        self._cols = {name: hashlib.sha256() for name in ALL_COLUMNS}
        self.nrows = 0

    def update(self, cols: Mapping[str, Sequence]) -> None:
        """Fold one chunk (a column-name -> array mapping)."""
        for name in INT_COLUMNS:
            self._cols[name].update(_int_blob(cols[name]))
        for name in FLOAT_COLUMNS:
            self._cols[name].update(_float_blob(cols[name]))
        self.nrows += len(cols["rank"])

    def finalize(self, op_table: Sequence[str]) -> str:
        """The digest of the concatenated chunks (repeatable)."""
        import hashlib

        h = hashlib.sha256()
        h.update(MAGIC)
        h.update(json.dumps({"n": self.nrows, "op_table": list(op_table)},
                            sort_keys=True).encode("utf-8"))
        for name in ALL_COLUMNS:
            h.update(self._cols[name].digest())
        return h.hexdigest()


def _int_blob(col):
    """A column's little-endian int64 blob, as a bytes-like object: the
    column is hashed or written in place, never copied."""
    return memoryview(np.ascontiguousarray(col, dtype="<i8")).cast("B")


def _float_blob(col):
    return memoryview(np.ascontiguousarray(col, dtype="<f8")).cast("B")


def _check_header(header, what: str) -> tuple[int, list[str]]:
    """Validate a decoded ``.trc`` header; returns ``(n, op_table)``."""
    if not isinstance(header, dict):
        raise ValueError(f"{what}: packed trace header is not an object")
    n, op_table = header.get("n"), header.get("op_table")
    if type(n) is not int or n < 0:
        raise ValueError(f"{what}: bad row count {n!r}")
    if not (isinstance(op_table, list)
            and all(isinstance(op, str) for op in op_table)):
        raise ValueError(f"{what}: op_table is not a list of strings")
    if header.get("columns") != list(ALL_COLUMNS):
        raise ValueError(f"{what}: unexpected column layout "
                         f"{header.get('columns')!r}")
    return n, op_table


def _check_columns(columns: Mapping[str, np.ndarray], op_table: list[str],
                   what: str) -> None:
    """Validate decoded binary columns: one numeric 1-D array per column,
    all of one length, every op code inside ``op_table``."""
    n = len(columns["rank"])
    for name in ALL_COLUMNS:
        col = columns[name]
        if col.shape != (n,):
            raise ValueError(f"{what}: column {name!r} has shape "
                             f"{col.shape}, expected ({n},)")
        if col.dtype.kind not in ("iuf" if name in FLOAT_COLUMNS else "iu"):
            raise ValueError(f"{what}: column {name!r} has dtype "
                             f"{col.dtype}")
    codes = columns["op_code"]
    if n and (codes.min() < 0 or codes.max() >= len(op_table)):
        raise ValueError(f"{what}: op code outside the op table")


# -- text-format parsing ------------------------------------------------------

def read_trace_columns(path: str | Path, *,
                       etype_size: int | Mapping[int, int] | None = None,
                       quarantine=None,
                       jobs: int | None = None,
                       cache: bool | None = None) -> TraceColumns:
    """Parse a Fig. 2 text trace into columns through the ingest engine.

    Delegates to :func:`repro.tracer.ingest.ingest_columns`: the bulk
    numpy tokenizer on clean blocks, the exact line parser on the rest,
    sharded parallel parsing with ``jobs`` > 1, and the persistent
    parse cache when a store is attached.  The header is skipped only
    when line 1 equals ``HEADER``; a malformed or non-UTF-8 row raises
    ``ValueError`` with ``path:lineno``, and legacy 8-field rows
    resolve ``AbsOffset`` through ``etype_size`` (scalar or
    ``{file_id: etype}`` map) or the ``ABS_OFFSET_UNKNOWN`` sentinel.
    ``read_trace_columns(path).to_records()`` is the per-row view.

    With ``quarantine`` (a
    :class:`~repro.tracer.quarantine.QuarantineReport`) malformed rows
    are recorded and skipped instead of raising; every well-formed row
    around them is salvaged, and column alignment is preserved (a row is
    appended only after *all* its fields parsed).

    ``jobs`` / ``cache`` tune the engine (``jobs=None`` parses
    serially; ``cache=None`` uses the parse cache when a persistent
    store is attached); see :mod:`repro.tracer.ingest`.
    """
    from .ingest import ingest_columns

    return ingest_columns(path, etype_size=etype_size, quarantine=quarantine,
                          jobs=jobs, cache=cache)
