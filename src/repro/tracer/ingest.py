"""Trace ingest: raw Fig. 2 text -> ``TraceColumns``.

This module owns the only text-trace parser.  It has exactly two row
parsers, and every text entry point (``read_trace_columns``,
``TraceBundle.load``, ``stream_bundle``) goes through them:

1. **Bulk tokenizer kernel** (:func:`repro.tracer.bulk.bulk_parse`):
   each file is read as newline-aligned ~4 MiB byte blocks and handed
   to the numpy kernel, which either proves the block is clean
   single-space 9-field rows and converts it wholesale, or declines.
   Blocks keep the parse inside the CPU cache: one whole-file pass over
   tens of MB gathers an order of magnitude slower than the same work
   done block-wise.

2. **Exact line parser** (:func:`_parse_lines`): a declined block
   re-parses row by row from its raw byte lines.  This path owns
   everything the kernel refuses: UTF-8 decoding, ``path:lineno``
   errors, 8-field legacy rows, blank lines, odd whitespace and
   quarantine salvage.

Two layers sit on top:

* **Sharded parallel parse** (an explicit ``jobs`` > 1; the library
  default is 1, the ``repro-io model`` default :func:`default_jobs`):
  one file splits into byte-range shards cut at line boundaries and
  fans out through a ``PoolExecutor`` of ``min(jobs, shards)``
  workers; per-rank bundle files fan out whole.  Workers always parse in salvage mode into a local report
  with shard-relative line numbers; the master prefix-sums the shard
  line counts and replays the entries in ``(path, lineno)`` order --
  so quarantine reports are byte-identical to a serial ingest, and in
  strict mode the re-raised ``ValueError`` carries the same
  ``path:lineno`` message.  Any worker infrastructure failure falls
  back to the serial path.

* **Persistent parse cache**: with a persistent :mod:`repro.store`
  attached, a parsed file is materialized as its packed ``.trc``
  encoding keyed by the sha256 of the raw text (plus the
  ``etype_size`` mapping and a schema tag).  Re-ingesting an unchanged
  file becomes a binary bundle load.  Invalidation is automatic: any
  byte change to the text, a different ``etype_size``, or a cache
  schema bump produces a different key.  An entry that fails to
  decode is a miss (re-parsed and overwritten), never an error.
  Quarantine-mode parses neither read nor write the cache (their
  output may be a subset of the file).

Serial, sharded, streamed and cached ingests give the same columns,
op-table interning order, ``content_digest``, errors and quarantine
reports; ``tests/tracer/test_ingest.py`` asserts this against the
record-by-record oracle in ``tests/tracer/trace_reference.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro import obs
from repro import store as _store

from .bulk import bulk_parse
from .columns import (
    I64_MAX,
    I64_MIN,
    TraceColumns,
    check_chunk_rows,
    intern_ops,
)
from .quarantine import QuarantineReport, guess_rank
from .tracefile import ABS_OFFSET_UNKNOWN, HEADER

__all__ = [
    "DEFAULT_JOBS_CAP", "parse_jobs", "resolve_jobs", "default_jobs",
    "ingest_columns", "iter_ingest_chunks", "ingest_rank_files",
]

#: CLI default: one job per CPU, capped (beyond ~8 shards the parse is
#: I/O-bound and extra workers only cost pickling).
DEFAULT_JOBS_CAP = 8

#: Parse block size.  Blocks must be small enough that the kernel's
#: gather/scatter passes stay cache-resident (a whole-file pass over
#: ~76 MB measured ~8x slower than the same rows in 4 MiB blocks) and
#: large enough to amortize per-block numpy overhead.
BLOCK_BYTES = 1 << 22

#: Bytes a pool job must get at least: a file below this size is never
#: sharded, and a bundle of per-rank files fans out to at most one job
#: per this many bytes -- process spin-up plus result pickling costs
#: more than the parse itself.
MIN_SHARD_BYTES = 1 << 22

#: Store cache (directory) name for parse-cache entries.
CACHE_NAME = "ingest"

#: Bump to invalidate every cached parse (key ingredient, not payload).
_CACHE_SCHEMA = 1


# -- jobs resolution ----------------------------------------------------------

def parse_jobs(value, what: str = "--jobs") -> int:
    """Validate a jobs count: an integer >= 1, clear error otherwise."""
    try:
        jobs = int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} must be an integer >= 1, got {value!r}") from None
    if jobs < 1:
        raise ValueError(f"{what} must be >= 1, got {jobs}")
    return jobs


def default_jobs() -> int:
    """The CLI default fan-out: cpu count, capped at DEFAULT_JOBS_CAP."""
    return min(os.cpu_count() or 1, DEFAULT_JOBS_CAP)


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective jobs count: a validated explicit value, else 1 (the
    library default -- only the CLI defaults to :func:`default_jobs`)."""
    return 1 if jobs is None else parse_jobs(jobs, what="jobs")


# -- block plumbing -----------------------------------------------------------

def _read_first_line(f) -> tuple[bytes, int, bytes]:
    """Split the first (universal-newline) line off an open binary file.

    Returns ``(first_line, offset, carry)``: the line without its
    terminator (``\\n``, ``\\r\\n`` or a lone ``\\r``), the byte offset
    of line 2 (0 for an empty file), and everything already read beyond
    the first line, which the block iterator prepends before continuing
    from ``f``.
    """
    buf = b""
    while True:
        chunk = f.read(1 << 16)
        if not chunk:
            break
        buf += chunk
        i_n = buf.find(b"\n")
        i_r = buf.find(b"\r")
        # a trailing \r may be half of a \r\n pair: read one more chunk
        if i_n != -1 or (i_r != -1 and i_r < len(buf) - 1):
            break
    i_n = buf.find(b"\n")
    i_r = buf.find(b"\r")
    if i_r != -1 and (i_n == -1 or i_r < i_n):
        off = i_r + (2 if buf[i_r + 1:i_r + 2] == b"\n" else 1)
        return buf[:i_r], off, buf[off:]
    if i_n != -1:
        return buf[:i_n], i_n + 1, buf[i_n + 1:]
    return buf, len(buf), b""


def _is_header(first_line: bytes) -> bool:
    # errors="replace" cannot produce a false match (HEADER is ASCII);
    # an undecodable line 1 is data, rejected by the line parser.
    return first_line.decode("utf-8", "replace").strip() == HEADER


def _stream_blocks(f, carry: bytes = b"") -> Iterator[bytes]:
    """Newline-aligned blocks from an open binary file."""
    while True:
        buf = f.read(BLOCK_BYTES)
        if carry:
            buf = carry + buf
            carry = b""
        if not buf:
            return
        if not buf.endswith(b"\n"):
            buf += f.readline()
        yield buf


def _text_blocks(f) -> tuple[Iterator[bytes], int]:
    """``(blocks, first_lineno)`` for a whole trace file open in binary.

    The Fig. 2 header is skipped only when line 1 equals ``HEADER``
    (surrounding whitespace aside); otherwise line 1 -- possibly blank
    -- is re-prefixed so the blocks keep the exact line numbering.
    """
    first, off, carry = _read_first_line(f)
    if _is_header(first):
        return _stream_blocks(f, carry), 2
    if off > 0 or first:
        return _stream_blocks(f, first + b"\n" + carry), 1
    return iter(()), 1


def _range_blocks(f, remaining: int) -> Iterator[bytes]:
    """Blocks over one byte-range shard (its end is line-aligned)."""
    while remaining > 0:
        buf = f.read(min(BLOCK_BYTES, remaining))
        if not buf:
            return
        remaining -= len(buf)
        if remaining > 0 and not buf.endswith(b"\n"):
            # align inside the shard; the shard end is a line boundary,
            # so this readline can never cross into the next shard
            tail = f.readline()
            buf += tail
            remaining -= len(tail)
        yield buf


# -- the exact line parser ----------------------------------------------------

def _reject(path, lineno: int, reason: str, line: str, quarantine) -> None:
    """Strict: raise ``path:lineno: reason: 'line'``; salvage: note it."""
    if quarantine is None or quarantine.strict:
        raise ValueError(f"{path}:{lineno}: {reason}: {line!r}") from None
    quarantine.note(path, guess_rank(line), lineno, reason, line)


def _parse_lines(lines, first_lineno: int, path, cols, op_table, op_index,
                 etype_size, quarantine) -> None:
    """Parse raw byte ``lines`` (the first is line ``first_lineno``).

    Appends to the column lists ``cols`` and interns ops into
    ``op_table``/``op_index``.  Each line decodes as UTF-8, blank lines
    are skipped, and a row must carry 8 or 9 whitespace-separated
    fields whose integers fit int64.  Legacy 8-field rows resolve
    ``AbsOffset`` as ``offset * etype_size`` (scalar or ``{file_id:
    etype}`` map) or the ``ABS_OFFSET_UNKNOWN`` sentinel.  A bad line
    raises ``ValueError("path:lineno: ...")``, or with a salvaging
    ``quarantine`` becomes one entry while every row around it
    survives.  Every field parses before anything is appended, so a
    skipped row never skews column alignment.
    """
    is_map = isinstance(etype_size, Mapping)
    for lineno, raw in enumerate(lines, start=first_lineno):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            _reject(path, lineno, "trace line is not valid UTF-8",
                    raw.decode("utf-8", "backslashreplace").strip(),
                    quarantine)
            continue
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (8, 9):
            _reject(path, lineno,
                    f"malformed trace line ({len(parts)} fields)", line,
                    quarantine)
            continue
        try:
            rank = int(parts[0])
            fid = int(parts[1])
            off = int(parts[3])
            tick = int(parts[4])
            rs = int(parts[5])
            t = float(parts[6])
            d = float(parts[7])
            if len(parts) == 9:
                abs_off = int(parts[8])
            else:
                es = etype_size.get(fid) if is_map else etype_size
                abs_off = off * es if es else ABS_OFFSET_UNKNOWN
        except ValueError:
            _reject(path, lineno, "malformed trace line", line, quarantine)
            continue
        ints = (rank, fid, off, tick, rs, abs_off)
        if min(ints) < I64_MIN or max(ints) > I64_MAX:
            _reject(path, lineno, "integer field outside int64", line,
                    quarantine)
            continue
        op = parts[2]
        code = op_index.get(op)
        if code is None:
            code = op_index[op] = len(op_table)
            op_table.append(op)
        cols["rank"].append(rank)
        cols["file_id"].append(fid)
        cols["op_code"].append(code)
        cols["offset"].append(off)
        cols["tick"].append(tick)
        cols["request_size"].append(rs)
        cols["time"].append(t)
        cols["duration"].append(d)
        cols["abs_offset"].append(abs_off)


def _block_parts(blocks, path, start_lineno: int, op_table, op_index,
                 etype_size, quarantine):
    """Parse newline-aligned blocks; yield ``(nlines, part_or_None)``.

    Each yielded part's op codes are already *global* (interned against
    the shared ``op_table`` in first-appearance order).  Blocks the bulk
    kernel cannot prove clean re-parse through :func:`_parse_lines`
    with absolute line numbers.
    """
    lineno = start_lineno
    for buf in blocks:
        out = bulk_parse(buf)
        if out is not None:
            local = out.pop("op_table")
            nlines = len(out["rank"])
            remap = intern_ops(local, op_table, op_index)
            if nlines and remap != list(range(len(remap))):
                out["op_code"] = np.asarray(remap,
                                            dtype=np.int64)[out["op_code"]]
            part = TraceColumns(op_table=list(op_table), **out)
            if obs.ACTIVE:
                obs.inc("ingest_rows_total", nlines, kernel="bulk")
            lineno += nlines
            yield nlines, part
            continue
        lines = buf.splitlines()  # bytes: only \n, \r\n and \r end a line
        cols = TraceColumns._empty_lists()
        _parse_lines(lines, lineno, path, cols, op_table, op_index,
                     etype_size, quarantine)
        nrows = len(cols["rank"])
        if obs.ACTIVE:
            obs.inc("ingest_rows_total", nrows, kernel="lines")
        part = None
        if nrows:
            part = TraceColumns(op_table=list(op_table), **cols)
        lineno += len(lines)
        yield len(lines), part


# -- parse cache --------------------------------------------------------------

def _etype_token(etype_size):
    if isinstance(etype_size, Mapping) and not isinstance(etype_size, dict):
        return dict(etype_size)
    return etype_size


def _cache_key(data: bytes, etype_size):
    return ("ingest", _CACHE_SCHEMA, hashlib.sha256(data).hexdigest(),
            _etype_token(etype_size))


# -- single-file ingest -------------------------------------------------------

def ingest_columns(path: str | Path, *,
                   etype_size=None,
                   quarantine=None,
                   jobs: int | None = None,
                   cache: bool | None = None,
                   executor=None) -> TraceColumns:
    """Parse one Fig. 2 text trace into columns through the engine.

    ``read_trace_columns`` delegates here.  The header is skipped only
    when line 1 equals ``HEADER``; every other line goes through the
    bulk kernel or the exact line parser (:func:`_parse_lines`), which
    fixes the errors and quarantine entries.  ``jobs`` > 1 shards the
    file across a process pool; ``cache=False`` bypasses the parse
    cache (``None`` = use it when a persistent store is attached;
    quarantine-mode parses always bypass it).  A cache entry that fails
    to decode counts as a miss and is overwritten.  ``executor``
    overrides the shard executor (tests inject a serial one).
    """
    path = Path(path)
    njobs = resolve_jobs(jobs)
    store = _store.active()
    use_cache = (cache is not False and quarantine is None
                 and store is not None and store.persistent)
    with obs.span("ingest.columns", cat="ingest", file=str(path)) as sp:
        if obs.ACTIVE:
            obs.inc("ingest_files_total")
        key = data = None
        if use_cache:
            data = path.read_bytes()
            key = _cache_key(data, etype_size)
            hit, blob = store.get(CACHE_NAME, key)
            cols = _decode_cached(blob) if hit else None
            if cols is not None:
                if obs.ACTIVE:
                    obs.inc("ingest_cache_hits_total")
                sp.annotate(cached=True)
                return cols
            if obs.ACTIVE:
                obs.inc("ingest_cache_misses_total")
        cols = None
        if njobs > 1:
            cols = _sharded_parse(path, etype_size, quarantine, njobs,
                                  executor)
        if cols is None:
            with (io.BytesIO(data) if data is not None
                  else path.open("rb")) as f:
                cols = _serial_parse(f, path, etype_size, quarantine)
        if key is not None:
            store.put(CACHE_NAME, key, cols.to_bytes())
        sp.annotate(rows=len(cols))
        return cols


def _decode_cached(blob) -> TraceColumns | None:
    """A parse-cache payload as columns; None when it does not decode
    (a corrupt or foreign entry is a miss, never an ingest failure)."""
    if not isinstance(blob, (bytes, bytearray)):
        return None
    try:
        return TraceColumns.from_bytes(blob)
    except ValueError:
        return None


def _serial_parse(f, path: Path, etype_size, quarantine) -> TraceColumns:
    """One whole trace file (open in binary mode) as columns."""
    blocks, lineno = _text_blocks(f)
    op_table: list[str] = []
    op_index: dict[str, int] = {}
    return TraceColumns.concat([
        part for _nlines, part in _block_parts(
            blocks, path, lineno, op_table, op_index, etype_size, quarantine)
        if part is not None])


# -- sharded parallel parse ---------------------------------------------------

def _shard_worker(path_str: str, start: int, end: int, etype_size):
    """Worker body: parse one newline-aligned byte range of one file.

    Always parses in salvage mode with shard-relative line numbers;
    returns ``(trc_blob, nlines, entries)`` where ``entries`` is
    ``[(rel_lineno, rank, reason, line), ...]`` in file order.  The
    master decides whether the entries become quarantine notes or the
    strict ``ValueError``.
    """
    path = Path(path_str)
    report = QuarantineReport()
    op_table: list[str] = []
    op_index: dict[str, int] = {}
    parts: list[TraceColumns] = []
    nlines = 0
    with path.open("rb") as f:
        f.seek(start)
        for n, part in _block_parts(_range_blocks(f, end - start), path, 1,
                                    op_table, op_index, etype_size, report):
            nlines += n
            if part is not None:
                parts.append(part)
    cols = TraceColumns.concat(parts)
    entries = [(e.lineno, e.rank, e.reason, e.line) for e in report.entries]
    return cols.to_bytes(), nlines, entries


def _replay_entries(path, entries, quarantine) -> None:
    """Gathered shard entries -> the strict error or quarantine notes.

    ``entries`` must be ``(lineno, rank, reason, line)`` tuples already
    in ``(path, lineno)`` order, which the shard prefix-sum guarantees:
    that is what makes a parallel quarantine report byte-identical to a
    serial one.
    """
    for lineno, _rank, reason, line in entries:
        _reject(path, lineno, reason, line, quarantine)


def _sharded_parse(path: Path, etype_size, quarantine, njobs: int,
                   executor):
    """Fan one file out as byte-range shards; None = use the serial path."""
    try:
        size = path.stat().st_size
        with path.open("rb") as f:
            first, off, _carry = _read_first_line(f)
    except OSError:
        return None
    skip = _is_header(first)
    start = off if skip else 0
    lineno0 = 2 if skip else 1
    nshards = int(min(njobs, max(1, (size - start) // MIN_SHARD_BYTES)))
    if nshards <= 1:
        return None
    bounds = [start]
    with path.open("rb") as f:
        for i in range(1, nshards):
            target = start + (size - start) * i // nshards
            if target <= bounds[-1]:
                continue
            f.seek(target)
            f.readline()  # skip to the next line boundary
            pos = min(f.tell(), size)
            if bounds[-1] < pos < size:
                bounds.append(pos)
    bounds.append(size)
    names = [f"shard{i:04d}" for i in range(len(bounds) - 1)]
    jobs_map = {name: (str(path), lo, hi, etype_size)
                for name, lo, hi in zip(names, bounds, bounds[1:])}
    if len(jobs_map) <= 1:
        return None
    if obs.ACTIVE:
        obs.inc("ingest_shards_total", len(jobs_map))
    results = _run_shards(_shard_worker, jobs_map, njobs, executor)
    if results is None:
        return None
    parts: list[TraceColumns] = []
    entries: list[tuple] = []
    base = lineno0
    for name in names:
        blob, nlines, shard_entries = results[name]
        parts.append(TraceColumns.from_bytes(blob))
        for rel, rank, reason, line in shard_entries:
            entries.append((base + rel - 1, rank, reason, line))
        base += nlines
    _replay_entries(path, entries, quarantine)
    return TraceColumns.concat(parts)


def _run_shards(fn, jobs_map, njobs: int, executor):
    """Run shard jobs; dict of results, or None on any infra failure."""
    if executor is None:
        from repro.core.executors.pool import PoolExecutor

        executor = PoolExecutor(max_workers=min(njobs, len(jobs_map)))
    results = {}
    try:
        with contextlib.closing(executor.run(fn, jobs_map)) as outcomes:
            for name, failure, res in outcomes:
                if failure is not None:
                    return None
                results[name] = res
    except Exception:
        return None
    if len(results) != len(jobs_map):
        return None
    return results


# -- streaming ingest ---------------------------------------------------------

def iter_ingest_chunks(path: str | Path, *,
                       etype_size=None,
                       chunk_rows: int = 1 << 16,
                       quarantine=None,
                       jobs: int | None = None,
                       cache: bool | None = None) -> Iterator[TraceColumns]:
    """Stream a text trace as ``TraceColumns`` chunks of <= chunk_rows.

    Each chunk carries a (growing) op-table snapshot and global op
    codes; the chunks concatenate to :func:`ingest_columns`' result,
    with the same errors and quarantine entries.  With ``jobs`` = 1
    and no cache hit available this streams for real -- peak memory is
    O(block).  ``jobs`` > 1 or a warm parse cache materialize the file
    via :func:`ingest_columns` first (trading the O(block) bound for
    speed) and re-slice it as O(1) views.
    """
    check_chunk_rows(chunk_rows)
    path = Path(path)
    njobs = resolve_jobs(jobs)
    store = _store.active()
    use_cache = (cache is not False and quarantine is None
                 and store is not None and store.persistent)
    if njobs > 1 or use_cache:
        cols = ingest_columns(path, etype_size=etype_size,
                              quarantine=quarantine, jobs=njobs, cache=cache)
        for lo in range(0, len(cols), chunk_rows):
            yield cols.take(range(lo, min(lo + chunk_rows, len(cols))))
        return
    op_table: list[str] = []
    op_index: dict[str, int] = {}
    with path.open("rb") as f:
        blocks, lineno = _text_blocks(f)
        for _nlines, part in _block_parts(blocks, path, lineno, op_table,
                                          op_index, etype_size, quarantine):
            if part is None:
                continue
            n = len(part)
            if n <= chunk_rows:
                yield part
            else:
                for lo in range(0, n, chunk_rows):
                    yield part.take(range(lo, min(lo + chunk_rows, n)))


# -- bundle (many per-rank files) ingest --------------------------------------

def _file_worker(path_str: str, etype_size, salvage: bool):
    """Worker body: one whole per-rank trace file.

    Returns a tagged tuple the master replays in rank order:
    ``("ok", trc_blob, entries)``, ``("valueerror", message)`` or
    ``("oserror", exc_type_name, message)``.  The first (strict) parse
    attempt is cache-eligible; only files that fail it re-parse in
    salvage mode (cache bypassed -- salvaged output is a subset).
    """
    try:
        try:
            cols = ingest_columns(path_str, etype_size=etype_size, jobs=1)
            return ("ok", cols.to_bytes(), [])
        except ValueError as exc:
            if not salvage:
                return ("valueerror", str(exc))
            report = QuarantineReport()
            cols = ingest_columns(path_str, etype_size=etype_size, jobs=1,
                                  quarantine=report, cache=False)
            entries = [(e.lineno, e.rank, e.reason, e.line)
                       for e in report.entries]
            return ("ok", cols.to_bytes(), entries)
    except OSError as exc:
        return ("oserror", type(exc).__name__, str(exc))


def ingest_rank_files(paths, *,
                      etype_size=None,
                      quarantine=None,
                      jobs: int | None = None,
                      executor=None) -> list[TraceColumns]:
    """Parse many per-rank trace files (``paths`` indexed by rank).

    The bundle-level fan-out: with ``jobs`` > 1 whole files distribute
    across a process pool (each worker may itself hit the parse cache),
    gathered back in rank order so missing-file notes, quarantine
    entries and strict errors replay exactly as the serial rank-ordered
    loop produces them.  The pool gets at most one job per
    ``MIN_SHARD_BYTES`` of the bundle, so a small bundle starts none.
    Serial and parallel outputs -- parts, reports, raises -- are
    identical.
    """
    paths = [Path(p) for p in paths]
    njobs = resolve_jobs(jobs)
    salvaging = quarantine is not None and not quarantine.strict
    if njobs > 1 and len(paths) > 1:
        size = sum(p.stat().st_size for p in paths if p.is_file())
        njobs = min(njobs, size // MIN_SHARD_BYTES)
    if njobs > 1 and len(paths) > 1:
        parts = _parallel_rank_files(paths, etype_size, quarantine,
                                     salvaging, njobs, executor)
        if parts is not None:
            return parts
    parts = []
    for rank, p in enumerate(paths):
        try:
            parts.append(ingest_columns(p, etype_size=etype_size,
                                        quarantine=quarantine, jobs=1))
        except OSError as exc:
            if not salvaging:
                raise
            quarantine.note(p, rank, 0,
                            f"missing trace file: {type(exc).__name__}")
    return parts


def _parallel_rank_files(paths, etype_size, quarantine, salvaging,
                         njobs: int, executor):
    import builtins

    jobs_map = {f"rank{idx:05d}": (str(p), etype_size, salvaging)
                for idx, p in enumerate(paths)}
    if obs.ACTIVE:
        obs.inc("ingest_shards_total", len(jobs_map))
    results = _run_shards(_file_worker, jobs_map, njobs, executor)
    if results is None:
        return None
    parts = []
    for idx, p in enumerate(paths):
        res = results[f"rank{idx:05d}"]
        tag = res[0]
        if tag == "oserror":
            if not salvaging:
                exc_cls = getattr(builtins, res[1], OSError)
                if not (isinstance(exc_cls, type)
                        and issubclass(exc_cls, OSError)):
                    exc_cls = OSError
                raise exc_cls(res[2])
            quarantine.note(p, idx, 0, f"missing trace file: {res[1]}")
            continue
        if tag == "valueerror":
            raise ValueError(res[1])
        _tag, blob, entries = res
        parts.append(TraceColumns.from_bytes(blob))
        for lineno, rank, reason, line in entries:
            quarantine.note(p, rank, lineno, reason, line)
    return parts
