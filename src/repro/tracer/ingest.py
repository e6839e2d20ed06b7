"""Parallel, cache-backed trace ingest: raw text -> ``TraceColumns``.

Every downstream stage (streaming characterization, the lattice, warm
studies) is now faster than reading its input; this engine closes that
gap with three independently-gated layers on top of the classic
line-wise parser (:func:`repro.tracer.columns._read_trace_columns_lines`),
which stays bit-for-bit the reference:

1. **Bulk tokenizer kernels** (:mod:`repro.tracer.bulk`): each file is
   read as newline-aligned ~4 MiB byte blocks and handed to the numpy
   kernel, which either proves the block is clean single-space 9-field
   rows and converts it wholesale, or declines -- in which case the
   block re-parses through the exact line-wise path (precise
   ``path:lineno`` errors, 8-field legacy rows, quarantine salvage).
   Blocks keep the parse inside the CPU cache: one whole-file pass over
   tens of MB gathers an order of magnitude slower than the same work
   done block-wise.

2. **Sharded parallel parse** (``jobs`` > 1, or the
   ``REPRO_INGEST_JOBS`` env var, or an :func:`ingest_jobs` override):
   one file splits into byte-range shards cut at line boundaries and
   fans out through the PR 8 executors layer; per-rank bundle files fan
   out whole.  Workers always parse in salvage mode into a local
   report with shard-relative line numbers; the master prefix-sums the
   shard line counts and replays the entries in ``(path, lineno)``
   order -- so quarantine reports are byte-identical to a serial
   ingest, and in strict mode the re-raised ``ValueError`` carries the
   exact classic ``path:lineno`` message.  Any worker infrastructure
   failure falls back to the serial path.

3. **Persistent parse cache**: with a persistent :mod:`repro.store`
   attached, a parsed file is materialized as its packed ``.trc``
   encoding keyed by the sha256 of the raw text (plus the
   ``etype_size`` mapping and a schema tag).  Re-ingesting an unchanged
   file becomes a binary bundle load.  Invalidation is automatic: any
   byte change to the text, a different ``etype_size``, or a cache
   schema bump produces a different key.  Quarantine-mode parses
   neither read nor write the cache (their output may be a subset of
   the file).

All three layers preserve exact output equality with the classic
parser -- same columns, same op-table interning order, same
``content_digest`` -- asserted down to the digest by
``tests/tracer/test_ingest.py`` and the CI ingest parity job.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path
from typing import Iterator, Mapping

from repro import obs
from repro import store as _store

from .bulk import bulk_available, bulk_parse
from .columns import (
    TraceColumns,
    _parse_chunk,
    _read_trace_columns_lines,
    check_chunk_rows,
    default_backend,
    iter_trace_column_chunks,
)
from .tracefile import HEADER

try:  # numpy is optional throughout the tracer
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy CI job
    np = None

__all__ = [
    "ENV_JOBS", "DEFAULT_JOBS_CAP", "parse_jobs", "resolve_jobs",
    "default_jobs", "ingest_jobs", "ingest_columns", "iter_ingest_chunks",
    "ingest_rank_files",
]

#: Environment override for the default shard fan-out.
ENV_JOBS = "REPRO_INGEST_JOBS"

#: CLI default: one job per CPU, capped (beyond ~8 shards the parse is
#: I/O-bound and extra workers only cost pickling).
DEFAULT_JOBS_CAP = 8

#: Parse block size.  Blocks must be small enough that the kernel's
#: gather/scatter passes stay cache-resident (a whole-file pass over
#: ~76 MB measured ~8x slower than the same rows in 4 MiB blocks) and
#: large enough to amortize per-block numpy overhead.
BLOCK_BYTES = 1 << 22

#: Files below this size are never sharded: process spin-up plus result
#: pickling costs more than the parse itself.
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


_jobs_override: int | None = None


@contextlib.contextmanager
def ingest_jobs(jobs: int | None):
    """Scoped jobs override -- the service's per-request QoS hook.

    ``with ingest_jobs(4): ...`` makes every ingest inside the block
    that did not pass an explicit ``jobs`` run with 4 shards.  ``None``
    leaves resolution untouched (nesting restores the outer value).
    """
    global _jobs_override
    if jobs is not None:
        jobs = parse_jobs(jobs, what="jobs")
    prev = _jobs_override
    if jobs is not None:
        _jobs_override = jobs
    try:
        yield
    finally:
        _jobs_override = prev


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective jobs count: explicit > :func:`ingest_jobs` scope >
    ``REPRO_INGEST_JOBS`` > 1 (the library default -- only the CLI
    defaults to :func:`default_jobs`)."""
    if jobs is not None:
        return parse_jobs(jobs, what="jobs")
    if _jobs_override is not None:
        return _jobs_override
    env = os.environ.get(ENV_JOBS)
    if env is not None and env.strip():
        return parse_jobs(env, what=ENV_JOBS)
    return 1


# -- block plumbing -----------------------------------------------------------

def _detect_header(buf: bytes) -> tuple[bytes, int]:
    """Split off the first (universal-newline) line of ``buf``.

    Returns ``(first_line_without_terminator, offset_of_line_2)``.
    Mirrors text-mode universal newlines: ``\\n``, ``\\r\\n`` and lone
    ``\\r`` all end the line.
    """
    i_n = buf.find(b"\n")
    i_r = buf.find(b"\r")
    if i_r != -1 and (i_n == -1 or i_r < i_n):
        end = i_r + (2 if buf[i_r + 1:i_r + 2] == b"\n" else 1)
        return buf[:i_r], end
    if i_n != -1:
        return buf[:i_n], i_n + 1
    return buf, len(buf)


def _read_first_line(f) -> tuple[bytes, int, bytes]:
    """Streaming :func:`_detect_header`: ``(first_line, offset, carry)``.

    ``offset`` is the byte offset of line 2 (0 for an empty file);
    ``carry`` is everything already read beyond the first line, which
    the block iterator prepends before continuing from ``f``.
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
    first, off = _detect_header(buf)
    return first, off, buf[off:]


def _is_header(first_line: bytes) -> bool:
    # errors="replace" cannot produce a false match (HEADER is ASCII),
    # and genuinely undecodable data still raises in the block parse,
    # as the classic text-mode reader would.
    return first_line.decode("utf-8", "replace").strip() == HEADER


def _memory_blocks(data: bytes, off: int) -> Iterator[bytes]:
    """Newline-aligned ~BLOCK_BYTES slices of an in-memory file."""
    n = len(data)
    while off < n:
        end = off + BLOCK_BYTES
        if end < n:
            nl = data.find(b"\n", end - 1)
            end = n if nl < 0 else nl + 1
        else:
            end = n
        yield data[off:end]
        off = end


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


def _universal_lines(block: bytes) -> list[str]:
    """Decode one block into text-mode lines (universal newlines)."""
    text = block.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def _intern(local_table, op_table: list[str], op_index: dict[str, int]):
    remap = []
    for op in local_table:
        code = op_index.get(op)
        if code is None:
            code = op_index[op] = len(op_table)
            op_table.append(op)
        remap.append(code)
    return remap


def _block_parts(blocks, path, start_lineno: int, op_table, op_index,
                 etype_size, quarantine, backend: str):
    """Parse newline-aligned blocks; yield ``(nlines, part_or_None)``.

    Each yielded part's op codes are already *global* (interned against
    the shared ``op_table`` in first-appearance order, exactly like the
    sequential parsers).  Blocks the bulk kernel cannot prove clean
    re-parse through the exact line-wise path with correct absolute
    line numbers, so errors and quarantine entries match the classic
    parser byte for byte.
    """
    lineno = start_lineno
    use_bulk = bulk_available()
    for buf in blocks:
        out = bulk_parse(buf) if use_bulk else None
        if out is not None:
            local = out.pop("op_table")
            nlines = len(out["rank"])
            remap = _intern(local, op_table, op_index)
            if nlines and remap != list(range(len(remap))):
                out["op_code"] = np.asarray(remap,
                                            dtype=np.int64)[out["op_code"]]
            if backend != "numpy":
                out = {k: v.tolist() for k, v in out.items()}
            part = TraceColumns(op_table=list(op_table), backend=backend,
                                **out)
            if obs.ACTIVE:
                obs.inc("ingest_rows_total", nlines, kernel="bulk")
            lineno += nlines
            yield nlines, part
            continue
        lines = _universal_lines(buf)
        cols = TraceColumns._empty_lists()
        _parse_chunk([ln + "\n" for ln in lines], lineno, path, cols,
                     op_table, op_index, etype_size, quarantine)
        nrows = len(cols["rank"])
        if obs.ACTIVE:
            obs.inc("ingest_rows_total", nrows, kernel="lines")
        part = None
        if nrows:
            part = TraceColumns(op_table=list(op_table), backend=backend,
                                **cols)
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
                   backend: str | None = None,
                   chunk_lines: int = 1 << 16,
                   quarantine=None,
                   jobs: int | None = None,
                   cache: bool | None = None,
                   executor=None) -> TraceColumns:
    """Parse one Fig. 2 text trace into columns through the engine.

    Drop-in for the classic parser (``read_trace_columns`` delegates
    here) with identical output, errors and quarantine behaviour.
    ``jobs`` > 1 shards the file across a process pool; ``cache=False``
    bypasses the parse cache (``None`` = use it when a persistent store
    is attached; quarantine-mode parses always bypass it).  ``executor``
    overrides the shard executor (tests inject a serial one).
    """
    path = Path(path)
    backend = backend or default_backend()
    njobs = resolve_jobs(jobs)
    store = _store.active()
    use_cache = (cache is not False and quarantine is None
                 and store is not None and store.persistent)
    if not use_cache and njobs <= 1 and not bulk_available():
        # nothing this engine adds can engage: the classic parser is
        # strictly faster (no byte-level re-read)
        return _read_trace_columns_lines(path, etype_size=etype_size,
                                         backend=backend,
                                         chunk_lines=chunk_lines,
                                         quarantine=quarantine)
    with obs.span("ingest.columns", cat="ingest", file=str(path)) as sp:
        if obs.ACTIVE:
            obs.inc("ingest_files_total")
        key = data = None
        if use_cache:
            data = path.read_bytes()
            key = _cache_key(data, etype_size)
            hit, blob = store.get(CACHE_NAME, key)
            if hit and isinstance(blob, (bytes, bytearray)):
                if obs.ACTIVE:
                    obs.inc("ingest_cache_hits_total")
                sp.annotate(cached=True)
                return TraceColumns.from_bytes(bytes(blob), backend=backend)
            if obs.ACTIVE:
                obs.inc("ingest_cache_misses_total")
        cols = None
        if njobs > 1:
            cols = _sharded_parse(path, etype_size, backend, quarantine,
                                  njobs, executor, data=data)
        if cols is None:
            try:
                cols = _serial_parse(path, data, etype_size, backend,
                                     quarantine)
            except UnicodeDecodeError:
                # the classic text-mode reader owns decode errors (and
                # their exact location); replay through it
                return _read_trace_columns_lines(
                    path, etype_size=etype_size, backend=backend,
                    chunk_lines=chunk_lines, quarantine=quarantine)
        if key is not None:
            store.put(CACHE_NAME, key, cols.to_bytes())
        sp.annotate(rows=len(cols))
        return cols


def _serial_parse(path: Path, data: bytes | None, etype_size, backend,
                  quarantine) -> TraceColumns:
    op_table: list[str] = []
    op_index: dict[str, int] = {}
    parts: list[TraceColumns] = []

    def collect(blocks, start_lineno):
        for _nlines, part in _block_parts(blocks, path, start_lineno,
                                          op_table, op_index, etype_size,
                                          quarantine, backend):
            if part is not None:
                parts.append(part)

    if data is not None:
        first, off = _detect_header(data)
        if _is_header(first):
            collect(_memory_blocks(data, off), 2)
        else:
            collect(_memory_blocks(data, 0), 1)
    else:
        with path.open("rb") as f:
            first, off, carry = _read_first_line(f)
            if _is_header(first):
                collect(_stream_blocks(f, carry), 2)
            elif off > 0 or first:
                # line 1 is data (possibly blank): re-prefix it so the
                # blocks preserve the exact line structure and numbering
                collect(_stream_blocks(f, first + b"\n" + carry), 1)
    return TraceColumns.concat(parts, backend=backend)


# -- sharded parallel parse ---------------------------------------------------

def _shard_worker(path_str: str, start: int, end: int, etype_size):
    """Worker body: parse one newline-aligned byte range of one file.

    Always parses in salvage mode with shard-relative line numbers;
    returns ``(trc_blob, nlines, entries)`` where ``entries`` is
    ``[(rel_lineno, rank, reason, line), ...]`` in file order.  The
    master decides whether the entries become quarantine notes or the
    classic strict ``ValueError``.
    """
    from .quarantine import QuarantineReport

    path = Path(path_str)
    report = QuarantineReport()
    op_table: list[str] = []
    op_index: dict[str, int] = {}
    backend = default_backend()
    parts: list[TraceColumns] = []
    nlines = 0
    with path.open("rb") as f:
        f.seek(start)
        for n, part in _block_parts(_range_blocks(f, end - start), path, 1,
                                    op_table, op_index, etype_size, report,
                                    backend):
            nlines += n
            if part is not None:
                parts.append(part)
    cols = TraceColumns.concat(parts, backend=backend)
    entries = [(e.lineno, e.rank, e.reason, e.line) for e in report.entries]
    return cols.to_bytes(), nlines, entries


def _replay_entries(path, entries, quarantine) -> None:
    """Gathered shard entries -> exact classic error or quarantine notes.

    ``entries`` must be ``(lineno, rank, reason, line)`` tuples already
    in ``(path, lineno)`` order, which the shard prefix-sum guarantees:
    that is what makes a parallel quarantine report byte-identical to a
    serial one.
    """
    if not entries:
        return
    if quarantine is None or quarantine.strict:
        lineno, _rank, reason, line = entries[0]
        raise ValueError(f"{path}:{lineno}: {reason}" +
                         (f": {line!r}" if line else ""))
    for lineno, rank, reason, line in entries:
        quarantine.note(path, rank, lineno, reason, line)


def _sharded_parse(path: Path, etype_size, backend, quarantine, njobs: int,
                   executor, data: bytes | None = None):
    """Fan one file out as byte-range shards; None = use the serial path."""
    try:
        size = path.stat().st_size
    except OSError:
        return None
    if data is not None:
        first, off = _detect_header(data)
    else:
        try:
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
        parts.append(TraceColumns.from_bytes(blob, backend=backend))
        for rel, rank, reason, line in shard_entries:
            entries.append((base + rel - 1, rank, reason, line))
        base += nlines
    _replay_entries(path, entries, quarantine)
    return TraceColumns.concat(parts, backend=backend)


def _run_shards(fn, jobs_map, njobs: int, executor):
    """Run shard jobs; dict of results, or None on any infra failure."""
    if executor is None:
        from repro.core.executors.pool import PoolExecutor

        executor = PoolExecutor(max_workers=min(njobs, len(jobs_map)))
    results = {}
    try:
        for name, failure, res in executor.run(fn, jobs_map,
                                               max_workers=njobs):
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
                       backend: str | None = None,
                       chunk_rows: int = 1 << 16,
                       quarantine=None,
                       jobs: int | None = None,
                       cache: bool | None = None) -> Iterator[TraceColumns]:
    """Stream a text trace as ``TraceColumns`` chunks of <= chunk_rows.

    The engine-powered twin of
    :func:`repro.tracer.columns.iter_trace_column_chunks` with the same
    contract (growing op-table snapshots, global codes, identical
    concatenation).  With ``jobs`` = 1 and no cache hit available this
    streams for real -- peak memory is O(block) -- through the bulk
    kernel.  ``jobs`` > 1 or a warm parse cache materialize the file
    via :func:`ingest_columns` first (trading the O(block) bound for
    speed) and re-slice it as O(1) views.
    """
    check_chunk_rows(chunk_rows)
    path = Path(path)
    backend = backend or default_backend()
    njobs = resolve_jobs(jobs)
    store = _store.active()
    use_cache = (cache is not False and quarantine is None
                 and store is not None and store.persistent)
    if njobs > 1 or use_cache:
        cols = ingest_columns(path, etype_size=etype_size, backend=backend,
                              quarantine=quarantine, jobs=njobs, cache=cache)
        for lo in range(0, len(cols), chunk_rows):
            yield cols.take(range(lo, min(lo + chunk_rows, len(cols))))
        return
    if not bulk_available():
        yield from iter_trace_column_chunks(path, etype_size=etype_size,
                                            backend=backend,
                                            chunk_rows=chunk_rows,
                                            quarantine=quarantine)
        return
    op_table: list[str] = []
    op_index: dict[str, int] = {}
    with path.open("rb") as f:
        first, off, carry = _read_first_line(f)
        if _is_header(first):
            blocks, lineno = _stream_blocks(f, carry), 2
        elif off > 0 or first:
            blocks, lineno = _stream_blocks(f, first + b"\n" + carry), 1
        else:
            return
        for _nlines, part in _block_parts(blocks, path, lineno, op_table,
                                          op_index, etype_size, quarantine,
                                          backend):
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
    from .quarantine import QuarantineReport

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
                      backend: str | None = None,
                      quarantine=None,
                      jobs: int | None = None,
                      executor=None) -> list[TraceColumns]:
    """Parse many per-rank trace files (``paths`` indexed by rank).

    The bundle-level fan-out: with ``jobs`` > 1 whole files distribute
    across a process pool (each worker may itself hit the parse cache),
    gathered back in rank order so missing-file notes, quarantine
    entries and strict errors replay exactly as the serial rank-ordered
    loop produces them.  Serial and parallel outputs -- parts, reports,
    raises -- are identical.
    """
    paths = [Path(p) for p in paths]
    backend = backend or default_backend()
    njobs = resolve_jobs(jobs)
    salvaging = quarantine is not None and not quarantine.strict
    if njobs > 1 and len(paths) > 1:
        parts = _parallel_rank_files(paths, etype_size, backend, quarantine,
                                     salvaging, njobs, executor)
        if parts is not None:
            return parts
    parts = []
    for rank, p in enumerate(paths):
        try:
            parts.append(ingest_columns(p, etype_size=etype_size,
                                        backend=backend,
                                        quarantine=quarantine, jobs=1))
        except OSError as exc:
            if not salvaging:
                raise
            quarantine.note(p, rank, 0,
                            f"missing trace file: {type(exc).__name__}")
    return parts


def _parallel_rank_files(paths, etype_size, backend, quarantine, salvaging,
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
        parts.append(TraceColumns.from_bytes(blob, backend=backend))
        for lineno, rank, reason, line in entries:
            quarantine.note(p, rank, lineno, reason, line)
    return parts
