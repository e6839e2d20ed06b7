"""Streaming characterization: bit-identical to the batch paths.

``LAPFolder`` / ``IOModel.from_stream`` consume the trace chunk-wise
with O(open bursts) buffering instead of materializing full columns.
Like the columnar kernels they are optimizations, not approximations:
on any chunking of any trace they must produce the same digest, the
same ``LAPEntry`` list and the same model as ``extract_laps`` /
``IOModel.from_columns`` -- on both column input shapes
(``tests.conftest.COLUMN_SOURCES``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    BTIOParams,
    MADbench2Params,
    btio_program,
    madbench2_program,
)
from repro.core.lap import LAPFolder
from repro.core.model import IOModel
from repro.tracer.columns import StreamDigest, TraceColumns
from repro.tracer.hooks import TraceBundle, stream_bundle, trace_run
from repro.tracer.ingest import iter_ingest_chunks
from repro.tracer.tracefile import TraceRecord
from tests.conftest import COLUMN_SOURCES, as_source, columns_from
from tests.core.lap_reference import extract_laps
from tests.tracer.trace_reference import reference_columns

OPS = ["MPI_File_write_at_all", "MPI_File_read_at_all", "MPI_File_write_at"]


def chop(cols, sizes):
    """Slice a TraceColumns into chunks of the given sizes (cycled)."""
    out, lo, i = [], 0, 0
    while lo < len(cols):
        sz = sizes[i % len(sizes)]
        i += 1
        out.append(cols.take(range(lo, min(lo + sz, len(cols)))))
        lo += sz
    return out


def assert_stream_matches(records, sizes, source):
    cols = columns_from(records, source)
    folder = LAPFolder()
    for chunk in chop(cols, sizes):
        folder.push(chunk)
    assert folder.finish() == extract_laps(records)
    assert folder.content_digest() == cols.content_digest()
    assert folder.nrows == len(records)


# -- randomized traces --------------------------------------------------------

row = st.tuples(
    st.integers(0, 3),             # rank
    st.integers(0, 2),             # file_id
    st.integers(0, len(OPS) - 1),  # op
    st.integers(0, 63),            # offset
    st.integers(1, 3),             # tick delta
    st.sampled_from([4096, 65536]),
)


@COLUMN_SOURCES
@given(st.lists(row, max_size=60), st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_random_traces_any_chunking(source, rows, chunk):
    records, tick = [], {}
    for i, (rank, fid, op, off, dt, rs) in enumerate(rows):
        tick[rank] = tick.get(rank, 0) + dt
        records.append(TraceRecord(rank, fid, OPS[op], off * 8, tick[rank],
                                   rs, 0.01 * i, 0.001, off * 64))
    assert_stream_matches(records, [chunk], source)


@COLUMN_SOURCES
def test_interleaved_ranks_split_bursts(source):
    """A (rank, file) stream interrupted by other ranks resumes its
    burst exactly like the batch grouping does."""
    records, tick = [], 0
    for rep in range(12):
        for rank in (0, 1, 0, 2):
            tick += 1
            records.append(TraceRecord(rank, 0, OPS[0], rep * 4096, tick,
                                       4096, 0.01 * tick, 1e-4, rep * 4096))
    assert_stream_matches(records, [3], source)


@COLUMN_SOURCES
def test_per_chunk_op_tables_remap(source):
    """Chunks built independently intern different op tables; the
    folder must remap them onto one global table (digest included)."""
    recs_a = [TraceRecord(0, 0, OPS[1], i * 8, i + 1, 4096,
                          0.01 * i, 1e-4, i * 8) for i in range(5)]
    recs_b = [TraceRecord(0, 0, OPS[0], i * 8, i + 10, 4096,
                          0.01 * i, 1e-4, i * 8) for i in range(5)]
    parts = [columns_from(r, source) for r in (recs_a, recs_b)]
    folder = LAPFolder()
    for p in parts:
        folder.push(p)
    whole = columns_from(recs_a + recs_b, source)
    assert folder.op_table == whole.op_table
    assert folder.content_digest() == whole.content_digest()
    assert folder.finish() == extract_laps(recs_a + recs_b)


@COLUMN_SOURCES
def test_empty_and_tiny_chunks(source):
    records = [TraceRecord(0, 0, OPS[0], i * 8, i + 1, 4096,
                           0.01 * i, 1e-4, i * 8) for i in range(9)]
    cols = columns_from(records, source)
    empty = columns_from([], source)
    chunks = [empty] + chop(cols, [1]) + [empty]
    folder = LAPFolder()
    for ch in chunks:
        folder.push(ch)
    assert folder.finish() == extract_laps(records)
    assert folder.content_digest() == cols.content_digest()


def test_stream_digest_standalone():
    """StreamDigest over chunked column lists equals content_digest."""
    records = [TraceRecord(r, 0, OPS[r % 3], i * 8, i + 1, 4096,
                           0.01 * i, 1e-4, i * 8)
               for i, r in enumerate([0, 0, 1, 1, 0, 2])]
    cols = TraceColumns.from_records(records)
    sd = StreamDigest()
    lists = cols.column_lists()
    for lo in (0, 2, 4):
        sd.update({k: v[lo:lo + 2] for k, v in lists.items()})
    assert sd.finalize(cols.op_table) == cols.content_digest()


# -- full models on the seed apps ---------------------------------------------

@pytest.fixture(scope="module")
def bt_bundle():
    return trace_run(btio_program, 4, None,
                     BTIOParams(cls="A", comm_events_per_step=2))


@pytest.fixture(scope="module")
def mb_bundle():
    return trace_run(madbench2_program, 4, None, MADbench2Params(kpix=4))


@COLUMN_SOURCES
@pytest.mark.parametrize("app", ["bt", "madbench2"])
def test_model_bit_identical(app, source, bt_bundle, mb_bundle, request):
    bundle = bt_bundle if app == "bt" else mb_bundle
    cols = as_source(bundle.columns, source)
    m_stream = IOModel.from_stream(iter(chop(cols, [29])), bundle.metadata,
                                   bundle.nprocs, app_name=app)
    m_cols = IOModel.from_columns(cols, bundle.metadata, bundle.nprocs,
                                  app_name=app)
    assert m_stream.to_json() == m_cols.to_json()


def test_stream_bundle_text_and_binary(tmp_path, bt_bundle):
    """stream_bundle chunks a saved directory; the streamed model
    equals the loaded-bundle model for both on-disk layouts."""
    bt_bundle.save(tmp_path / "txt")
    bt_bundle.save(tmp_path / "bin", binary=True)
    for sub in ("txt", "bin"):
        nprocs, metadata, chunks = stream_bundle(tmp_path / sub,
                                                 chunk_rows=23)
        m_stream = IOModel.from_stream(chunks, metadata, nprocs,
                                       app_name="bt")
        loaded = TraceBundle.load(tmp_path / sub)
        m_batch = IOModel.from_trace(loaded, "bt")
        assert m_stream.to_json() == m_batch.to_json(), sub


def test_iter_chunks_matches_batch_reader(tmp_path, bt_bundle):
    bt_bundle.save(tmp_path / "txt")
    etypes = {f.file_id: f.etype_size
              for f in bt_bundle.metadata.files}
    path = tmp_path / "txt" / "trace.0"
    batch = reference_columns(path, etype_size=etypes)
    parts = list(iter_ingest_chunks(path, etype_size=etypes, chunk_rows=17))
    assert all(len(p) <= 17 for p in parts)
    cat = TraceColumns.concat(parts)
    assert cat.content_digest() == batch.content_digest()


@pytest.mark.parametrize("chunk_rows", [0, -5])
@pytest.mark.parametrize("entry", ["iter_ingest_chunks", "stream_bundle",
                                   "characterize_stream"])
def test_non_positive_chunk_rows_rejected(tmp_path, bt_bundle, entry,
                                          chunk_rows):
    """A non-positive chunk size raises before any file is read, instead
    of streaming no rows (an empty model) or failing inside range()."""
    from repro.core.pipeline import characterize_stream

    calls = {
        "iter_ingest_chunks": lambda d: next(iter_ingest_chunks(
            d / "trace.0", chunk_rows=chunk_rows)),
        "stream_bundle": lambda d: stream_bundle(d, chunk_rows=chunk_rows),
        "characterize_stream": lambda d: characterize_stream(
            d, chunk_rows=chunk_rows),
    }
    bt_bundle.save(tmp_path / "txt")
    # the missing directory shows the check runs before any file is read
    for directory in (tmp_path / "txt", tmp_path / "missing"):
        with pytest.raises(ValueError,
                           match=f"chunk_rows must be >= 1, got {chunk_rows}"):
            calls[entry](directory)


def test_stream_cache_interop(tmp_path, bt_bundle):
    """from_stream stores under the same key from_columns uses, so
    either path warm-starts the other."""
    from repro import store as _store
    from repro.core import cache as simcache

    cols = bt_bundle.columns
    _store.attach(tmp_path / "store")
    try:
        simcache.clear_all()
        m1 = IOModel.from_stream(iter(chop(cols, [29])), bt_bundle.metadata,
                                 bt_bundle.nprocs, app_name="bt")
        m2 = IOModel.from_columns(cols, bt_bundle.metadata,
                                  bt_bundle.nprocs, app_name="bt")
        assert m2 is m1  # cache hit, not a re-extraction
        simcache.clear_all()  # drop the in-memory tier; disk remains
        m3 = IOModel.from_columns(cols, bt_bundle.metadata,
                                  bt_bundle.nprocs, app_name="bt")
        assert m3.to_json() == m1.to_json()
    finally:
        _store.detach()
        simcache.clear_all()


def test_folder_rejects_push_after_finish():
    folder = LAPFolder()
    folder.push(TraceColumns.from_records([]))
    folder.finish()
    assert folder.finish() == []  # idempotent
    with pytest.raises(RuntimeError):
        folder.push(TraceColumns.from_records([]))
