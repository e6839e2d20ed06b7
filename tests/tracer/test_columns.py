"""Columnar trace storage: input shapes, formats, round trips, decoder
errors."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracer.columns import (
    ALL_COLUMNS,
    MAGIC,
    TraceColumns,
    read_trace_columns,
)
from repro.tracer.tracefile import (
    ABS_OFFSET_UNKNOWN,
    HEADER,
    TraceRecord,
    write_trace_file,
)
from tests.conftest import COLUMN_SOURCES, columns_from
from tests.tracer.trace_reference import reference_columns


def sample_records(n: int = 12) -> list[TraceRecord]:
    ops = ["MPI_File_write_at_all", "MPI_File_read_at", "MPI_File_write"]
    return [
        TraceRecord(rank=i % 3, file_id=i % 2, op=ops[i % 3],
                    offset=i * 64, tick=i + 1, request_size=4096 * (1 + i % 4),
                    time=0.25 * i, duration=0.001 * i,
                    abs_offset=i * 64 * 8)
        for i in range(n)
    ]


def parse_text(path, source, **kwargs) -> TraceColumns:
    """Parse a text trace with the parser that builds *source* columns:
    the ingest engine (bulk numpy tokenizer) or the record-by-record
    reference parser of the tests (``from_records`` lists)."""
    if source == "python":
        return reference_columns(path, **kwargs)
    return read_trace_columns(path, **kwargs)


class TestRoundTrips:
    @COLUMN_SOURCES
    def test_records_round_trip(self, source):
        records = sample_records()
        cols = columns_from(records, source)
        assert len(cols) == len(records)
        assert cols.to_records() == records

    @COLUMN_SOURCES
    def test_record_at_index(self, source):
        records = sample_records()
        cols = columns_from(records, source)
        assert cols.record(5) == records[5]

    @COLUMN_SOURCES
    def test_aggregates_match_record_view(self, source):
        records = sample_records()
        cols = columns_from(records, source)
        assert cols.total_bytes == sum(r.request_size for r in records)
        assert cols.nfiles == len({r.file_id for r in records})

    @COLUMN_SOURCES
    def test_text_parse_round_trips_records(self, source, tmp_path):
        path = tmp_path / "trace.0"
        write_trace_file(path, sample_records())
        cols = parse_text(path, source)
        # the text format keeps six fractional digits of time/duration
        assert cols.to_records() == [
            dataclasses.replace(r, time=float(f"{r.time:.6f}"),
                                duration=float(f"{r.duration:.6f}"))
            for r in sample_records()]

    @COLUMN_SOURCES
    def test_packed_trc_round_trip(self, source, tmp_path):
        cols = columns_from(sample_records(), source)
        path = cols.save(tmp_path / "t.trc")
        assert path.read_bytes().startswith(MAGIC)
        back = TraceColumns.load(path)
        assert back.op_table == cols.op_table
        assert back.column_lists() == cols.column_lists()

    def test_npz_round_trip(self, tmp_path):
        cols = TraceColumns.from_records(sample_records())
        path = cols.save(tmp_path / "t.npz")
        back = TraceColumns.load(path)
        assert back.op_table == cols.op_table
        assert back.column_lists() == cols.column_lists()

    @given(st.lists(st.tuples(
        st.integers(0, 7), st.integers(0, 3),
        st.sampled_from(["MPI_File_write_at", "MPI_File_read_at_all"]),
        st.integers(0, 10**9), st.integers(0, 10**6), st.integers(1, 10**8),
        st.floats(0, 1e6, allow_nan=False), st.floats(0, 10, allow_nan=False),
    ), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_packed_trc_property(self, tmp_path_factory, rows):
        records = [TraceRecord(r, f, op, off, tick, rs, t, d, off * 2)
                   for r, f, op, off, tick, rs, t, d in rows]
        cols = TraceColumns.from_records(records)
        path = tmp_path_factory.mktemp("trc") / "t.trc"
        cols.save(path)
        assert TraceColumns.load(path).to_records() == records


class TestParsing:
    def test_header_skipped_only_on_exact_match(self, tmp_path):
        path = tmp_path / "t"
        path.write_text("IdP-like 1 MPI_File_read_at 0 1 8 0.0 0.0 0\n")
        with pytest.raises(ValueError, match=rf"{path}:1: "):
            read_trace_columns(path)

    @COLUMN_SOURCES
    def test_malformed_row_error_names_path_and_line(self, source, tmp_path):
        path = tmp_path / "t"
        lines = [HEADER] + [r.to_line() for r in sample_records(4)]
        lines.insert(3, "0 1 MPI_File_read_at nonsense 1 8 0.0 0.0 0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{path}:4: malformed"):
            parse_text(path, source)

    @COLUMN_SOURCES
    def test_legacy_rows_resolve_through_etype(self, source, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n"
                        "0 1 MPI_File_read_at 5 10 100 1.5 0.25\n"
                        "0 2 MPI_File_read_at 7 11 100 1.6 0.25\n")
        cols = parse_text(path, source, etype_size={1: 16})
        a, b = cols.to_records()
        assert a.abs_offset == 5 * 16
        assert b.abs_offset == ABS_OFFSET_UNKNOWN

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.trc"
        path.write_bytes(b"not a trace at all")
        with pytest.raises(ValueError, match="bad magic"):
            TraceColumns.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        cols = TraceColumns.from_records(sample_records())
        path = cols.save(tmp_path / "t.trc")
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            TraceColumns.load(path)


def _with_header(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON header line replaced by ``edit(header)``."""
    body = blob[len(MAGIC):]
    line, rest = body.split(b"\n", 1)
    header = edit(json.loads(line))
    return MAGIC + json.dumps(header).encode() + b"\n" + rest


def _drop_n(h):
    del h["n"]
    return h


def _bad_op_code(blob: bytes) -> bytes:
    """Rewrite the first op code to one past the op table."""
    cols = TraceColumns.from_bytes(blob)
    cols.op_code[0] = len(cols.op_table)
    return cols.to_bytes()


class TestTrcDecoderErrors:
    """The ``.trc`` decoder reads untrusted bytes (parse cache, wire,
    bundles): every malformed input is a ``ValueError``."""

    @pytest.mark.parametrize("corrupt", [
        lambda b: _with_header(b, _drop_n),
        lambda b: _with_header(b, lambda h: [h]),
        lambda b: _with_header(b, lambda h: {**h, "n": str(h["n"])}),
        lambda b: _with_header(b, lambda h: {**h, "n": -1}),
        lambda b: _with_header(b, lambda h: {**h, "n": 2 ** 60}),
        lambda b: _with_header(b, lambda h: {**h, "n": True}),
        lambda b: _with_header(b, lambda h: {**h, "op_table": 3}),
        lambda b: _with_header(b, lambda h: {**h, "op_table": [1, 2]}),
        lambda b: _with_header(b, lambda h: {**h, "columns": ["rank"]}),
        lambda b: MAGIC + b"{not json\n",
        lambda b: MAGIC + b"\xff\xfe\n",
        lambda b: MAGIC + b"[" * 100_000 + b"\n",
        _bad_op_code,
        lambda b: b[:-5],
    ], ids=["missing-n", "list-header", "str-n", "negative-n", "huge-n",
            "bool-n", "int-op-table", "non-str-op-table", "columns",
            "bad-json", "bad-utf8", "nested-header", "op-code-past-table",
            "truncated"])
    def test_malformed_blob_raises_value_error(self, corrupt):
        blob = TraceColumns.from_records(sample_records()).to_bytes()
        with pytest.raises(ValueError):
            TraceColumns.from_bytes(corrupt(blob))

    def test_header_round_trips_unchanged(self):
        cols = TraceColumns.from_records(sample_records())
        blob = _with_header(cols.to_bytes(), lambda h: h)
        assert TraceColumns.from_bytes(blob).content_digest() == \
            cols.content_digest()
        header = json.loads(io.BytesIO(blob[len(MAGIC):]).readline())
        assert header["columns"] == list(ALL_COLUMNS)


def _npz_arrays() -> dict:
    cols = TraceColumns.from_records(sample_records(5))
    arrays = {name: getattr(cols, name) for name in ALL_COLUMNS}
    arrays["op_table"] = np.array(cols.op_table, dtype=str)
    return arrays


def _write_npz(path, **changes):
    arrays = {**_npz_arrays(), **changes}
    np.savez_compressed(path, **{k: v for k, v in arrays.items()
                                 if v is not None})
    return path


class TestNpzLoadErrors:
    """``.npz`` bundles pass the same checks as ``.trc``: every damaged
    or inconsistent file is a ``ValueError`` naming its path."""

    def test_unequal_column_lengths(self, tmp_path):
        path = _write_npz(tmp_path / "t.npz", op_code=np.zeros(3, np.int64))
        with pytest.raises(ValueError, match=rf"^{path}: column 'op_code' "
                           r"has shape \(3,\), expected \(5,\)$"):
            TraceColumns.load(path)

    def test_short_out_of_table_op_code_column(self, tmp_path):
        # A 3-row op_code holding code 7 against a 1-entry op table,
        # next to 5-row columns.
        path = _write_npz(tmp_path / "t.npz", op_code=np.array([0, 7, 0]),
                          op_table=np.array(["MPI_File_write_at"]))
        with pytest.raises(ValueError, match=rf"^{path}: column 'op_code'"):
            TraceColumns.load(path)

    @pytest.mark.parametrize("name", ["op_table", "time", "abs_offset"])
    def test_missing_column(self, tmp_path, name):
        path = _write_npz(tmp_path / "t.npz", **{name: None})
        with pytest.raises(ValueError, match=rf"^{path}: unreadable .npz "
                           rf"trace: '{name} is not a file in the archive'$"):
            TraceColumns.load(path)

    def test_op_code_outside_the_table(self, tmp_path):
        codes = np.array([0, 1, 2, 3, 0])
        path = _write_npz(tmp_path / "t.npz", op_code=codes)
        with pytest.raises(ValueError,
                           match=rf"^{path}: op code outside the op table$"):
            TraceColumns.load(path)

    def test_non_numeric_column(self, tmp_path):
        path = _write_npz(tmp_path / "t.npz", tick=np.array(list("abcde")))
        with pytest.raises(ValueError, match=rf"^{path}: column 'tick' has "
                           "dtype"):
            TraceColumns.load(path)

    def test_non_zip_file(self, tmp_path):
        path = tmp_path / "t.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(ValueError, match=rf"^{path}: unreadable .npz"):
            TraceColumns.load(path)

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_truncated_file(self, tmp_path, keep):
        path = TraceColumns.from_records(sample_records()).save(
            tmp_path / "t.npz")
        data = path.read_bytes()
        path.write_bytes(data[:int(len(data) * keep)])
        with pytest.raises(ValueError, match=rf"^{path}: unreadable .npz"):
            TraceColumns.load(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_only_value_error_escapes(self, tmp_path_factory, data):
        """Truncation and byte flips: a damaged ``.npz`` either still
        loads or raises ValueError -- nothing else."""
        buf = io.BytesIO()
        np.savez_compressed(buf, **_npz_arrays())
        blob = bytearray(buf.getvalue())
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            for at in data.draw(st.lists(st.integers(0, len(blob) - 1),
                                         min_size=1, max_size=6)):
                blob[at] = data.draw(st.integers(0, 255))
        path = tmp_path_factory.mktemp("npz") / "t.npz"
        path.write_bytes(bytes(blob))
        try:
            TraceColumns.load(path)
        except ValueError:
            pass

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceColumns.load(tmp_path / "absent.npz")


class TestReordering:
    @COLUMN_SOURCES
    def test_sorted_canonical_matches_record_sort(self, source):
        records = sample_records(20)[::-1]
        cols = columns_from(records, source)
        expected = sorted(records, key=lambda r: (r.rank, r.time, r.tick))
        assert cols.sorted_canonical().to_records() == expected

    @COLUMN_SOURCES
    def test_concat_remaps_op_codes(self, source):
        a = columns_from(
            [TraceRecord(0, 0, "MPI_File_write_at", 0, 1, 8, 0.0, 0.0, 0)],
            source)
        b = columns_from(
            [TraceRecord(1, 0, "MPI_File_read_at", 0, 1, 8, 0.1, 0.0, 0),
             TraceRecord(1, 0, "MPI_File_write_at", 8, 2, 8, 0.2, 0.0, 8)],
            source)
        both = TraceColumns.concat([a, b])
        assert [r.op for r in both.to_records()] == \
            ["MPI_File_write_at", "MPI_File_read_at", "MPI_File_write_at"]

    def test_empty_concat(self):
        assert len(TraceColumns.concat([])) == 0


class TestConcatTakeEdges:
    """Shard-gather edge cases the parallel ingest engine leans on."""

    def test_concat_with_empty_parts_interleaved(self):
        full = TraceColumns.from_records(sample_records(9))
        empty = TraceColumns.from_records([])
        out = TraceColumns.concat([empty, full.take(range(0, 4)), empty,
                                   full.take(range(4, 9)), empty])
        assert out.to_records() == full.to_records()
        assert out.content_digest() == full.content_digest()

    def test_concat_all_empty_parts(self):
        empty = TraceColumns.from_records([])
        out = TraceColumns.concat([empty, empty])
        assert len(out) == 0
        assert out.content_digest() == empty.content_digest()

    def test_concat_single_row_shards(self):
        records = sample_records(7)
        full = TraceColumns.from_records(records)
        shards = [TraceColumns.from_records([r]) for r in records]
        out = TraceColumns.concat(shards)
        assert out.to_records() == records
        assert out.content_digest() == full.content_digest()
        assert out.op_table == full.op_table

    def test_concat_mixed_backends_matches_pure(self):
        """Parts in both column input shapes concatenate to exactly the
        one-shot build."""
        records = sample_records(12)
        a = columns_from(records[:5], "numpy")
        b = columns_from(records[5:], "python")
        full = TraceColumns.from_records(records)
        out = TraceColumns.concat([a, b])
        assert out.to_records() == records
        assert out.content_digest() == full.content_digest()

    @COLUMN_SOURCES
    def test_take_then_concat_round_trips_on_boundaries(self, source):
        # shard cuts landing exactly on record boundaries: re-gathering
        # contiguous windows must reproduce the original bit for bit
        records = sample_records(10)
        cols = columns_from(records, source)
        for cut in (0, 1, 5, 9, 10):
            parts = [cols.take(range(0, cut)), cols.take(range(cut, 10))]
            out = TraceColumns.concat(parts)
            assert out.to_records() == records
            assert out.content_digest() == cols.content_digest()

    @COLUMN_SOURCES
    def test_take_range_matches_take_list(self, source):
        cols = columns_from(sample_records(10), source)
        view = cols.take(range(3, 8))
        copy = cols.take(list(range(3, 8)))
        assert view.to_records() == copy.to_records()
        assert view.content_digest() == copy.content_digest()

    @COLUMN_SOURCES
    def test_take_empty_range(self, source):
        cols = columns_from(sample_records(5), source)
        assert len(cols.take(range(2, 2))) == 0
