"""Trace-file format: round trips, parsing, grouping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracer.columns import read_trace_columns
from repro.tracer.tracefile import (
    ABS_OFFSET_UNKNOWN,
    HEADER,
    TraceRecord,
    iter_by_rank,
    write_trace_file,
)

RECORD = TraceRecord(rank=0, file_id=1, op="MPI_File_write_at_all",
                     offset=265302, tick=148, request_size=10612080,
                     time=22.198392, duration=0.131034,
                     abs_offset=265302 * 40)
LEGACY = "0 1 MPI_File_read_at 5 10 100 1.5 0.25"


def read_records(path, etype_size=None) -> list[TraceRecord]:
    return read_trace_columns(path, etype_size=etype_size).to_records()


def parse_line(tmp_path, line: str, etype_size=None) -> TraceRecord:
    """One row, written under the header and read back."""
    path = tmp_path / "t"
    path.write_text(HEADER + "\n" + line + "\n")
    (rec,) = read_records(path, etype_size)
    return rec


class TestLineFormat:
    def test_to_line_fields(self):
        parts = RECORD.to_line().split()
        assert parts[0] == "0" and parts[1] == "1"
        assert parts[2] == "MPI_File_write_at_all"
        assert parts[3] == "265302" and parts[4] == "148"
        assert parts[5] == "10612080"
        assert parts[8] == str(265302 * 40)

    def test_roundtrip(self, tmp_path):
        back = parse_line(tmp_path, RECORD.to_line())
        assert (back.rank, back.file_id, back.op, back.offset, back.tick,
                back.request_size, back.abs_offset) == \
            (RECORD.rank, RECORD.file_id, RECORD.op, RECORD.offset,
             RECORD.tick, RECORD.request_size, RECORD.abs_offset)
        assert back.time == pytest.approx(RECORD.time, abs=1e-6)
        assert back.duration == pytest.approx(RECORD.duration, abs=1e-6)

    def test_legacy_8_column_line_without_etype_is_unknown(self, tmp_path):
        # the view offset is in etype units -- it must NOT be reused as
        # an absolute byte offset when no etype size is available
        rec = parse_line(tmp_path, LEGACY)
        assert rec.abs_offset == ABS_OFFSET_UNKNOWN
        assert not rec.has_abs_offset

    def test_legacy_8_column_line_with_etype_scalar(self, tmp_path):
        rec = parse_line(tmp_path, LEGACY, etype_size=40)
        assert rec.abs_offset == 5 * 40
        assert rec.has_abs_offset

    def test_legacy_8_column_line_with_etype_map(self, tmp_path):
        rec = parse_line(tmp_path, LEGACY, etype_size={1: 8, 2: 40})
        assert rec.abs_offset == 5 * 8
        rec = parse_line(tmp_path, LEGACY, etype_size={2: 40})
        assert rec.abs_offset == ABS_OFFSET_UNKNOWN

    def test_9_column_line_ignores_etype(self, tmp_path):
        rec = parse_line(tmp_path, RECORD.to_line(), etype_size=7)
        assert rec.abs_offset == RECORD.abs_offset

    def test_malformed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(3 fields\)"):
            parse_line(tmp_path, "1 2 3")

    def test_non_numeric_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="malformed trace line"):
            parse_line(tmp_path, "0 1 MPI_File_read_at x 10 100 1.5 0.25 0")

    def test_kind_derivation(self, tmp_path):
        assert RECORD.kind == "write"
        rec = parse_line(tmp_path, "0 0 MPI_File_read 0 1 8 0.0 0.0 0")
        assert rec.kind == "read"


class TestFileIO:
    def test_write_and_read_back(self, tmp_path):
        records = [RECORD,
                   TraceRecord(1, 1, "MPI_File_read_at_all", 0, 149, 4096,
                               23.0, 0.01, 0)]
        path = tmp_path / "trace.0"
        write_trace_file(path, records)
        text = path.read_text()
        assert text.startswith(HEADER)
        back = read_records(path)
        assert len(back) == 2
        assert back[0].op == RECORD.op
        assert back[0].offset == RECORD.offset
        assert back[0].time == pytest.approx(RECORD.time, abs=1e-6)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n\n" + RECORD.to_line() + "\n\n")
        assert len(read_records(path)) == 1

    def test_header_skipped_only_on_exact_match(self, tmp_path):
        # a first *data* line that merely starts with "IdP" must parse,
        # not silently disappear as a pseudo-header
        path = tmp_path / "t"
        path.write_text("IdP-like 1 MPI_File_read_at 0 1 8 0.0 0.0 0\n")
        with pytest.raises(ValueError, match=rf"{path}:1: "):
            read_records(path)

    def test_malformed_row_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + RECORD.to_line() + "\nbogus row\n")
        with pytest.raises(ValueError, match=rf"{path}:3: malformed"):
            read_records(path)

    def test_read_trace_columns_etype_resolves_legacy_rows(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + LEGACY + "\n")
        (rec,) = read_records(path, etype_size={1: 16})
        assert rec.abs_offset == 80

    @given(st.lists(st.tuples(
        st.integers(0, 7), st.integers(0, 3),
        st.sampled_from(["MPI_File_write_at", "MPI_File_read_at_all"]),
        st.integers(0, 10**9), st.integers(0, 10**6), st.integers(1, 10**8),
    ), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, rows):
        records = [TraceRecord(r, f, op, off, tick, rs, 1.25, 0.5, off * 2)
                   for r, f, op, off, tick, rs in rows]
        path = tmp_path_factory.mktemp("traces") / "t"
        write_trace_file(path, records)
        back = read_records(path)
        assert [(b.rank, b.file_id, b.op, b.offset, b.tick, b.request_size,
                 b.abs_offset) for b in back] == \
            [(r.rank, r.file_id, r.op, r.offset, r.tick, r.request_size,
              r.abs_offset) for r in records]


class TestGrouping:
    def test_iter_by_rank_preserves_order(self):
        records = [
            TraceRecord(1, 0, "MPI_File_write", 0, 1, 8, 0.0, 0.0, 0),
            TraceRecord(0, 0, "MPI_File_write", 0, 1, 8, 0.0, 0.0, 0),
            TraceRecord(1, 0, "MPI_File_write", 8, 2, 8, 0.1, 0.0, 8),
        ]
        grouped = dict(iter_by_rank(records))
        assert list(grouped) == [0, 1]
        assert [r.offset for r in grouped[1]] == [0, 8]
