"""The chunk tokenizer's fast path vs the exact row-wise parser.

``_parse_chunk_flat`` commits a batch only after proving every line is
a clean single-space-separated 9-field row; anything else must fall
back to ``_parse_chunk_rows`` with *identical* output.  These tests pin
that contract on the inputs that historically break batch tokenizers:
whitespace runs, tabs, unicode spaces, line-edge spaces, blank lines,
legacy 8-field rows and malformed values.
"""

from __future__ import annotations

import pytest

from repro.tracer.columns import (
    TraceColumns,
    _parse_chunk,
    _parse_chunk_flat,
    read_trace_columns,
)
from repro.tracer.quarantine import QuarantineReport
from repro.tracer.tracefile import ABS_OFFSET_UNKNOWN, HEADER

CLEAN = [
    "0 1 MPI_File_write_at 0 1 4096 0.10 0.01 0\n",
    "1 1 MPI_File_read_at 64 2 8192 0.20 0.02 512\n",
    "0 2 MPI_File_write_at_all 128 3 4096 0.30 0.03 1024\n",
]


def fresh():
    return TraceColumns._empty_lists(), [], {}


def parse_rowwise(lines, etype_size=None, quarantine=None):
    """The exact parser's answer, bypassing the fast path entirely."""
    cols, op_table, op_index = fresh()
    pending = [(i + 1, raw.strip()) for i, raw in enumerate(lines)
               if raw.strip()]
    rows = [line.split() for _, line in pending]
    from repro.tracer.columns import _parse_chunk_rows
    _parse_chunk_rows(pending, rows, "<mem>", cols, op_table, op_index,
                      etype_size, quarantine)
    return cols, op_table


def parse_full(lines, etype_size=None, quarantine=None):
    """What read_trace_columns would produce for this chunk."""
    cols, op_table, op_index = fresh()
    _parse_chunk(lines, 1, "<mem>", cols, op_table, op_index,
                 etype_size, quarantine)
    return cols, op_table


class TestFastPathCommits:
    def test_clean_batch_taken_by_flat_path(self):
        cols, op_table, op_index = fresh()
        assert _parse_chunk_flat(CLEAN, cols, op_table, op_index)
        assert cols["rank"] == [0, 1, 0]
        assert cols["request_size"] == [4096, 8192, 4096]
        assert cols["abs_offset"] == [0, 512, 1024]
        assert op_table == ["MPI_File_write_at", "MPI_File_read_at",
                            "MPI_File_write_at_all"]

    def test_flat_path_matches_rowwise_exactly(self):
        flat_cols, flat_ops = parse_full(CLEAN)
        row_cols, row_ops = parse_rowwise(CLEAN)
        assert flat_cols == row_cols
        assert flat_ops == row_ops

    def test_empty_batch_is_a_noop_commit(self):
        cols, op_table, op_index = fresh()
        assert _parse_chunk_flat([], cols, op_table, op_index)
        assert not cols["rank"] and not op_table

    def test_op_codes_interned_across_batches(self):
        cols, op_table, op_index = fresh()
        assert _parse_chunk_flat(CLEAN, cols, op_table, op_index)
        assert _parse_chunk_flat(CLEAN, cols, op_table, op_index)
        assert op_table == ["MPI_File_write_at", "MPI_File_read_at",
                            "MPI_File_write_at_all"]  # no duplicates
        assert cols["op_code"] == [0, 1, 2, 0, 1, 2]


DISQUALIFIERS = {
    "double-space": "0 1 MPI_File_write_at 0 1  4096 0.10 0.01 0\n",
    "tab-separator": "0 1\tMPI_File_write_at 0 1 4096 0.10 0.01 0\n",
    "unicode-nbsp": "0\u00a01 MPI_File_write_at 0 1 4096 0.10 0.01 0\n",
    "carriage-return": "0 1 MPI_File_write_at 0 1 4096 0.10 0.01 0\r\n",
    "leading-space": " 0 1 MPI_File_write_at 0 1 4096 0.10 0.01 0\n",
    "trailing-space": "0 1 MPI_File_write_at 0 1 4096 0.10 0.01 0 \n",
    "blank-line": "\n",
    "legacy-8-field": "0 1 MPI_File_write_at 0 1 4096 0.10 0.01\n",
    "ten-fields": "0 1 MPI_File_write_at 0 1 4096 0.10 0.01 0 9\n",
    "bad-int": "0 1 MPI_File_write_at zero 1 4096 0.10 0.01 0\n",
    "bad-float": "0 1 MPI_File_write_at 0 1 4096 ten 0.01 0\n",
}


class TestFastPathRefuses:
    @pytest.mark.parametrize("label", sorted(DISQUALIFIERS))
    def test_odd_line_disqualifies_batch_untouched(self, label):
        lines = [CLEAN[0], DISQUALIFIERS[label], CLEAN[1]]
        cols, op_table, op_index = fresh()
        assert not _parse_chunk_flat(lines, cols, op_table, op_index)
        # the refusal must leave no partial commit behind
        assert not any(cols.values())
        assert not op_table and not op_index

    @pytest.mark.parametrize("label", ["double-space", "tab-separator",
                                       "unicode-nbsp", "carriage-return",
                                       "leading-space", "trailing-space"])
    def test_whitespace_variants_parse_identically(self, label):
        """Sloppy-but-parseable whitespace: fallback output == row-wise
        output == the clean row's values (str.split semantics)."""
        lines = [DISQUALIFIERS[label], CLEAN[1]]
        got_cols, got_ops = parse_full(lines)
        ref_cols, ref_ops = parse_full([CLEAN[0], CLEAN[1]])
        assert got_cols == ref_cols
        assert got_ops == ref_ops

    def test_blank_lines_skipped_in_fallback(self):
        lines = [CLEAN[0], "\n", "   \n", CLEAN[1]]
        got_cols, _ = parse_full(lines)
        ref_cols, _ = parse_full([CLEAN[0], CLEAN[1]])
        assert got_cols == ref_cols


class TestMixedAndLegacyRows:
    def test_mixed_8_and_9_field_rows(self):
        lines = [CLEAN[0], DISQUALIFIERS["legacy-8-field"], CLEAN[2]]
        cols, _ = parse_full(lines, etype_size=512)
        assert cols["abs_offset"] == [0, 0 * 512, 1024]
        cols, _ = parse_full(lines, etype_size=None)
        assert cols["abs_offset"][1] == ABS_OFFSET_UNKNOWN

    def test_legacy_rows_resolve_per_file_etype(self):
        lines = ["0 1 MPI_File_read_at 5 10 100 1.5 0.25\n",
                 "0 2 MPI_File_read_at 7 11 100 1.6 0.25\n"]
        cols, _ = parse_full(lines, etype_size={1: 16})
        assert cols["abs_offset"] == [5 * 16, ABS_OFFSET_UNKNOWN]


class TestErrorsAndQuarantine:
    def test_malformed_value_error_names_exact_line(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + CLEAN[0] + CLEAN[1]
                        + DISQUALIFIERS["bad-int"] + CLEAN[2])
        with pytest.raises(ValueError, match=rf"{path}:4: malformed"):
            read_trace_columns(path)

    def test_field_count_error_names_exact_line(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + CLEAN[0]
                        + DISQUALIFIERS["ten-fields"] + CLEAN[1])
        with pytest.raises(ValueError, match=rf"{path}:3: .*10 fields"):
            read_trace_columns(path)

    def test_quarantine_salvages_around_bad_rows(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + CLEAN[0]
                        + DISQUALIFIERS["bad-float"]
                        + DISQUALIFIERS["ten-fields"] + CLEAN[1] + CLEAN[2])
        report = QuarantineReport()
        cols = read_trace_columns(path, quarantine=report)
        assert len(cols) == 3  # every well-formed row salvaged
        assert list(cols.request_size) == [4096, 8192, 4096]
        assert len(report.entries) == 2
        assert sorted(e.lineno for e in report.entries) == [3, 4]

    def test_strict_quarantine_raises_like_no_quarantine(self, tmp_path):
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + DISQUALIFIERS["bad-int"])
        with pytest.raises(ValueError, match=rf"{path}:2: malformed"):
            read_trace_columns(path, quarantine=QuarantineReport(strict=True))

    def test_alignment_preserved_when_late_field_is_bad(self):
        """A row failing on field 8 must not leave fields 1-7 appended."""
        lines = [CLEAN[0],
                 "3 1 MPI_File_read_at 0 1 4096 0.10 0.01 nope\n",
                 CLEAN[1]]
        report = QuarantineReport()
        cols, _ = parse_full(lines, quarantine=report)
        lengths = {name: len(col) for name, col in cols.items()}
        assert set(lengths.values()) == {2}
        assert cols["rank"] == [0, 1]  # the bad row's rank=3 never landed
        assert len(report.entries) == 1


class TestEndToEndParity:
    def test_file_with_every_edge_case_matches_rowwise(self, tmp_path):
        """One file mixing all edge cases: the chunked reader (which may
        take the fast path per chunk) equals a pure row-wise parse."""
        lines = ([CLEAN[0]] + [DISQUALIFIERS["double-space"]]
                 + CLEAN + [DISQUALIFIERS["legacy-8-field"], "\n"]
                 + [DISQUALIFIERS["trailing-space"]] + CLEAN)
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + "".join(lines))
        got = read_trace_columns(path, etype_size=512)
        ref_cols, ref_ops = parse_rowwise(lines, etype_size=512)
        assert got.column_lists() == ref_cols
        assert list(got.op_table) == ref_ops

    def test_tiny_chunks_match_one_big_chunk(self, tmp_path, monkeypatch):
        """Blocks cut mid-file (and mid-line, then realigned to the next
        newline) parse to the same columns as one whole-file block; the
        few blocks holding an odd row fall back to the exact parser."""
        from repro.tracer import ingest

        lines = (CLEAN * 300 + [DISQUALIFIERS["double-space"]] + CLEAN * 300
                 + [DISQUALIFIERS["legacy-8-field"]]) * 2
        path = tmp_path / "t"
        path.write_text(HEADER + "\n" + "".join(lines))
        big = read_trace_columns(path, etype_size=512)

        blocks = []
        parse = ingest.bulk_parse

        def counting_parse(buf):
            blocks.append(buf)
            return parse(buf)

        monkeypatch.setattr(ingest, "BLOCK_BYTES", 4096)
        monkeypatch.setattr(ingest, "bulk_parse", counting_parse)
        small = read_trace_columns(path, etype_size=512)
        assert len(blocks) >= 10
        assert small.column_lists() == big.column_lists()
        assert list(small.op_table) == list(big.op_table)
