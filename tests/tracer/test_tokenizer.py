"""The bulk tokenizer's eligibility gate and the exact line parser.

:func:`repro.tracer.bulk.bulk_parse` converts a block only after proving
every line is a clean single-space-separated 9-field row with ``%.6f``
floats; any other block must re-parse through the exact line parser
with output, errors and quarantine entries identical to the reference
parser (``tests/tracer/trace_reference.py``).  These tests pin that
contract on the inputs that historically break batch tokenizers:
whitespace runs, tabs, unicode spaces, ``\\r``, line-edge spaces, blank
lines, legacy 8-field rows, 10-field rows and malformed values.
"""

from __future__ import annotations

import pytest

from repro.tracer import ingest
from repro.tracer.bulk import bulk_parse
from repro.tracer.columns import read_trace_columns
from repro.tracer.quarantine import QuarantineReport
from repro.tracer.tracefile import ABS_OFFSET_UNKNOWN, HEADER
from tests.tracer.trace_reference import (
    assert_matches_reference,
    assert_same,
    reference_columns,
)

CLEAN = [
    "0 1 MPI_File_write_at 0 1 4096 0.100000 0.010000 0\n",
    "1 1 MPI_File_read_at 64 2 8192 0.200000 0.020000 512\n",
    "0 2 MPI_File_write_at_all 128 3 4096 0.300000 0.030000 1024\n",
]
OPS = ["MPI_File_write_at", "MPI_File_read_at", "MPI_File_write_at_all"]


def write(tmp_path, lines, name="t"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "".join(lines), newline="")
    return path


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record ``(block, accepted)`` for every bulk-kernel call."""
    calls = []

    def recording(buf):
        out = bulk_parse(buf)
        calls.append((buf, out is not None))
        return out

    monkeypatch.setattr(ingest, "bulk_parse", recording)
    return calls


class TestFastPathCommits:
    def test_clean_batch_taken_by_flat_path(self):
        out = bulk_parse("".join(CLEAN).encode())
        assert out is not None
        assert out["rank"].tolist() == [0, 1, 0]
        assert out["request_size"].tolist() == [4096, 8192, 4096]
        assert out["abs_offset"].tolist() == [0, 512, 1024]
        assert out["time"].tolist() == [0.1, 0.2, 0.3]
        assert out["op_table"] == OPS

    def test_flat_path_matches_rowwise_exactly(self, tmp_path, kernel_calls):
        path = write(tmp_path, CLEAN)
        got = read_trace_columns(path)
        assert [ok for _buf, ok in kernel_calls] == [True]
        assert_same(got, reference_columns(path))

    def test_empty_batch_is_a_noop_commit(self, tmp_path, kernel_calls):
        # a header-only file hands the kernel no block and parses to
        # zero rows and an empty op table
        got = read_trace_columns(write(tmp_path, []))
        assert kernel_calls == []
        assert len(got) == 0 and got.op_table == []

    def test_op_codes_interned_across_batches(self, tmp_path, monkeypatch,
                                              kernel_calls):
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 4096)
        # > the 64 KiB head read, so the file spans several blocks
        got = read_trace_columns(write(tmp_path, CLEAN * 2000))
        assert len(kernel_calls) > 1 and all(ok for _, ok in kernel_calls)
        assert got.op_table == OPS  # no duplicates
        assert got.op_code.tolist() == [0, 1, 2] * 2000


DISQUALIFIERS = {
    "double-space": "0 1 MPI_File_write_at 0 1  4096 0.100000 0.010000 0\n",
    "tab-separator": "0 1\tMPI_File_write_at 0 1 4096 0.100000 0.010000 0\n",
    "unicode-nbsp":
        "0\u00a01 MPI_File_write_at 0 1 4096 0.100000 0.010000 0\n",
    "carriage-return":
        "0 1 MPI_File_write_at 0 1 4096 0.100000 0.010000 0\r\n",
    "leading-space": " 0 1 MPI_File_write_at 0 1 4096 0.100000 0.010000 0\n",
    "trailing-space":
        "0 1 MPI_File_write_at 0 1 4096 0.100000 0.010000 0 \n",
    "blank-line": "\n",
    "legacy-8-field": "0 1 MPI_File_write_at 0 1 4096 0.100000 0.010000\n",
    "ten-fields": "0 1 MPI_File_write_at 0 1 4096 0.100000 0.010000 0 9\n",
    "bad-int": "0 1 MPI_File_write_at zero 1 4096 0.100000 0.010000 0\n",
    "bad-float": "0 1 MPI_File_write_at 0 1 4096 0.10000x 0.010000 0\n",
}


class TestFastPathRefuses:
    @pytest.mark.parametrize("label", sorted(DISQUALIFIERS))
    def test_odd_line_disqualifies_batch_untouched(self, label, tmp_path):
        """The kernel declines a block holding one odd line, and the
        exact parser's answer -- rows, error or quarantine entries --
        equals the reference parser's."""
        lines = [CLEAN[0], DISQUALIFIERS[label], CLEAN[1]]
        assert bulk_parse("".join(lines).encode()) is None
        assert_matches_reference(read_trace_columns, write(tmp_path, lines),
                                 etype_size=512)

    @pytest.mark.parametrize("label", ["double-space", "tab-separator",
                                       "unicode-nbsp", "carriage-return",
                                       "leading-space", "trailing-space"])
    def test_whitespace_variants_parse_identically(self, label, tmp_path):
        """Sloppy-but-parseable whitespace parses to the clean row's
        values (``str.split`` semantics)."""
        clean = read_trace_columns(write(tmp_path, CLEAN[:2], name="clean"))
        got = read_trace_columns(write(tmp_path,
                                       [DISQUALIFIERS[label], CLEAN[1]]))
        assert_same(got, clean)

    def test_blank_lines_skipped_in_fallback(self, tmp_path):
        clean = read_trace_columns(write(tmp_path, CLEAN[:2], name="clean"))
        got = read_trace_columns(write(tmp_path,
                                       [CLEAN[0], "\n", "   \n", CLEAN[1]]))
        assert_same(got, clean)


class TestMixedAndLegacyRows:
    def test_mixed_8_and_9_field_rows(self, tmp_path):
        path = write(tmp_path,
                     [CLEAN[0], DISQUALIFIERS["legacy-8-field"], CLEAN[2]])
        cols = read_trace_columns(path, etype_size=512)
        assert cols.abs_offset.tolist() == [0, 0 * 512, 1024]
        assert_same(cols, reference_columns(path, etype_size=512))
        cols = read_trace_columns(path, etype_size=None)
        assert cols.abs_offset[1] == ABS_OFFSET_UNKNOWN

    def test_legacy_rows_resolve_per_file_etype(self, tmp_path):
        path = write(tmp_path, ["0 1 MPI_File_read_at 5 10 100 1.5 0.25\n",
                                "0 2 MPI_File_read_at 7 11 100 1.6 0.25\n"])
        cols = read_trace_columns(path, etype_size={1: 16})
        assert cols.abs_offset.tolist() == [5 * 16, ABS_OFFSET_UNKNOWN]
        assert_same(cols, reference_columns(path, etype_size={1: 16}))


class TestErrorsAndQuarantine:
    def test_malformed_value_error_names_exact_line(self, tmp_path):
        path = write(tmp_path, [CLEAN[0], CLEAN[1], DISQUALIFIERS["bad-int"],
                                CLEAN[2]])
        with pytest.raises(ValueError, match=rf"{path}:4: malformed"):
            read_trace_columns(path)

    def test_field_count_error_names_exact_line(self, tmp_path):
        path = write(tmp_path, [CLEAN[0], DISQUALIFIERS["ten-fields"],
                                CLEAN[1]])
        with pytest.raises(ValueError, match=rf"{path}:3: .*10 fields"):
            read_trace_columns(path)

    def test_quarantine_salvages_around_bad_rows(self, tmp_path):
        path = write(tmp_path, [CLEAN[0], DISQUALIFIERS["bad-float"],
                                DISQUALIFIERS["ten-fields"], CLEAN[1],
                                CLEAN[2]])
        report = QuarantineReport()
        cols = read_trace_columns(path, quarantine=report)
        assert len(cols) == 3  # every well-formed row salvaged
        assert list(cols.request_size) == [4096, 8192, 4096]
        assert len(report.entries) == 2
        assert sorted(e.lineno for e in report.entries) == [3, 4]

    def test_strict_quarantine_raises_like_no_quarantine(self, tmp_path):
        path = write(tmp_path, [DISQUALIFIERS["bad-int"]])
        with pytest.raises(ValueError, match=rf"{path}:2: malformed"):
            read_trace_columns(path, quarantine=QuarantineReport(strict=True))

    def test_alignment_preserved_when_late_field_is_bad(self, tmp_path):
        """A row failing on field 9 must not leave fields 1-8 appended."""
        path = write(tmp_path, [
            CLEAN[0], "3 1 MPI_File_read_at 0 1 4096 0.10 0.01 nope\n",
            CLEAN[1]])
        report = QuarantineReport()
        cols = read_trace_columns(path, quarantine=report)
        assert {len(col) for col in cols.column_lists().values()} == {2}
        assert cols.rank.tolist() == [0, 1]  # the bad row's rank 3 is gone
        assert len(report.entries) == 1


class TestEndToEndParity:
    def test_file_with_every_edge_case_matches_rowwise(self, tmp_path):
        """One file mixing every edge case equals the reference parse."""
        lines = ([CLEAN[0]] + list(DISQUALIFIERS.values()) + CLEAN
                 + [DISQUALIFIERS["legacy-8-field"], "\n"]
                 + [DISQUALIFIERS["trailing-space"]] + CLEAN)
        assert_matches_reference(read_trace_columns, write(tmp_path, lines),
                                 etype_size=512)

    def test_tiny_chunks_match_one_big_chunk(self, tmp_path, monkeypatch):
        """Blocks cut mid-file (and mid-line, then realigned to the next
        newline) parse to the same columns as one whole-file block; the
        few blocks holding an odd row fall back to the exact parser."""
        lines = (CLEAN * 300 + [DISQUALIFIERS["double-space"]] + CLEAN * 300
                 + [DISQUALIFIERS["legacy-8-field"]]) * 2
        path = write(tmp_path, lines)
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
        assert_same(small, big)
        assert_same(small, reference_columns(path, etype_size=512))
