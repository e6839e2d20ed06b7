"""LAP extraction: bursts, tandem repeats, round-trip property."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lap import expand_entry, extract_laps
from repro.tracer.tracefile import TraceRecord
from tests.core.lap_reference import compress_burst, split_bursts


def rec(rank=0, op="MPI_File_write", offset=0, tick=1, rs=100, fid=0):
    return TraceRecord(rank=rank, file_id=fid, op=op, offset=offset,
                       tick=tick, request_size=rs, time=float(tick),
                       duration=0.01, abs_offset=offset)


def seq(ops, start_tick=1, adjacent=True, rank=0):
    """Build records from (op, offset, rs) tuples."""
    out = []
    tick = start_tick
    for op, off, rs in ops:
        out.append(rec(rank=rank, op=op, offset=off, tick=tick, rs=rs))
        tick += 1 if adjacent else 100
    return out


class TestSplitBursts:
    def test_adjacent_records_one_burst(self):
        records = seq([("MPI_File_write", i * 10, 10) for i in range(5)])
        assert len(split_bursts(records)) == 1
        assert len(extract_laps(records)) == 1

    def test_tick_gaps_split(self):
        records = seq([("MPI_File_write", i * 10, 10) for i in range(5)],
                      adjacent=False)
        assert len(split_bursts(records)) == 5
        assert len(extract_laps(records)) == 5

    def test_gap_tolerance(self):
        records = [rec(tick=1), rec(tick=3, offset=10)]
        assert len(split_bursts(records, gap=1)) == 2
        assert len(split_bursts(records, gap=2)) == 1
        assert len(extract_laps(records, gap=1)) == 2
        assert len(extract_laps(records, gap=2)) == 1

    def test_empty(self):
        assert split_bursts([]) == []


def compress(records):
    """The reference compression of one burst, checked against the kernel."""
    entries = compress_burst(records)
    assert extract_laps(records) == entries
    return entries


class TestCompressBurst:
    def test_uniform_run_compresses_to_one_entry(self):
        records = seq([("MPI_File_write", i * 100, 100) for i in range(40)])
        (entry,) = compress(records)
        assert entry.rep == 40
        assert len(entry.ops) == 1
        assert entry.ops[0].disp == 100
        assert entry.ops[0].init_offset == 0
        assert entry.nbytes == 4000

    def test_irregular_offsets_not_merged(self):
        records = seq([("MPI_File_write", off, 10)
                       for off in (0, 10, 25, 31)])
        entries = compress(records)
        assert sum(e.rep * len(e.ops) for e in entries) == 4
        assert len(entries) > 1

    def test_madbench_w_function_decomposition(self):
        """R R (W R)x6 W W -> three pattern groups (Table VIII rows 2-4)."""
        base = 0
        rs = 32
        ops = []
        ops += [("MPI_File_read", base + j * rs, rs) for j in range(2)]
        for j in range(2, 8):
            ops.append(("MPI_File_write", base + (j - 2) * rs, rs))
            ops.append(("MPI_File_read", base + j * rs, rs))
        ops += [("MPI_File_write", base + j * rs, rs) for j in (6, 7)]
        entries = compress(seq(ops))
        assert [ (e.rep, tuple(o.kind for o in e.ops)) for e in entries] == [
            (2, ("read",)),
            (6, ("write", "read")),
            (2, ("write",)),
        ]
        wr = entries[1]
        assert wr.ops[0].init_offset == 0  # writes from the region base
        assert wr.ops[1].init_offset == 2 * rs  # reads 2 bins ahead
        assert wr.ops[0].disp == rs and wr.ops[1].disp == rs

    def test_single_record(self):
        (entry,) = compress([rec()])
        assert entry.rep == 1 and entry.ops[0].disp == 0

    def test_alternating_without_repetition_kept_as_singles(self):
        records = seq([("MPI_File_write", 0, 10), ("MPI_File_read", 50, 20)])
        entries = compress(records)
        assert sum(e.rep * len(e.ops) for e in entries) == 2


class TestExtractLaps:
    def test_groups_by_rank_and_file(self):
        records = (
            seq([("MPI_File_write", i * 10, 10) for i in range(3)], rank=0)
            + seq([("MPI_File_write", i * 10, 10) for i in range(3)], rank=1)
        )
        entries = extract_laps(records)
        assert len(entries) == 2
        assert {e.rank for e in entries} == {0, 1}

    def test_signature_excludes_offsets(self):
        a = extract_laps(seq([("MPI_File_write", 100 + i * 10, 10)
                              for i in range(4)], rank=0))[0]
        b = extract_laps(seq([("MPI_File_write", 900 + i * 10, 10)
                              for i in range(4)], rank=1))[0]
        assert a.signature == b.signature
        assert a.ops[0].init_offset != b.ops[0].init_offset

    def test_to_lines_format(self):
        (entry,) = extract_laps(seq([("MPI_File_write", i * 10, 10)
                                     for i in range(4)]))
        (line,) = entry.to_lines()
        assert line.split() == ["0", "0", "MPI_File_write", "4", "10", "10", "0"]


@st.composite
def lap_shapes(draw):
    """Random (op, rep, rs, disp, init) unit patterns."""
    nunits = draw(st.integers(1, 3))
    units = []
    for _ in range(nunits):
        units.append((
            draw(st.sampled_from(["MPI_File_write", "MPI_File_read"])),
            draw(st.integers(1, 1000)),  # rs
            draw(st.integers(0, 500)),  # disp
            draw(st.integers(0, 10_000)),  # init offset
        ))
    rep = draw(st.integers(1, 12))
    return units, rep


class TestRoundTripProperty:
    @given(lap_shapes())
    @settings(max_examples=100, deadline=None)
    def test_compress_then_expand_preserves_operations(self, shape):
        units, rep = shape
        ops = []
        for k in range(rep):
            for op, rs, disp, init in units:
                ops.append((op, init + k * disp, rs))
        records = seq(ops)
        entries = compress(records)
        expanded = [item for e in entries for item in expand_entry(e)]
        assert expanded == [(op, off, rs) for op, off, rs in ops]

    @given(lap_shapes())
    @settings(max_examples=60, deadline=None)
    def test_total_bytes_preserved(self, shape):
        units, rep = shape
        ops = []
        for k in range(rep):
            for op, rs, disp, init in units:
                ops.append((op, init + k * disp, rs))
        entries = compress(seq(ops))
        assert sum(e.nbytes for e in entries) == sum(rs for _, _, rs in ops)
