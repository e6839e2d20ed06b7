"""Bit-identity golden values of LAP extraction, batch and streamed.

Every phase, weight and selection derives from the ``LAPEntry`` list the
characterization step extracts, so its kernel is pinned here bit for
bit: a sha256 over every entry (floats as ``float.hex``) and the
stream's content digest, for three deterministic traces that cover
unit-1, unit-2 and unit-3 tandem bursts, bursts that are not one exact
run (they go through the greedy scan), bursts that span chunk
boundaries, interleaved ranks and per-chunk op tables that must be
remapped.  The batch path and the streamed fold at several chunkings
must all read the same values, on both column input shapes
(``tests.conftest.COLUMN_SOURCES``).
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.core.lap import LAPFolder, extract_laps_columns
from repro.tracer.tracefile import TraceRecord
from tests.conftest import COLUMN_SOURCES, columns_from
from tests.core.lap_reference import extract_laps

W, R, WI, RI = ("MPI_File_write_at_all", "MPI_File_read_at_all",
                "MPI_File_write_at", "MPI_File_read_at")
KB = 1024


class _LCG:
    """Tiny deterministic generator (independent of ``random``)."""

    def __init__(self, seed: int):
        self.x = seed

    def below(self, n: int) -> int:
        self.x = (self.x * 6364136223846793005 + 1442695040888963407) % 2**64
        return (self.x >> 33) % n


def _rank_bursts(rank: int, cycle: int) -> list[list[tuple[str, int, int]]]:
    """One cycle of (op, offset, size) bursts for one rank."""
    base = rank * (1 << 24) + cycle * (1 << 20)
    return [
        [(W, base + k * 64 * KB, 64 * KB) for k in range(40)],  # unit 1
        [(op, base + k * 8 * KB + j * 4 * KB, 4 * KB)           # unit 2
         for k in range(6) for j, op in enumerate((W, R))],
        [(op, base + k * 12 * KB + j * 4 * KB, sz)              # unit 3
         for k in range(5)
         for j, (op, sz) in enumerate(((R, 4 * KB), (W, 4 * KB),
                                       (W, 2 * KB)))],
        # MADbench2's W function: R R W R W R W R W W -- scanned
        [(op, base + k * 4 * KB, 4 * KB)
         for k, op in enumerate((R, R, W, R, W, R, W, R, W, W))],
        # unit-1 run whose displacement breaks half way -- scanned
        [(WI, base + (k if k < 9 else 2 * k) * KB, KB) for k in range(17)],
    ]


def _trace_tandem() -> list[TraceRecord]:
    """8 ranks, one file, rank-major order (the Tracer bundle layout)."""
    records = []
    for rank in range(8):
        tick, t = 0, 0.0
        for cycle in range(4):
            for burst in _rank_bursts(rank, cycle):
                tick += 5 + rank  # communication between bursts
                for op, off, sz in burst:
                    tick += 1
                    t += 1.0e-4 / 3 + rank * 1e-7
                    records.append(TraceRecord(
                        rank, 0, op, off // KB, tick, sz, t,
                        (tick % 7 + 1) * 1.1e-5 / 3, off))
    return records


def _trace_interleaved() -> list[TraceRecord]:
    """12 ranks, two files, rows interleaved across ranks in time order."""
    per_rank = []
    for rank in range(12):
        rows, tick = [], 0
        for cycle in range(2):
            for b, burst in enumerate(_rank_bursts(rank, cycle)):
                tick += 3
                for op, off, sz in burst:
                    tick += 1
                    rows.append((rank, (b + cycle) % 2, op, off, tick, sz))
        per_rank.append(rows)
    records, i = [], 0
    while any(per_rank):
        for rows in per_rank:
            if rows:
                rank, fid, op, off, tick, sz = rows.pop(0)
                i += 1
                records.append(TraceRecord(rank, fid, op, off // KB, tick, sz,
                                           i * 3.7e-6, 1.0 / (3 + i % 11),
                                           off))
    return records


def _trace_random() -> list[TraceRecord]:
    """16 ranks, three files, four ops: random unit runs and breaks."""
    rng = _LCG(16)
    ops, sizes = (W, R, WI, RI), (KB, 4 * KB, 64 * KB)
    records, t = [], 0.0
    for rank in range(16):
        tick = 0
        for _ in range(12):
            fid = rng.below(3)
            unit = 1 + rng.below(3)
            members = [(ops[rng.below(4)], sizes[rng.below(3)],
                        rng.below(5) * KB) for _ in range(unit)]
            reps = 1 + rng.below(12)
            off = [rng.below(64) * KB for _ in range(unit)]
            for k in range(reps):
                for j, (op, sz, disp) in enumerate(members):
                    if rng.below(40) == 0:
                        off[j] += KB  # a displacement break
                    tick += 1 + (rng.below(30) == 0) * 2  # rare gaps
                    t += 1.0e-3 / 7
                    records.append(TraceRecord(
                        rank, fid, op, (off[j] + k * disp) // KB, tick, sz,
                        t, (1 + rng.below(9)) * 1.3e-5, off[j] + k * disp))
            tick += rng.below(4)
    return records


#: name -> (trace constructor, gap)
TRACES = {
    "tandem": (_trace_tandem, 1),
    "interleaved": (_trace_interleaved, 1),
    "random": (_trace_random, 2),
}

#: ``total_duration`` is the record path's ``sum()``, and ``sum()`` of
#: floats is compensated (Neumaier) from Python 3.12 on: its last bits,
#: and so the entry digest, depend on the interpreter's summation.
SUMMATION = "compensated" if sys.version_info >= (3, 12) else "sequential"

#: name -> (rows, entries, {summation: sha256 of the entries},
#: stream content digest)
GOLDEN = {
    "tandem": (
        3008, 256,
        {"sequential": "f5536bfd2a3aca3b5a423c579533e1aba852f4289f6b3fd5d505d072b8b1bac8",
         "compensated": "664f78753bb53942db0f2da2cc6079fcbf4c15f9b5a2bdccff424dac905f20f4"},
        "bcf0b7a32b02ff9fe0a96d4e42f9c77d1a9a6f7b57890093b8d6229191873202"),
    "interleaved": (
        2256, 192,
        {"sequential": "da492588be055cca70b4a12e0fbaa1f1c481f906d7b982d16291df6c6827d2a6",
         "compensated": "ddbcb7102009ce771fcaf2c86528c0eaa844d66daeaccacc5f89570462f0d80d"},
        "afdb491c33ce90a42e78e2285a222dcf71aced0e92185200dd13f0290adadcb3"),
    "random": (
        2518, 637,
        {"sequential": "0ddab3721dfaeae7eaaca94bfcfcdd1711fe2da5a531c516cdfd9f92391d7136",
         "compensated": "c0da5639e43f63330db7c05b778128d0bb606aa7c5b2ea2597ff9f5cde6cfe7a"},
        "4166eea243678ac4c880ee9a2ae4abb5d76da3eaa257b77fe376b5a5d90be5da"),
}

#: (name, chunk_rows) -> LAPFolder.peak_open_rows
PEAK_OPEN_ROWS = {
    ("tandem", 1000): 136,
    ("tandem", 7): 159,
    ("interleaved", 1000): 324,
    ("interleaved", 7): 679,
    ("random", 1000): 537,
    ("random", 7): 555,
}


def entries_digest(entries) -> str:
    h = hashlib.sha256()
    for e in entries:
        h.update(repr((e.rank, e.file_id, e.rep, e.first_tick, e.last_tick,
                       e.first_time.hex(), e.total_duration.hex(),
                       tuple((o.op, o.kind, o.request_size, o.disp,
                              o.init_offset, o.init_abs_offset)
                             for o in e.ops))).encode())
    return h.hexdigest()


def chunks_of(records, chunk_rows, source):
    """Independently built chunks: each interns its own op table."""
    return [columns_from(records[lo:lo + chunk_rows], source)
            for lo in range(0, len(records), chunk_rows)]


def test_traces_cover_the_kernel():
    """Every trace shape the golden values claim to cover is there."""
    for name, (build, gap) in TRACES.items():
        entries = extract_laps(build(), gap=gap)
        assert {len(e.ops) for e in entries} == {1, 2, 3}, name
        assert len({e.rank for e in entries}) >= 8, name
        # a burst compressed into several entries went through the scan
        scanned = [b for a, b in zip(entries, entries[1:])
                   if (a.rank, a.file_id) == (b.rank, b.file_id)
                   and b.first_tick - a.last_tick <= gap]
        assert scanned, name


@COLUMN_SOURCES
@pytest.mark.parametrize("name", sorted(TRACES))
def test_batch(name, source):
    build, gap = TRACES[name]
    records = build()
    rows, n_entries, digest, _ = GOLDEN[name]
    assert len(records) == rows
    entries = extract_laps_columns(columns_from(records, source), gap=gap)
    assert len(entries) == n_entries
    assert entries_digest(entries) == digest[SUMMATION]


@COLUMN_SOURCES
@pytest.mark.parametrize("chunk_rows", [None, 1000, 7])
@pytest.mark.parametrize("name", sorted(TRACES))
def test_stream(name, chunk_rows, source):
    build, gap = TRACES[name]
    records = build()
    _, n_entries, digest, content = GOLDEN[name]
    chunks = chunks_of(records, chunk_rows or len(records), source)
    folder = LAPFolder(gap=gap)
    for chunk in chunks:
        folder.push(chunk)
    if chunk_rows == 7:  # the remap path really runs
        assert any(c.op_table != folder.op_table[:len(c.op_table)]
                   for c in chunks)
    entries = folder.finish()
    assert len(entries) == n_entries
    assert entries_digest(entries) == digest[SUMMATION]
    assert folder.content_digest() == content
    assert folder.nrows == len(records)
    if chunk_rows:
        assert folder.peak_open_rows == PEAK_OPEN_ROWS[name, chunk_rows]


@COLUMN_SOURCES
@pytest.mark.parametrize("name", sorted(TRACES))
def test_open_bursts_own_their_rows(name, source):
    """Open-burst buffers are copies, never views of a pushed chunk:
    a view would pin the whole chunk and break the O(open bursts)
    memory bound."""
    build, gap = TRACES[name]
    folder = LAPFolder(gap=gap)
    for chunk in chunks_of(build(), 1000, source):
        folder.push(chunk)
        assert folder._open
        for buf in folder._open.values():
            for col in buf.values():
                assert getattr(col, "base", None) is None
    assert folder.peak_open_rows == PEAK_OPEN_ROWS[name, 1000]
