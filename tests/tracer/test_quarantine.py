"""Quarantine-mode ingest: salvage well-formed records, report the rest."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracer.columns import TraceColumns, read_trace_columns
from repro.tracer.hooks import TraceBundle
from repro.tracer.metadata import AppMetadata
from repro.tracer.quarantine import (
    RANK_UNKNOWN,
    QuarantineReport,
    guess_rank,
)
from repro.tracer.tracefile import HEADER, TraceRecord, write_trace_file
from tests.tracer.trace_reference import reference_records


def rec(rank=0, tick=1, op="mpi_file_write_at", off=0):
    # time uses quarter-second steps: exact in binary AND in the %.6f
    # text format, so records survive a write/parse round trip bit-equal.
    return TraceRecord(rank=rank, file_id=1, op=op, offset=off, tick=tick,
                       request_size=4096, time=tick / 4,
                       duration=0.015625, abs_offset=off)


GARBAGE_LINES = [
    "GARBAGE",
    "0 1 mpi_file_write_at zz 3 10 0.3 0.03 0",  # non-numeric field
    "1 2 3",  # too few fields
    "\x00\x01binary junk here with spaces x y z",
]


# -- text salvage --------------------------------------------------------------

def _write_interleaved(path, records, garbage):
    lines = [HEADER]
    for i, r in enumerate(records):
        lines.append(r.to_line())
        if i < len(garbage):
            lines.append(garbage[i])
    path.write_text("\n".join(lines) + "\n")


def test_records_view_salvages_around_garbage(tmp_path):
    p = tmp_path / "trace.0"
    records = [rec(tick=i) for i in range(5)]
    _write_interleaved(p, records, GARBAGE_LINES)
    q = QuarantineReport()
    got = read_trace_columns(p, quarantine=q).to_records()
    assert got == records
    assert len(q) == len(GARBAGE_LINES)
    assert all(e.source == str(p) for e in q.entries)


def test_read_trace_columns_without_quarantine_still_raises(tmp_path):
    p = tmp_path / "trace.0"
    _write_interleaved(p, [rec()], ["junk line"])
    with pytest.raises(ValueError, match="trace.0:3"):
        read_trace_columns(p)


def test_read_trace_columns_salvages_and_keeps_alignment(tmp_path):
    p = tmp_path / "trace.0"
    records = [rec(tick=i, off=i * 100) for i in range(6)]
    _write_interleaved(p, records, GARBAGE_LINES)
    q = QuarantineReport()
    cols = read_trace_columns(p, quarantine=q)
    assert cols.to_records() == records  # no skew from skipped rows
    assert len(q) == len(GARBAGE_LINES)


def test_quarantine_attributes_rank_when_parseable(tmp_path):
    p = tmp_path / "trace.0"
    p.write_text(HEADER + "\n" + "7 not a valid row\n")
    q = QuarantineReport()
    read_trace_columns(p, quarantine=q)
    assert q.entries[0].rank == 7
    assert guess_rank("junk") == RANK_UNKNOWN


def test_strict_report_raises_like_no_quarantine(tmp_path):
    p = tmp_path / "trace.0"
    _write_interleaved(p, [rec()], ["junk"])
    q = QuarantineReport(strict=True)
    with pytest.raises(ValueError):
        read_trace_columns(p, quarantine=q)


def test_report_summary_and_by_rank(tmp_path):
    q = QuarantineReport()
    q.note("f", 0, 1, "bad", "x")
    q.note("f", 0, 2, "bad", "y")
    q.note("f", RANK_UNKNOWN, 3, "bad", "z")
    assert len(q.by_rank()[0]) == 2
    s = q.summary(max_lines=1)
    assert "3 dropped" in s and "rank 0: 2" in s and "2 more" in s
    assert "clean" in QuarantineReport().summary()


# -- bundle salvage ------------------------------------------------------------

def _bundle_dir(tmp_path, nprocs=2):
    d = tmp_path / "bundle"
    d.mkdir()
    payload = {"nprocs": nprocs, "metadata": AppMetadata().to_dict()}
    (d / "metadata.json").write_text(json.dumps(payload))
    for rank in range(nprocs):
        write_trace_file(d / f"trace.{rank}",
                         [rec(rank=rank, tick=i) for i in range(3)])
    return d


def test_bundle_load_salvages_missing_rank_file(tmp_path):
    d = _bundle_dir(tmp_path)
    (d / "trace.1").unlink()
    q = QuarantineReport()
    bundle = TraceBundle.load(d, quarantine=q)
    assert bundle.nevents == 3  # rank 0 survived
    assert any(e.rank == 1 and "missing" in e.reason for e in q.entries)


def test_bundle_load_truncated_trc_falls_back_to_text(tmp_path):
    d = _bundle_dir(tmp_path)
    cols = TraceColumns.from_records([rec(rank=0, tick=i) for i in range(3)])
    full = d / "columns.trc"
    cols.save(full)
    full.write_bytes(full.read_bytes()[:-24])  # lose the tail blob
    q = QuarantineReport()
    bundle = TraceBundle.load(d, quarantine=q)
    # the corrupt binary is quarantined whole; text traces supply the data
    assert any("corrupt binary" in e.reason for e in q.entries)
    assert bundle.nevents == 6


def test_bundle_load_corrupt_metadata_infers_ranks(tmp_path):
    d = _bundle_dir(tmp_path)
    (d / "metadata.json").write_text("{truncated")
    q = QuarantineReport()
    bundle = TraceBundle.load(d, quarantine=q)
    assert bundle.nprocs == 2
    assert bundle.nevents == 6
    assert bundle.metadata is None
    assert any("unreadable metadata" in e.reason for e in q.entries)


def test_bundle_load_strictly_raises_without_quarantine(tmp_path):
    d = _bundle_dir(tmp_path)
    (d / "metadata.json").write_text("{truncated")
    with pytest.raises(ValueError):
        TraceBundle.load(d)


def test_garbage_npz_quarantined(tmp_path):
    d = _bundle_dir(tmp_path)
    (d / "columns.npz").write_bytes(b"PK\x03\x04 not actually an npz")
    q = QuarantineReport()
    bundle = TraceBundle.load(d, quarantine=q)
    assert any("corrupt binary" in e.reason for e in q.entries)
    assert bundle.nevents == 6


# -- property: quarantine recovers every well-formed record --------------------

records_strategy = st.lists(
    st.builds(
        rec,
        rank=st.integers(min_value=0, max_value=7),
        tick=st.integers(min_value=0, max_value=1000),
        off=st.integers(min_value=0, max_value=1 << 40),
        op=st.sampled_from(["mpi_file_write_at", "mpi_file_read_at",
                            "mpi_file_write_at_all"]),
    ),
    max_size=30,
)

garbage_strategy = st.lists(
    # Surrogates (category Cs) cannot be UTF-8-encoded, so they can
    # never appear in a trace file in the first place.
    st.text(alphabet=st.characters(blacklist_characters="\n\r",
                                   blacklist_categories=("Cs",)),
            min_size=1, max_size=40).filter(lambda s: s.strip()),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(records=records_strategy, garbage=garbage_strategy,
       seed=st.randoms(use_true_random=False))
def test_roundtrip_salvages_every_well_formed_record(tmp_path_factory,
                                                     records, garbage, seed):
    """Interleave valid rows with arbitrary garbage anywhere in the file:
    quarantine ingest must recover exactly the valid rows, in order."""
    tmp = tmp_path_factory.mktemp("q")
    p = tmp / "trace.0"
    lines = [r.to_line() for r in records]
    for g in garbage:
        lines.insert(seed.randrange(len(lines) + 1), g)
    p.write_text(HEADER + "\n" + "\n".join(lines) + "\n")

    q = QuarantineReport()
    got = read_trace_columns(p, quarantine=q).to_records()
    # Garbage that happens to parse as a valid row is salvage, not loss:
    # every original record must be present as a subsequence, in order.
    it = iter(got)
    assert all(r in it for r in records)
    # and nothing was silently dropped: salvaged + quarantined = lines
    assert len(got) + len(q) == len(lines)

    # the engine agrees with the record-by-record reference parser
    q2 = QuarantineReport()
    assert reference_records(p, quarantine=q2) == got
    assert q2.entries == q.entries
