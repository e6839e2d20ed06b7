"""Reference Fig. 2 text parser: the oracle for the ingest engine.

A small, record-by-record reading of the text trace contract, kept out
of ``src/`` so production has one parser (:mod:`repro.tracer.ingest`)
and the parity tests have an independent one to compare it with:

* lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r`` (``bytes.splitlines``);
* each line decodes as UTF-8, and surrounding whitespace is ignored;
* line 1 is skipped only when it equals ``HEADER``; blank lines are
  skipped everywhere;
* a row has 8 or 9 whitespace-separated fields; a legacy 8-field row's
  ``AbsOffset`` is ``offset * etype_size`` (scalar, or ``{file_id:
  etype}`` map) or ``ABS_OFFSET_UNKNOWN`` when that size is unknown;
* every integer field fits int64.

A line that breaks a rule raises ``ValueError("path:lineno: reason:
'line'")``, or with a salvaging ``QuarantineReport`` becomes one entry
(rank from ``guess_rank``) while every other row is kept.  The reasons
are the production strings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.tracer.columns import TraceColumns
from repro.tracer.quarantine import QuarantineReport, guess_rank
from repro.tracer.tracefile import ABS_OFFSET_UNKNOWN, HEADER, TraceRecord

INT64 = range(-(1 << 63), 1 << 63)


def parse_row(line: str, etype_size) -> tuple[TraceRecord | None, str]:
    """One stripped, non-blank line -> ``(record, "")`` or
    ``(None, reason)``."""
    f = line.split()
    if len(f) not in (8, 9):
        return None, f"malformed trace line ({len(f)} fields)"
    try:
        rank, fid, off, tick, rs = (int(f[i]) for i in (0, 1, 3, 4, 5))
        time, duration = float(f[6]), float(f[7])
        if len(f) == 9:
            abs_off = int(f[8])
        else:
            es = (etype_size.get(fid) if isinstance(etype_size, Mapping)
                  else etype_size)
            abs_off = off * es if es else ABS_OFFSET_UNKNOWN
    except ValueError:
        return None, "malformed trace line"
    if any(v not in INT64 for v in (rank, fid, off, tick, rs, abs_off)):
        return None, "integer field outside int64"
    return TraceRecord(rank, fid, f[2], off, tick, rs, time, duration,
                       abs_off), ""


def reference_records(path, etype_size=None,
                      quarantine=None) -> list[TraceRecord]:
    """Every row of the text trace at ``path``, in file order."""
    path = Path(path)
    records = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            line = raw.decode("utf-8", "backslashreplace").strip()
            rec, reason = None, "trace line is not valid UTF-8"
        else:
            if not line or (lineno == 1 and line == HEADER):
                continue
            rec, reason = parse_row(line, etype_size)
        if rec is not None:
            records.append(rec)
        elif quarantine is None or quarantine.strict:
            raise ValueError(f"{path}:{lineno}: {reason}: {line!r}")
        else:
            quarantine.note(path, guess_rank(line), lineno, reason, line)
    return records


def reference_columns(path, etype_size=None, quarantine=None) -> TraceColumns:
    """:func:`reference_records` as columns (the ``python`` input shape)."""
    return TraceColumns.from_records(
        reference_records(path, etype_size, quarantine))


# -- parity checks ------------------------------------------------------------

def assert_same(a: TraceColumns, b: TraceColumns) -> None:
    """Same rows, op-table interning order and content digest."""
    assert len(a) == len(b)
    assert a.op_table == b.op_table
    assert a.content_digest() == b.content_digest()


def assert_matches_reference(parse, path, **kwargs) -> None:
    """``parse(path, quarantine=..., **kwargs)`` agrees with the oracle in
    strict mode (same columns, or the same ``path:lineno`` error) and
    in salvage mode (same columns and quarantine entries)."""
    try:
        ref = reference_columns(path, **kwargs)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:")
        try:
            parse(path, quarantine=None, **kwargs)
        except ValueError as got:
            assert str(got) == message
        else:
            raise AssertionError(f"no error; the reference raised {message}")
    else:
        assert_same(parse(path, quarantine=None, **kwargs), ref)
    q_got, q_ref = QuarantineReport(), QuarantineReport()
    assert_same(parse(path, quarantine=q_got, **kwargs),
                reference_columns(path, quarantine=q_ref, **kwargs))
    assert q_got.entries == q_ref.entries
