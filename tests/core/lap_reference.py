"""Record-by-record LAP extraction: the test oracle of the columnar kernel.

A direct transcription of the three steps in :mod:`repro.core.lap`'s
module docstring over ``TraceRecord`` lists -- burst splitting by tick
adjacency, greedy tandem-repeat compression, one ``LAPEntry`` per
compressed group -- kept small and obviously correct so the vectorized
kernel (:func:`repro.core.lap.extract_laps_columns`,
:class:`repro.core.lap.LAPFolder`) can be compared against it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.lap import MAX_UNIT, LAPEntry, LAPOp
from repro.tracer.tracefile import TraceRecord


def split_bursts(records: Sequence[TraceRecord],
                 gap: int = 1) -> list[list[TraceRecord]]:
    """Split one rank's (single-file) records into tick-adjacent bursts."""
    bursts: list[list[TraceRecord]] = []
    for rec in records:
        if bursts and rec.tick - bursts[-1][-1].tick <= gap:
            bursts[-1].append(rec)
        else:
            bursts.append([rec])
    return bursts


def _unit_matches(records: Sequence[TraceRecord], start: int, unit: int) -> int:
    """Number of consecutive repetitions of the unit beginning at ``start``.

    Repetition k matches when, for every unit member j, the record at
    ``start + k*unit + j`` has the same op and request size as the
    member's first occurrence and its offset advances linearly
    (constant per-member displacement established by the first two
    repetitions).
    """
    n = len(records)
    if start + unit > n:
        return 0
    base = records[start:start + unit]
    reps = 1
    disp: list[int | None] = [None] * unit
    while True:
        lo = start + reps * unit
        if lo + unit > n:
            break
        ok = True
        for j in range(unit):
            a, b = base[j], records[lo + j]
            if a.op != b.op or a.request_size != b.request_size:
                ok = False
                break
            prev = records[lo + j - unit]
            step = b.offset - prev.offset
            if disp[j] is None:
                disp[j] = step
            elif disp[j] != step:
                ok = False
                break
        if not ok:
            break
        reps += 1
    return reps


def compress_burst(records: Sequence[TraceRecord]) -> list[LAPEntry]:
    """Tandem-repeat compression of one burst into LAP entries.

    Greedy scan: at each position try unit lengths 1..MAX_UNIT, pick the
    one covering the most records, emit an entry, continue after it.
    Multi-operation units must repeat at least three times -- any two
    pairs of records form a trivially "consistent" 2-unit pattern, so two
    repetitions carry no evidence of periodicity.
    """
    entries: list[LAPEntry] = []
    i = 0
    n = len(records)
    while i < n:
        best_unit, best_reps = 1, _unit_matches(records, i, 1)
        for unit in range(2, MAX_UNIT + 1):
            reps = _unit_matches(records, i, unit)
            if reps >= 3 and reps * unit > best_reps * best_unit:
                best_unit, best_reps = unit, reps
        chunk = records[i:i + best_unit * best_reps]
        entries.append(_make_entry(chunk, best_unit, best_reps))
        i += best_unit * best_reps
    return entries


def _make_entry(chunk: Sequence[TraceRecord], unit: int, reps: int) -> LAPEntry:
    ops = []
    for j in range(unit):
        first = chunk[j]
        if reps > 1:
            disp = chunk[unit + j].offset - chunk[j].offset
        else:
            disp = 0
        ops.append(LAPOp(
            op=first.op,
            kind=first.kind,
            request_size=first.request_size,
            disp=disp,
            init_offset=first.offset,
            init_abs_offset=first.abs_offset,
        ))
    return LAPEntry(
        rank=chunk[0].rank,
        file_id=chunk[0].file_id,
        rep=reps,
        ops=tuple(ops),
        first_tick=chunk[0].tick,
        last_tick=chunk[-1].tick,
        first_time=chunk[0].time,
        total_duration=sum(r.duration for r in chunk),
    )


def extract_laps(records: Sequence[TraceRecord], gap: int = 1) -> list[LAPEntry]:
    """Full LAP extraction for an entire trace (all ranks, all files).

    Records are grouped by (rank, file) preserving order, burst-split by
    tick adjacency, and tandem-compressed.  Entries come back ordered by
    (rank, file, first_tick).
    """
    by_rank_file: dict[tuple[int, int], list[TraceRecord]] = {}
    for rec in records:
        by_rank_file.setdefault((rec.rank, rec.file_id), []).append(rec)
    entries: list[LAPEntry] = []
    for key in sorted(by_rank_file):
        for burst in split_bursts(by_rank_file[key], gap=gap):
            entries.extend(compress_burst(burst))
    entries.sort(key=lambda e: (e.rank, e.file_id, e.first_tick))
    return entries
