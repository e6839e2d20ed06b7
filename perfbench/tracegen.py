"""Seeded Fig. 2 text traces in the phase shapes of the three paper apps.

This generator deliberately imports nothing from ``repro``: the traces
are the benchmark's *input*, so a change to the tracer or the trace
writer cannot change what the benchmark feeds the program.  A trace
directory holds ``trace.<rank>`` files (header line, then one
``IdP IdF MPI-Operation Offset tick RequestSize time duration
AbsOffset`` row per operation) plus ``metadata.json``, the layout
``repro`` saves and loads.

Every shape emits exactly ``events_per_rank`` rows on every rank, so all
traces of one size cost the same to parse.  The seed picks request
sizes, repetition splits, offsets and timings; the number of phases
and bursts per shape is fixed, so two seeds give different bytes but
the same amount of characterization work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HEADER = "IdP IdF MPI-Operation Offset tick RequestSize time duration AbsOffset"
MB = 1 << 20
SHAPES = ("madbench2", "btio", "roms")

#: Ticks between bursts: far above any tick tolerance the benchmark
#: models with, so every burst is its own phase.
BURST_GAP = 64


def _split(total: int, weights: list[float], rng: random.Random,
           jitter: float = 0.15, minimum: int = 1) -> list[int]:
    """``total`` split by ``weights`` with seeded jitter; sums exactly."""
    raw = [w * (1.0 + rng.uniform(-jitter, jitter)) for w in weights]
    scale = total / sum(raw)
    parts = [max(minimum, int(r * scale)) for r in raw]
    parts[-1] += total - sum(parts)
    if parts[-1] < minimum:
        raise ValueError(f"cannot split {total} events over {len(weights)} "
                         "bursts")
    return parts


def _file(name: str, fid: int, nranks: int, *, pointer: str, collective: bool,
          noncollective: bool, mode: str, etype: int) -> dict:
    return {"filename": name, "file_id": fid, "pointer_kinds": [pointer],
            "collective": collective, "noncollective": noncollective,
            "access_mode": mode, "access_type": "shared",
            "etype_size": etype, "size_bytes": 0, "openers": nranks,
            "nonblocking": False}


def _madbench2_plan(nranks: int, events: int, rng: random.Random):
    """One shared file, individual pointers: W, R, W-R, W, R phases."""
    rs = rng.choice((4, 8, 16, 32)) * MB
    w, r, wr, w2 = _split(events, [2, 2, 4, 1, 1], rng, minimum=2)[:4]
    wr //= 2  # the W-R burst takes two rows per repetition
    r2 = events - (w + r + 2 * wr + w2)
    units = [("MPI_File_write",), ("MPI_File_read",),
             ("MPI_File_write", "MPI_File_read"),
             ("MPI_File_write",), ("MPI_File_read",)]
    bursts = [{"fid": 0, "unit": u, "rep": n, "rs": rs}
              for u, n in zip(units, (w, r, wr, w2, r2))]
    files = [_file("madbench2.dat", 0, nranks, pointer="individual",
                   collective=False, noncollective=True,
                   mode="sequential", etype=1)]
    return bursts, files


def _btio_plan(nranks: int, events: int, rng: random.Random):
    """Strided collective writes with a 40-byte etype, then a read."""
    rs = 40 * rng.choice((65536, 131072, 262144))
    steps = 40
    reps = _split(events, [1.0] * steps + [8.0], rng, jitter=0.1)
    bursts = [{"fid": 0, "unit": ("MPI_File_write_at_all",), "rep": n,
               "rs": rs, "etype": 40} for n in reps[:-1]]
    bursts.append({"fid": 0, "unit": ("MPI_File_read_at_all",),
                   "rep": reps[-1], "rs": rs, "etype": 40})
    files = [_file("btio.out", 0, nranks, pointer="explicit",
                   collective=True, noncollective=False, mode="strided",
                   etype=40)]
    return bursts, files


def _roms_plan(nranks: int, events: int, rng: random.Random):
    """History files of 2-D/3-D fields plus a restart file, each opened
    by a small non-collective header write."""
    nhist = 4
    fields = [4096] * 3 + [65536] * 4
    layout = []
    for fid in range(nhist + 1):
        layout.append((fid, "MPI_File_write_at", rng.choice((96, 256)), 0.2))
        for size in (fields if fid < nhist else fields[3:]):
            layout.append((fid, "MPI_File_write_at_all", size, 1.0))
    reps = _split(events, [w for *_, w in layout], rng, jitter=0.2)
    bursts = [{"fid": fid, "unit": (op,), "rep": n, "rs": size}
              for (fid, op, size, _), n in zip(layout, reps)]
    names = [f"his_{i + 1:04d}.nc" for i in range(nhist)] + ["rst.nc"]
    files = [_file(name, fid, nranks, pointer="explicit", collective=True,
                   noncollective=True, mode="sequential", etype=1)
             for fid, name in enumerate(names)]
    return bursts, files


_PLANS = {"madbench2": _madbench2_plan, "btio": _btio_plan,
          "roms": _roms_plan}


def _rank_rows(rank: int, nranks: int, bursts: list[dict],
               durations: list[float]) -> list[str]:
    """One rank's rows.  Bursts with an etype are strided across ranks
    (BT-IO's interleaved view); the others give each rank a contiguous
    region of the file, after the regions of the file's earlier bursts."""
    rows = [HEADER]
    tick = 0
    t = rank * 1e-3
    cursor: dict[int, int] = {}   # file -> next free byte (contiguous)
    strided: dict[int, int] = {}  # file -> next record index (strided)
    for b, dur in zip(bursts, durations):
        tick += BURST_GAP
        t += 0.05
        fid, rs, unit, rep = b["fid"], b["rs"], b["unit"], b["rep"]
        etype = b.get("etype")
        base = cursor.get(fid, 0)
        first = 0 if "read" in unit[0] else strided.get(fid, 0)
        for k in range(rep):
            for j, op in enumerate(unit):
                if etype:
                    idx = first + k
                    view_off = idx * rs // etype
                    abs_off = (idx * nranks + rank) * rs
                else:
                    abs_off = base + ((rank * rep + k) * len(unit) + j) * rs
                    view_off = abs_off
                tick += 1
                rows.append(f"{rank} {fid} {op} {view_off} {tick} {rs} "
                            f"{t:.6f} {dur:.6f} {abs_off}")
                t += dur
        cursor[fid] = base + nranks * rep * len(unit) * rs
        if etype and "write" in unit[0]:
            strided[fid] = first + rep
    return rows


def generate(directory: str | Path, shape: str, seed: int, *,
             nranks: int = 64, events_per_rank: int = 4688) -> dict:
    """Write one trace directory; returns its input properties.

    Byte-identical output for identical arguments.
    """
    if shape not in _PLANS:
        raise ValueError(f"unknown shape {shape!r}; one of {SHAPES}")
    rng = random.Random(f"{shape}:{seed}")
    bursts, files = _PLANS[shape](nranks, events_per_rank, rng)
    durations = [rng.uniform(0.5, 2.0) * b["rs"] / (200.0 * MB)
                 for b in bursts]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rank in range(nranks):
        text = "\n".join(_rank_rows(rank, nranks, bursts, durations)) + "\n"
        (directory / f"trace.{rank}").write_bytes(text.encode("ascii"))
    meta = {"nprocs": nranks, "metadata": {"files": files}}
    (directory / "metadata.json").write_text(json.dumps(meta, indent=2))
    return {"shape": shape, "ranks": nranks,
            "events": nranks * events_per_rank, "bursts": len(bursts)}
