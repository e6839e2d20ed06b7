"""Two-phase collective I/O (ROMIO-style).

Collective MPI-IO operations (``MPI_File_write_at_all`` & co.) are
optimized by the I/O library: the participants' (possibly strided,
interleaved) accesses are merged into large contiguous file regions,
shuffled between ranks over the compute network, and issued to the
filesystem by a small set of *aggregator* ranks.  This is what makes
BT-IO FULL efficient, and it is the semantics our simulator charges for
``*_all`` calls.

The cost of one collective operation is::

    max(exchange phase, slowest aggregator's file access)

where the exchange moves every byte once across the participants'
NICs, and each aggregator issues one contiguous slice of the merged
region from its own compute node.
"""

from __future__ import annotations

from typing import Sequence

from repro.simmpi.engine import IORequest

from .device import MB
from .globalfs import Access, GlobalFS
from .network import LinkSpec
from .nodes import ComputeNode

Run = tuple[int, int]


def merge_runs(run_lists: Sequence[Sequence[Run]]) -> list[Run]:
    """Coalesce all participants' runs into sorted disjoint regions."""
    runs = sorted(r for lst in run_lists for r in lst)
    if not runs:
        return []
    out = [runs[0]]
    for off, ln in runs[1:]:
        last_off, last_ln = out[-1]
        if off <= last_off + last_ln:
            out[-1] = (last_off, max(last_off + last_ln, off + ln) - last_off)
        else:
            out.append((off, ln))
    return out


def split_regions(regions: list[Run], nparts: int) -> list[list[Run]]:
    """Partition merged regions into ``nparts`` byte-balanced slices."""
    total = sum(ln for _, ln in regions)
    if total == 0 or nparts <= 0:
        return [[] for _ in range(max(1, nparts))]
    target = total / nparts
    parts: list[list[Run]] = [[] for _ in range(nparts)]
    idx = 0
    acc = 0
    for off, ln in regions:
        pos = 0
        while pos < ln:
            room = target * (idx + 1) - acc
            take = int(min(ln - pos, max(1, room)))
            parts[idx].append((off + pos, take))
            pos += take
            acc += take
            if acc >= target * (idx + 1) and idx < nparts - 1:
                idx += 1
    return parts


def two_phase_io(
    reqs: Sequence[IORequest],
    start: float,
    globalfs: GlobalFS,
    clients: Sequence[ComputeNode],
    exchange_spec: LinkSpec,
    cb_nodes: int | None = None,
) -> float:
    """Service one collective I/O operation; returns its completion time.

    ``clients[i]`` is the compute node of ``reqs[i]``'s rank.  The number
    of aggregators defaults to ``min(#distinct client nodes, 2 x #I/O
    nodes)`` -- enough to saturate the servers without flooding them.
    """
    # Collective I/O on per-process files (-F): the ranks touch distinct
    # files, so nothing can be merged across them -- each rank's access
    # is issued independently (concurrently) from its own node, and the
    # collective completes when the slowest one does.
    file_id = reqs[0].file_id if reqs else None
    if any(r.unique_file or r.file_id != file_id for r in reqs):
        end = start
        for req, client in zip(reqs, clients):
            if not req.runs:
                continue
            acc = Access(start=start, client=client, runs=list(req.runs),
                         kind=req.kind, file_id=req.file_id)
            end = max(end, globalfs.service(acc))
        return end

    run_lists = [r.runs for r in reqs]
    merged = merge_runs(run_lists)
    total = sum(ln for _, ln in merged)
    if total == 0:
        return start
    kind = reqs[0].kind

    distinct_nodes: list[ComputeNode] = []
    seen = set()
    for c in clients:
        if id(c) not in seen:
            seen.add(id(c))
            distinct_nodes.append(c)
    if cb_nodes is None:
        cb_nodes = max(1, min(len(distinct_nodes), 2 * len(globalfs.ions)))
    aggregators = distinct_nodes[:cb_nodes]

    # Phase 1: shuffle. Every byte crosses the compute network once; the
    # aggregate rate is the participating nodes' NIC bandwidth (half
    # duplex-charged: each byte leaves one NIC and enters another).
    exchanged = sum(r.nbytes for r in reqs)
    agg_bw = len(distinct_nodes) * exchange_spec.bw_mb_s * MB / 2.0
    t_exchange = exchange_spec.latency_s + (exchanged / agg_bw if agg_bw else 0.0)

    # Phase 2: aggregators issue contiguous slices concurrently.
    slices = split_regions(merged, len(aggregators))
    t0 = start + t_exchange
    end = t0
    for node, part in zip(aggregators, slices):
        if not part:
            continue
        acc = Access(start=t0, client=node, runs=part, kind=kind, file_id=file_id)
        end = max(end, globalfs.service(acc))
    return end
