"""Bit-identity golden values of the simulated I/O hot path.

The simulator's outputs are the project's contract: every selection,
BW_CH and committed output digest derives from the clocks the engine
and the iosim stack compute.  This module pins, bit for bit
(``float.hex``), what a scaled-down IOR replay produces on each of the
paper's four configurations, for the three access geometries the
replayer uses (shared-file collective, independent, ``-F`` collective),
plus the engine-level clocks, ticks and a digest of every I/O event
under both schedulers.  Any float drift anywhere on the engine ->
MPI-IO -> two-phase -> FS -> RAID -> disk path fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.ior import IORParams, ior_program, run_ior
from repro.clusters import ALL_CONFIGURATIONS
from repro.core import cache as simcache
from repro.simmpi.engine import Engine

KB = 1024

#: np=6 scaled-down replay geometries (64 transfers per rank for the
#: collective one, 16 for the others).
GEOMETRIES = {
    "collective": IORParams(np=6, block_size=64 * 64 * KB,
                            transfer_size=64 * KB, collective=True),
    "independent": IORParams(np=6, block_size=16 * 64 * KB,
                             transfer_size=64 * KB),
    "file_per_process": IORParams(np=6, block_size=16 * 64 * KB,
                                  transfer_size=64 * KB, collective=True,
                                  file_per_process=True),
}

#: (geometry, configuration) -> {kind: float.hex(bandwidth MB/s)}
BANDWIDTHS = {
    ("collective", "configuration-A"):
        {"read": "0x1.c2e1feb417f24p+1", "write": "0x1.62f161c9cd3fbp+1"},
    ("collective", "configuration-B"):
        {"read": "0x1.d1d76d0943430p+2", "write": "0x1.4eb84cb041873p+6"},
    ("collective", "configuration-C"):
        {"read": "0x1.72fca572555a2p+1", "write": "0x1.3ef6ff6701f7bp+3"},
    ("collective", "finisterrae"):
        {"read": "0x1.5bdf4f32b7268p+1", "write": "0x1.573a61665e916p+4"},
    ("independent", "configuration-A"):
        {"read": "0x1.08262779067d2p+1", "write": "0x1.a44000a6bf24cp+2"},
    ("independent", "configuration-B"):
        {"read": "0x1.d420b32cf8b96p+2", "write": "0x1.f95da3029d3d8p+6"},
    ("independent", "configuration-C"):
        {"read": "0x1.2e129424f1bddp+1", "write": "0x1.9419bba33ae03p+6"},
    ("independent", "finisterrae"):
        {"read": "0x1.a5be556cb657fp+1", "write": "0x1.911c93aee3d38p+6"},
    ("file_per_process", "configuration-A"):
        {"read": "0x1.50a6160454cbfp+2", "write": "0x1.55fd70ec6441bp+6"},
    ("file_per_process", "configuration-B"):
        {"read": "0x1.a7c8a5507e634p+3", "write": "0x1.4635da4a1716dp+5"},
    ("file_per_process", "configuration-C"):
        {"read": "0x1.cf66d214aef46p+2", "write": "0x1.8e118276092c4p+6"},
    ("file_per_process", "finisterrae"):
        {"read": "0x1.77badf96ddbc4p+4", "write": "0x1.0c5e674d727d4p+8"},
}

#: (geometry, configuration) -> (I/O events, sha256 of the events,
#: float.hex(clock), tick) -- every rank ends on the same clock and tick.
ENGINE_RUNS = {
    ("collective", "configuration-B"): (
        768, "ad81ef364439d8f2a13c525801fbc4677ea14c6ccfa188f247a5aeeea504515d",
        "0x1.cae02834420fep+1", 133),
    ("independent", "configuration-C"): (
        192, "f6041d4fe83356611b1dfe8ce17f32cb259b68f81acaafc139fac7265dcad406",
        "0x1.4d2624ca1e74fp+1", 37),
    ("file_per_process", "finisterrae"): (
        192, "136380c417e1b9077efb9bb1b18a7984633a33c9a45676805fc77abfa583c121",
        "0x1.1c94f248ea968p-2", 37),
}


def events_digest(events) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(repr((e.rank, e.file_id, e.filename, e.op, e.offset,
                       e.abs_offset, e.tick, e.request_size, e.time.hex(),
                       e.duration.hex(), e.kind, e.collective,
                       e.unique_file)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("geometry,config", sorted(BANDWIDTHS))
def test_ior_bandwidths(geometry, config):
    simcache.clear_all()  # simulate, never replay a memoized result
    result = run_ior(ALL_CONFIGURATIONS[config](), GEOMETRIES[geometry])
    got = {kind: bw.hex() for kind, bw in result.bw_mb_s.items()}
    assert got == BANDWIDTHS[geometry, config]


@pytest.mark.parametrize("mode", ["auto", "threads"])
@pytest.mark.parametrize("geometry,config", sorted(ENGINE_RUNS))
def test_engine_run(geometry, config, mode):
    engine = Engine(6, platform=ALL_CONFIGURATIONS[config](), mode=mode)
    events = []
    engine.add_io_hook(events.append)
    run = engine.run(ior_program, GEOMETRIES[geometry])
    n_events, digest, clock, tick = ENGINE_RUNS[geometry, config]
    assert len(events) == n_events
    assert events_digest(events) == digest
    assert {c.hex() for c in run.clocks.values()} == {clock}
    assert set(run.ticks.values()) == {tick}
