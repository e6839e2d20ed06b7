"""Bit-identity golden values of the simulated I/O hot path.

The simulator's outputs are the project's contract: every selection,
BW_CH and committed output digest derives from the clocks the engine
and the iosim stack compute.  This module pins, bit for bit
(``float.hex``), what a scaled-down IOR replay produces on each of the
paper's four configurations, for the three access geometries the
replayer uses (shared-file collective, independent, ``-F`` collective),
plus the engine-level clocks, ticks and a digest of every I/O event.
After each replay it also pins the whole storage stack's queue state:
every ``Resource``'s ``next_free``/``busy_time``/``total_requests``
(``float.hex``) and every disk head.  A degraded-and-rebuilding RAID 5,
an installed ``FaultPlan`` (fail-slow disk, deferred I/O-node dropout,
plan-driven member death) and direct RAID 5/6 transfer sequences
(healthy, degraded, rebuilding) cover the fault branches.  Any float
drift anywhere on the engine -> MPI-IO -> two-phase -> FS -> RAID ->
disk path fails here.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import pytest

from repro import faults
from repro.apps.ior import IORParams, ior_program, run_ior
from repro.clusters import ALL_CONFIGURATIONS
from repro.core import cache as simcache
from repro.faults import DROPOUT, FAIL_SLOW, FAIL_STOP, FaultPlan, FaultSpec
from repro.iosim import RAID5, RAID6, Disk
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


def _resource_state(res) -> tuple:
    return (res.name, res.next_free.hex(), res.busy_time.hex(),
            res.total_requests)


def _disk_state(disk) -> tuple:
    return _resource_state(disk.resource) + (disk._head,)


def storage_digest(cluster) -> str:
    """sha256 of every queue's state and every disk head of a cluster."""
    h = hashlib.sha256()
    for node in cluster.compute_nodes:
        h.update(repr(_resource_state(node.nic.resource)).encode())
    for ion in cluster.globalfs.ions:
        h.update(repr(_resource_state(ion.nic.resource)).encode())
        h.update(repr(ion.fs._last_read_end).encode())
        for disk in ion.fs.volume.disks:
            h.update(repr(_disk_state(disk)).encode())
    return h.hexdigest()


def _bandwidths(result) -> dict:
    return {kind: bw.hex() for kind, bw in result.bw_mb_s.items()}


#: (geometry, configuration) -> storage_digest after the replay
STORAGE = {
    ("collective", "configuration-A"):
        "208a28085a1d5828eb9437d4b446d4c1f6a1d18edac0a67a4a2a2451e5444d08",
    ("collective", "configuration-B"):
        "08ba876dd7f30d1f0f94fbf2a2423870441dcf3f4d5797222d551b6dbce18343",
    ("collective", "configuration-C"):
        "9c603084f045472e0be09cb98eafc9958cb6fe730abf7975cb44e4ab50e07feb",
    ("collective", "finisterrae"):
        "6b9d140baae50eec3a0fca88d9ac814ae4ddbe801e16ab9be3d129cb128d4c02",
    ("file_per_process", "configuration-A"):
        "75eeab68d915e4622f82d7e062eb3648d7c0f312f1a8649bbb27bff2329ddb25",
    ("file_per_process", "configuration-B"):
        "ec4c60587baebaea64339e7457eeb8369d1f32eba4f15ddf47fa343f05bdff9c",
    ("file_per_process", "configuration-C"):
        "a6062d795cdf534263e1bbddbc0e87c9324d4f93d1f7c207733a0e15439245ac",
    ("file_per_process", "finisterrae"):
        "c42f08f99f9aa587b9e7ecd9e0a80da016126e3eb0fb39e70d7320848c8f85aa",
    ("independent", "configuration-A"):
        "64613f655231b811492ee7aaa4785f13f15d2ab405fc750e11fc89159fc78a7c",
    ("independent", "configuration-B"):
        "ab84bb982a577d4e873f2bdeb34cefd95f2177d61517b4375359428d2b442428",
    ("independent", "configuration-C"):
        "88b65fb015941199cdab8f12a7947476a7f7e82234aa66328471be5999018998",
    ("independent", "finisterrae"):
        "a9e82db336328943025305b5ea9ecda226dfc0f45cbd3ccf9846b484129749a6",
}


@pytest.mark.parametrize("geometry,config", sorted(BANDWIDTHS))
def test_ior_bandwidths(geometry, config):
    simcache.clear_all()  # simulate, never replay a memoized result
    cluster = ALL_CONFIGURATIONS[config]()
    result = run_ior(cluster, GEOMETRIES[geometry])
    assert _bandwidths(result) == BANDWIDTHS[geometry, config]
    assert storage_digest(cluster) == STORAGE[geometry, config]


@pytest.mark.parametrize("geometry,config", sorted(ENGINE_RUNS))
def test_engine_run(geometry, config):
    engine = Engine(6, platform=ALL_CONFIGURATIONS[config]())
    events = []
    engine.add_io_hook(events.append)
    run = engine.run(ior_program, GEOMETRIES[geometry])
    n_events, digest, clock, tick = ENGINE_RUNS[geometry, config]
    assert len(events) == n_events
    assert events_digest(events) == digest
    assert {c.hex() for c in run.clocks.values()} == {clock}
    assert set(run.ticks.values()) == {tick}


def degraded_cluster():
    """Configuration A with one RAID 5 member dead and a rebuild running."""
    cluster = ALL_CONFIGURATIONS["configuration-A"]()
    volume = cluster.globalfs.server.fs.volume
    volume.fail_disk(1)
    volume.start_rebuild()
    return cluster


#: geometry -> ({kind: float.hex(bandwidth)}, storage_digest)
DEGRADED = {
    "collective": (
        {"read": "0x1.a63a88a145483p+1", "write": "0x1.6f03ac09007efp+1"},
        "b8ca030d5667a7f14801a67d4d8ccc1e918d17a012d5963ff4fa541e20deb785"),
    "file_per_process": (
        {"read": "0x1.ae7f90e3757d2p+1", "write": "0x1.55fd70ec6441bp+6"},
        "105680976bf384a89f0d074ed8dab58e0bbfb7a029578fbf325e0c78e952c94b"),
    "independent": (
        {"read": "0x1.cc7e9d85a5f6cp+0", "write": "0x1.6a368b838f01bp+3"},
        "835ebc5adf9eede3a7748cce8bd6d467b87a949f1516853023e5ee71c2ae0e40"),
}


@pytest.mark.parametrize("geometry", sorted(DEGRADED))
def test_degraded_raid5_replay(geometry):
    simcache.clear_all()
    cluster = degraded_cluster()
    result = run_ior(cluster, GEOMETRIES[geometry])
    assert (_bandwidths(result), storage_digest(cluster)) == \
        DEGRADED[geometry]


def fault_plan() -> FaultPlan:
    """Configuration A under a slow member, a deferred dropout of the
    NFS server and a member that dies mid-run."""
    return FaultPlan([
        FaultSpec(FAIL_SLOW, "sdb", start=0.0, slow_factor=2.5),
        FaultSpec(DROPOUT, "nas0", start=0.5, end=1.5, mode="defer"),
        FaultSpec(FAIL_STOP, "sdd", start=2.0),
    ])


#: The fault events every faulted replay records, in order.
FAULT_EVENTS = [
    ("fail_slow", "sdb", 0.0, "x2.50 until inf"),
    ("dropout", "nas0", 0.5, "defer until 1.500"),
    ("fail_stop", "sdd", 2.0, "member down"),
]

#: geometry -> ({kind: float.hex(bandwidth)}, storage_digest, fault events)
FAULTED = {
    "collective": (
        {"read": "0x1.ad219b6934c9cp+0", "write": "0x1.fd235cb44e9b3p-1"},
        "2eb4047557e095521bcb7a21520292f67b3d386927f4eb3662c175ed692c6727",
        FAULT_EVENTS),
    "file_per_process": (
        {"read": "0x1.15e2be566e0a0p+2", "write": "0x1.fba7644c08740p+1"},
        "3412ed63103b548833134d607a741297513a11445d4dc69e4895eda576400802",
        FAULT_EVENTS),
    "independent": (
        {"read": "0x1.411b7428aedd1p+0", "write": "0x1.411674b4ee9b7p+0"},
        "b0e2b187bc0dee50f1ef0bf5afb7c6abc5f382e79c85ec1bd29a3a8140e41074",
        FAULT_EVENTS),
}


@pytest.mark.parametrize("geometry", sorted(FAULTED))
def test_fault_plan_replay(geometry):
    simcache.clear_all()
    cluster = ALL_CONFIGURATIONS["configuration-A"]()
    plan = fault_plan()
    with faults.injected(plan):
        result = run_ior(cluster, GEOMETRIES[geometry])
    assert (_bandwidths(result), storage_digest(cluster),
            plan.event_stream()) == FAULTED[geometry]


KB64 = 64 * KB

#: (kind, offset, nbytes, locator, fragments, start-after-previous?)
VOLUME_OPS = [
    ("write", 0, 4 * KB64, 0, 1, False),
    ("write", 4 * KB64, 16 * KB64, 1, 1, True),
    ("write", 0, KB64, 2, 3, False),
    ("write", 3 * KB64, 5 * KB, 3, 1, True),
    ("write", 77 * KB64, KB64, 4, 1, False),
    ("read", 0, 16 * KB64, 0, 1, True),
    ("read", 16 * KB64, 3 * KB64, 5, 2, False),
    ("read", 40 * KB64, KB, 1, 1, True),
    ("write", 41 * KB64, 64 * KB64, 7, 4, True),
    ("read", 41 * KB64, 64 * KB64, 7, 1, False),
]


def _failed(*members):
    def setup(volume):
        for i in members:
            volume.fail_disk(i)
    return setup


def _rebuilding(*members, overhead=None):
    def setup(volume):
        _failed(*members)(volume)
        volume.start_rebuild(overhead)
    return setup


#: name -> (volume class, members, setup, fault specs of a plan)
VOLUMES = {
    "raid5": (RAID5, 5, _failed(), ()),
    "raid5-failed": (RAID5, 5, _failed(1), ()),
    "raid5-rebuild": (RAID5, 5, _rebuilding(1), ()),
    "raid5-rebuild-healthy": (RAID5, 5, _rebuilding(overhead=0.4), ()),
    "raid5-plan": (RAID5, 5, _failed(), (
        FaultSpec(FAIL_SLOW, "d0", start=0.0, end=0.05, slow_factor=3.0),
        FaultSpec(FAIL_STOP, "d2", start=0.03))),
    "raid6": (RAID6, 6, _failed(), ()),
    "raid6-failed": (RAID6, 6, _failed(4), ()),
    "raid6-failed2": (RAID6, 6, _failed(0, 3), ()),
    "raid6-rebuild": (RAID6, 6, _rebuilding(2, overhead=0.1), ()),
    "raid6-plan": (RAID6, 6, _failed(5), (
        FaultSpec(FAIL_STOP, "d1", start=0.02),)),
}


def volume_digest(name: str) -> str:
    """sha256 of every completion time, the final member states and the
    recorded fault events of :data:`VOLUME_OPS` run on one volume."""
    cls, members, setup, specs = VOLUMES[name]
    volume = cls("vol", [Disk(f"d{i}") for i in range(members)],
                 stripe_kb=64)
    setup(volume)
    h = hashlib.sha256()
    t = 0.0
    plan = FaultPlan(specs)
    with faults.injected(plan) if specs else nullcontext():
        for kind, offset, nbytes, locator, fragments, chained in VOLUME_OPS:
            end = volume.transfer(t if chained else 0.0, offset, nbytes,
                                  kind, locator=locator, fragments=fragments)
            h.update(end.hex().encode())
            t = end
    for disk in volume.disks:
        h.update(repr(_disk_state(disk)).encode())
    h.update(repr(plan.event_stream()).encode())
    return h.hexdigest()


#: volume name -> volume_digest
VOLUME_DIGESTS = {
    "raid5": "381c4a97583e213694f7a2e01d608919ca55713a7e4cf33e7f4f30aa9cf839ce",
    "raid5-failed": "83ba0ae09833cecd2ec9b9e42e7c3de08e89c59cfc8a9441afa8c56d2dec045b",
    "raid5-plan": "56a55dec50285550ee3a1f145e521943d126d0b6478a7b279de487180754d73e",
    "raid5-rebuild": "b66881e9452ea344aafac51fb0d0408fca43b4801dfa98383521a436337984e8",
    "raid5-rebuild-healthy": "2408c2510f373ee81b1a7c0d904bc5c272d978fa5edba64bef0952eeec40ee4d",
    "raid6": "b129f56d50fa87555c18506f9bbcbecbec887935f262b02763bcae1481429397",
    "raid6-failed": "8b69acd96543189f4ae745b74d29eb4315effb70f4edbb4c069e4125b60f0c4e",
    "raid6-failed2": "cfaba59905cf27c4c3631e2c76d8b3c75f9929413d50017533324bfb75ee3425",
    "raid6-plan": "7874ac0579e2ecaa95c1316b61e25cc06b48530350fbd5aed4c3d1294734e7e1",
    "raid6-rebuild": "69c87926c44e187c6a47d81c0011eab1a959e65261ecf187a46fd9c9c36951b2",
}


@pytest.mark.parametrize("name", sorted(VOLUMES))
def test_volume_transfer_sequence(name):
    assert volume_digest(name) == VOLUME_DIGESTS[name]
