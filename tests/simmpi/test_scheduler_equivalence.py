"""Scheduler goldens: every seed app reproduces pinned traces bit for bit.

The engine runs every rank program on one single-threaded coroutine
scheduler.  It replaced a thread-per-rank scheduler, and the values
below are that scheduler's results for eight app runs on three
platforms, captured before it was deleted: the I/O event count, a
sha256 over every event (``events_digest``), every rank's final clock
(``float.hex``) and tick.  Any change in the deterministic
``(virtual clock, rank id)`` ordering fails here.
"""

from __future__ import annotations

import pytest

from repro.apps.btio import BTIOParams, btio_program
from repro.apps.ior import IORParams, ior_program
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.apps.roms import ROMSParams, roms_program
from repro.apps.synthetic import SyntheticParams, synthetic_program
from repro.simmpi.engine import Engine, IdealPlatform
from repro.simmpi.fileio import IOEvent

from tests.conftest import make_nfs_cluster, make_pvfs_cluster
from tests.iosim.test_hot_path_golden import events_digest

APPS = [
    ("ior", ior_program, 4,
     (IORParams(np=4, block_size=4 * 1024 * 1024,
                transfer_size=1024 * 1024),)),
    ("ior-collective", ior_program, 4,
     (IORParams(np=4, block_size=4 * 1024 * 1024,
                transfer_size=1024 * 1024, collective=True),)),
    ("ior-unique", ior_program, 4,
     (IORParams(np=4, block_size=4 * 1024 * 1024,
                transfer_size=1024 * 1024, file_per_process=True,
                random_offsets=True),)),
    ("madbench2", madbench2_program, 4,
     (MADbench2Params(kpix=1, nbin=4, busy_seconds=0.01),)),
    ("madbench2-gangs", madbench2_program, 4,
     (MADbench2Params(kpix=1, nbin=4, busy_seconds=0.01, ngang=2),)),
    ("btio", btio_program, 4,
     (BTIOParams(cls="A"),)),
    ("synthetic", synthetic_program, 4,
     (SyntheticParams(nrep=6),)),
    ("roms", roms_program, 4,
     (ROMSParams(nsteps=8, history_every=4),)),
]

PLATFORMS = {"ideal": IdealPlatform, "nfs": make_nfs_cluster,
             "pvfs": make_pvfs_cluster}

#: (app, platform) -> (I/O events, sha256 of the events,
#: float.hex(clock) shared by every rank, per-rank ticks)
GOLDENS = {
    ("ior", "ideal"): (
        32, "b0cdc1ba9524a0a97424a695600ba1fd9ccef695fdb8958490a21c2166bade4a",
        "0x1.5cec143aca815p-4", (13, 13, 13, 13)),
    ("ior", "nfs"): (
        32, "e15fdca7730f0dd02542144e370fd3b77ca5505c0396d68a2f51538ab746cb74",
        "0x1.fb53bd9bbf84dp-2", (13, 13, 13, 13)),
    ("ior", "pvfs"): (
        32, "89b6d460e35f994c77e22100c0078d620fd8eb344f4584c5518670ae780196ef",
        "0x1.0cf7d421c0442p-1", (13, 13, 13, 13)),
    ("ior-collective", "ideal"): (
        32, "98709076975f23fa3577c36cfa534fd78c2533239ad64d3b8c23b1e018b8c1e0",
        "0x1.58edb7a8f9332p-2", (13, 13, 13, 13)),
    ("ior-collective", "nfs"): (
        32, "64bee2896b7dfb2727e3fbdd077812e6e4275271a4fa5fcdb31e7d81a48e82f2",
        "0x1.239a1e47ce5e5p-1", (13, 13, 13, 13)),
    ("ior-collective", "pvfs"): (
        32, "da879901bd7a88a2e179e09b49204388af4eb6e0a5521a43b716ab887b021371",
        "0x1.3315f3a8ca518p-1", (13, 13, 13, 13)),
    ("ior-unique", "ideal"): (
        32, "fd3f297d4aedc1f44bacb461bb979963677045eea48d336e097c13df0d1c308b",
        "0x1.5cec143aca815p-4", (13, 13, 13, 13)),
    ("ior-unique", "nfs"): (
        32, "4f25b028dd4eff2f2d4a2f41b53fbd6130e79aa9677d4cf90e8be2804e22b9c8",
        "0x1.d1a3dbc14479ap-2", (13, 13, 13, 13)),
    ("ior-unique", "pvfs"): (
        32, "72d77f288cb8a17754ae5f04c2295268d01d02947dba8aec60e91575bd1e34c1",
        "0x1.0151b84f96ff3p-1", (13, 13, 13, 13)),
    ("madbench2", "ideal"): (
        64, "7679e90359785a3f4c36c48c10fdfbe0746f7f540f9825c0fdc9508abc39a310",
        "0x1.e935d955c7320p-2", (22, 22, 22, 22)),
    ("madbench2", "nfs"): (
        64, "f3465095e3f5dd3971cb07fd1aa02e12b9b3df6abce3ec9ff249e24dac67d064",
        "0x1.2d8302082b293p+0", (22, 22, 22, 22)),
    ("madbench2", "pvfs"): (
        64, "e457e3046ef5ef432f368789f0ac3607e831b5c7ad87fee9fb455d30298940bb",
        "0x1.3d3401c94baf3p+0", (22, 22, 22, 22)),
    ("madbench2-gangs", "ideal"): (
        64, "93c7c7ef1e32a27476c0a4b1473724f0392f93e8f01029c461d5bbc95c23331a",
        "0x1.e95015971606dp-2", (23, 23, 23, 23)),
    ("madbench2-gangs", "nfs"): (
        64, "e4911e3e6e967dd5bdf15db8f70af85068ce8ff0b4125dd34c3cbea3b6aa9982",
        "0x1.2ca67348313c0p+0", (23, 23, 23, 23)),
    ("madbench2-gangs", "pvfs"): (
        64, "f0134304efd67105e4fd6111e8502f531392fa739d2faa5a1d0707c6ea979dbb",
        "0x1.4074506df4708p+0", (23, 23, 23, 23)),
    ("btio", "ideal"): (
        320, "d4488899e2914d04683311303bb33599ecc07dccb233107922bf6400ba39d6e0",
        "0x1.5c12c6ac216ccp+3", (4883, 4883, 4883, 4883)),
    ("btio", "nfs"): (
        320, "d4a57ee7561f58e1f3773c887609308339c97d84ea0df381d355b8cbf524dab9",
        "0x1.a9ef9cfcec069p+3", (4883, 4883, 4883, 4883)),
    ("btio", "pvfs"): (
        320, "593e48f1102d31d52c9d49ecdc15db57feeeb7ed940fa9577ba0596bd5873994",
        "0x1.18c225cb5c4d6p+3", (4883, 4883, 4883, 4883)),
    ("synthetic", "ideal"): (
        48, "b72d9d0f6daa427fdd95c51154934e9f7835c0b2e0853d0afdb55b68ea77f9d2",
        "0x1.4abe291b01633p+2", (740, 740, 740, 740)),
    ("synthetic", "nfs"): (
        48, "0f42319bbad17f67ec53e987e21ecefae0984ac6dbc4d1d75c6dc70425c99ce4",
        "0x1.a62aaa907bc8ap+2", (740, 740, 740, 740)),
    ("synthetic", "pvfs"): (
        48, "828fe6ed73b4478037d36b117ee23213aa36b10543135ada1371e5b9f5232520",
        "0x1.e7c28eda66117p+1", (740, 740, 740, 740)),
    ("roms", "ideal"): (
        116, "9bd93e190ea0e55949b92c56b3785950696ecc9dc5f0b68847dffca03ea68152",
        "0x1.5e7bd6901a13dp-2", (105, 77, 77, 77)),
    ("roms", "nfs"): (
        116, "0178314494dde99140e2f11a204372da0b013f84b10d32d1cc0aa9b238fe2c6c",
        "0x1.fd4e604dbcf8ap-1", (105, 77, 77, 77)),
    ("roms", "pvfs"): (
        116, "50387fc16637907cc1f6a5a6ac570d976cbd98446e0c8d317f2bda5e1759ad62",
        "0x1.4d0167ebdeff3p-2", (105, 77, 77, 77)),
}


@pytest.mark.parametrize("platform", list(PLATFORMS))
@pytest.mark.parametrize("name,program,nprocs,args", APPS,
                         ids=[a[0] for a in APPS])
def test_bit_identical_across_schedulers(name, program, nprocs, args,
                                         platform):
    events: list[IOEvent] = []
    engine = Engine(nprocs, platform=PLATFORMS[platform]())
    engine.add_io_hook(events.append)
    run = engine.run(program, *args)

    n_events, digest, clock, ticks = GOLDENS[name, platform]
    assert len(events) == n_events
    assert events_digest(events) == digest
    ranks = range(nprocs)
    assert [run.clocks[r].hex() for r in ranks] == [clock] * nprocs
    assert tuple(run.ticks[r] for r in ranks) == ticks
