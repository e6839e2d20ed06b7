"""Collective-verb golden: every MPI verb of the engine, pinned bit for bit.

The seed-app goldens (``test_scheduler_equivalence.py``,
``tests/iosim/test_hot_path_golden.py``) exercise only the verbs those
apps call.  This module runs one 4-rank program that calls every
collective verb -- ``split`` and a sub-communicator ``allreduce``, a
``sendrecv`` ring, zero-duration local ops, ranks arriving at different
clocks, and ``write_at_all``/``read_at_all`` under a strided view -- and
pins each rank's results, final clock (``float.hex``) and tick plus a
digest of the I/O events, on ``IdealPlatform`` and on configuration-C.
The error paths of collective matching are pinned as well.
"""

from __future__ import annotations

import pytest

from repro.clusters import ALL_CONFIGURATIONS
from repro.simmpi import (
    DOUBLE,
    CollectiveMismatch,
    Comm,
    Engine,
    IdealPlatform,
    MPIUsageError,
    Vector,
)
from repro.simmpi.fileio import IOEvent

from tests.iosim.test_hot_path_golden import events_digest

NPROCS = 4
KB = 1024


def _h(x: float) -> str:
    return float(x).hex()


def every_verb(ctx, out):
    """Call every verb once or more; append each result to ``out``."""
    rank = ctx.rank
    # Ranks reach the first collective at different clocks.
    yield from ctx.compute(0.001 * (rank + 1))
    yield from ctx.compute(0.0)
    yield from ctx.barrier()
    out.append(("clock", _h(ctx.clock), ctx.tick))
    out.append(("bcast", (yield from ctx.bcast(f"b{rank}", root=1, nbytes=64))))
    out.append(("allreduce", (yield from ctx.allreduce(rank + 1))))
    # The latest clock, as a checkpoint: it differs across platforms.
    out.append(("clock", _h((yield from ctx.allreduce(
        ctx.clock, op=max, nbytes=16))), ctx.tick))
    out.append(("gather", (yield from ctx.gather(rank * 10, root=2,
                                                 nbytes=32))))
    out.append(("reduce", (yield from ctx.reduce(rank, root=3, op=max))))
    values = [f"s{i}" for i in range(ctx.size)] if rank == 0 else None
    out.append(("scatter", (yield from ctx.scatter(values, root=0,
                                                   nbytes=128))))
    yield from ctx.compute(0.0005 * (NPROCS - rank))
    out.append(("allgather", (yield from ctx.allgather(rank * rank,
                                                       nbytes=24))))
    out.append(("alltoall", (yield from ctx.alltoall(nbytes_per_peer=4096))))
    sub = yield from ctx.split(color=rank % 2, key=-rank)
    out.append(("split", sub.world_ranks, sub.rank(rank)))
    out.append(("sub-allreduce", (yield from ctx.allreduce(
        10 * rank, nbytes=8 * KB, comm=sub))))
    out.append(("sub-bcast", (yield from ctx.bcast(
        rank, root=max(sub.world_ranks), comm=sub))))
    yield from ctx.barrier(sub)
    right, left = (rank + 1) % ctx.size, (rank - 1) % ctx.size
    out.append(("sendrecv", (yield from ctx.sendrecv(
        dest=right, source=left, nbytes=2 * KB, payload=f"r{rank}"))))
    out.append(("clock", _h(ctx.clock), ctx.tick))

    # Collective I/O under a strided view: 4 interleaved 1 KB blocks.
    fh = yield from ctx.file_open("golden.dat")
    filetype = Vector(count=4, blocklen=128, stride=128 * NPROCS, base=DOUBLE)
    yield from fh.set_view(disp=rank * KB, etype=DOUBLE, filetype=filetype)
    yield from ctx.compute(0.0002 * rank)
    yield from fh.write_at_all(0, 4 * KB)
    yield from fh.write_at_all(512, 4 * KB)
    yield from fh.seek(0)
    yield from fh.read_at_all(0, 4 * KB)
    yield from fh.write_at(1024, KB)
    yield from fh.close()
    own = yield from ctx.file_open("golden-own", unique=True)
    yield from own.write_at(0, 8 * KB)
    yield from own.close()
    yield from ctx.barrier()
    out.append(("clock", _h(ctx.clock), ctx.tick))


PLATFORMS = {"ideal": IdealPlatform,
             "configuration-C": ALL_CONFIGURATIONS["configuration-C"]}

#: Per-rank results; they do not depend on the platform.
RESULTS = {
    r: [("bcast", "b1"),
        ("allreduce", 10),
        ("gather", [0, 10, 20, 30] if r == 2 else None),
        ("reduce", 3 if r == 3 else None),
        ("scatter", f"s{r}"),
        ("allgather", [0, 1, 4, 9]),
        ("alltoall", None),
        # key=-rank orders each half by descending world rank
        ("split", (r % 2 + 2, r % 2), 1 - r // 2),
        ("sub-allreduce", 20 if r % 2 == 0 else 40),
        ("sub-bcast", r % 2 + 2),
        ("sendrecv", f"r{(r - 1) % NPROCS}")]
    for r in range(NPROCS)
}

#: platform -> (I/O events, sha256 of the events, the "clock"
#: checkpoints ``(float.hex(clock), tick)`` every rank records, ending
#: on its final clock and tick)
GOLDENS = {
    "ideal": (
        20, "24b1c39e74c6bfea7cd4d7c642e98bebfb26202ce85857bf76ca2b02caa75187",
        [("0x1.0cb295e9e1b09p-8", 1), ("0x1.19da1bbfcf0d7p-8", 4),
         ("0x1.feddc110d6e7dp-8", 15), ("0x1.406f30e550264p-7", 23)]),
    "configuration-C": (
        20, "996a6f9ab251ab64cbf3592767ed3e3524b904e08b1a812fc4c166a501dfa143",
        [("0x1.0e0221426fe72p-8", 1), ("0x1.1dd13bb23f082p-8", 4),
         ("0x1.fc0ad593bfa26p-8", 15), ("0x1.5937f50e8c84dp-6", 23)]),
}


def run_every_verb(platform: str):
    engine = Engine(NPROCS, platform=PLATFORMS[platform]())
    events: list[IOEvent] = []
    engine.add_io_hook(events.append)
    outs: dict[int, list] = {r: [] for r in range(NPROCS)}
    run = engine.run(lambda ctx: every_verb(ctx, outs[ctx.rank]))
    return engine, events, run, outs


@pytest.mark.parametrize("platform", list(PLATFORMS))
def test_every_verb_is_bit_identical(platform):
    engine, events, run, outs = run_every_verb(platform)
    n_events, digest, checkpoints = GOLDENS[platform]
    assert len(events) == n_events
    assert events_digest(events) == digest
    for r in range(NPROCS):
        assert [o[1:] for o in outs[r] if o[0] == "clock"] == checkpoints
        assert (run.clocks[r].hex(), run.ticks[r]) == checkpoints[-1]
    assert {r: [o for o in outs[r] if o[0] != "clock"]
            for r in range(NPROCS)} == RESULTS
    assert sorted(engine.files) == ["golden-own.0", "golden-own.1",
                                    "golden-own.2", "golden-own.3",
                                    "golden.dat"]


# -- error paths ---------------------------------------------------------------


def test_mismatch_fails_every_arrived_rank():
    """Ranks 0 and 1 wait in a barrier; rank 2 arrives with an allreduce."""
    got = {}

    def program(ctx):
        yield from ctx.compute(0.01 * ctx.rank)
        try:
            if ctx.rank < 2:
                yield from ctx.barrier()
            else:
                yield from ctx.allreduce(1)
        except CollectiveMismatch as exc:
            got[ctx.rank] = (str(exc), _h(ctx.clock), ctx.tick)

    run = Engine(3, platform=IdealPlatform()).run(program)
    msg = ("collective #0 on Comm(world, size=3): rank 2 called "
           "'allreduce' but peers called 'barrier'")
    assert got == {0: (msg, _h(0.0), 0), 1: (msg, _h(0.01), 0),
                   2: (msg, _h(0.02), 0)}
    assert run.ticks == {0: 0, 1: 0, 2: 0}


def test_non_member_call_raises_usage_error():
    """The non-member alone gets the error; the members' barrier completes."""
    got = {}

    def program(ctx):
        sub = yield from ctx.split(color=0 if ctx.rank < 2 else 1)
        if ctx.rank == 3:
            try:
                yield from ctx.barrier(Comm([0, 1], name="pair"))
            except MPIUsageError as exc:
                got["caught"] = (str(exc), _h(ctx.clock), ctx.tick)
        elif ctx.rank < 2:
            yield from ctx.barrier(sub)
        yield from ctx.barrier()
        got[ctx.rank] = ctx.tick

    Engine(4, platform=IdealPlatform()).run(program)
    assert got == {
        "caught": ("rank 3 called a collective on Comm(pair, size=2) it "
                   "does not belong to", "0x1.a3c414ed4cf50p-14", 1),
        0: 3, 1: 3, 2: 2, 3: 2}


@pytest.mark.parametrize("verb", ["bcast", "reduce", "scatter"])
def test_root_outside_the_communicator_raises(verb):
    def program(ctx):
        sub = yield from ctx.split(color=0 if ctx.rank < 2 else 1)
        if ctx.rank < 2:
            if verb == "bcast":
                yield from ctx.bcast("x", root=3, comm=sub)
            elif verb == "reduce":
                yield from ctx.reduce(1, root=3, comm=sub)
            else:
                yield from ctx.scatter([1, 2], root=3, comm=sub)

    with pytest.raises(MPIUsageError,
                       match=f"^{verb} root 3 not in communicator$"):
        Engine(4, platform=IdealPlatform()).run(program)
