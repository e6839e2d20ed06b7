"""IOR reimplemented on the simulated substrate (paper Tables III/V).

IOR is both a characterization workload and -- in the paper's
methodology -- the *replication tool*: every phase of an application's
I/O model is replayed by one IOR run configured with
``s=1, b=weight(ph), t=rs(ph), NP=np(ph)`` plus ``-F`` for unique files
and ``-c`` for collective I/O (section III-B).

This module mirrors the relevant IOR options:

=========  =====================================================
``-s``     segments per process
``-b``     block size: contiguous bytes per process per segment
``-t``     transfer size: bytes per I/O call
``-F``     filePerProcess (unique access type)
``-c``     collective I/O
``-z``     random offsets within the block
``-w/-r``  write / read tests
=========  =====================================================

File layout matches IOR's: a shared file interleaves per-process blocks
segment-major (process p, segment s at offset ``(s*np + p) * b``).

The result reports mean bandwidth per operation type, computed over the
span from the first operation's start to the last one's end -- IOR's
inter-test timing with barriers.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.simmpi.context import RankContext
from repro.simmpi.engine import Engine, Platform
from repro.simmpi.errors import MPIUsageError
from repro.simmpi.fileio import IOEvent

MB = 1024 * 1024


@dataclass(frozen=True)
class IORParams:
    """One IOR invocation (api=MPIIO)."""

    np: int = 4
    block_size: int = 16 * MB  # -b
    transfer_size: int = 1 * MB  # -t
    segments: int = 1  # -s
    file_per_process: bool = False  # -F
    collective: bool = False  # -c
    random_offsets: bool = False  # -z
    kinds: tuple[str, ...] = ("write", "read")  # -w -r
    filename: str = "ior.testfile"
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.np <= 0:
            raise MPIUsageError("NP must be positive")
        if self.block_size <= 0 or self.transfer_size <= 0 or self.segments <= 0:
            raise MPIUsageError("block, transfer and segment sizes must be positive")
        if self.block_size % self.transfer_size:
            raise MPIUsageError(
                f"block size {self.block_size} not a multiple of transfer size "
                f"{self.transfer_size} (IOR requires -b = k * -t)"
            )
        for k in self.kinds:
            if k not in ("write", "read"):
                raise MPIUsageError(f"unknown test kind {k!r}")

    @property
    def transfers_per_segment(self) -> int:
        return self.block_size // self.transfer_size

    @property
    def total_bytes_per_kind(self) -> int:
        return self.np * self.segments * self.block_size

    def command_line(self) -> str:
        """The equivalent real-IOR command (for reports and docs)."""
        parts = ["ior", "-a", "MPIIO", f"-s {self.segments}",
                 f"-b {self.block_size}", f"-t {self.transfer_size}"]
        if self.file_per_process:
            parts.append("-F")
        if self.collective:
            parts.append("-c")
        if self.random_offsets:
            parts.append("-z")
        parts.append("-" + "".join(k[0] for k in self.kinds))
        return " ".join(parts)


@dataclass
class IORResult:
    """Bandwidths measured by one IOR run."""

    params: IORParams
    bw_mb_s: dict[str, float] = field(default_factory=dict)  # per kind
    times: dict[str, float] = field(default_factory=dict)  # elapsed per kind
    elapsed: float = 0.0

    def bw(self, kind: str) -> float:
        return self.bw_mb_s[kind]


def ior_program(ctx: RankContext, params: IORParams):
    """Rank program of the IOR benchmark (coroutine style)."""
    fh = yield from ctx.file_open(params.filename, unique=params.file_per_process)
    ntransfers = params.transfers_per_segment
    order = list(range(ntransfers))

    for kind in params.kinds:
        yield from ctx.barrier()
        for seg in range(params.segments):
            if params.random_offsets:
                rng = random.Random(params.seed + 7919 * ctx.rank + seg)
                order = list(range(ntransfers))
                rng.shuffle(order)
            if params.file_per_process:
                seg_base = seg * params.block_size
            else:
                seg_base = (seg * ctx.size + ctx.rank) * params.block_size
            for i in order:
                offset = seg_base + i * params.transfer_size
                if kind == "write":
                    if params.collective:
                        yield from fh.write_at_all(offset, params.transfer_size)
                    else:
                        yield from fh.write_at(offset, params.transfer_size)
                else:
                    if params.collective:
                        yield from fh.read_at_all(offset, params.transfer_size)
                    else:
                        yield from fh.read_at(offset, params.transfer_size)
        yield from ctx.barrier()
    yield from fh.close()


def run_ior(platform: Platform, params: IORParams) -> IORResult:
    """Execute IOR on a platform and report per-kind mean bandwidth.

    The platform should be freshly built (or ``reset``) so queue state
    from earlier experiments does not leak into the measurement.

    Results are memoized by ``(params, platform fingerprint)``: the run
    is a pure function of both, so replaying the same phase against a
    structurally identical configuration returns the cached bandwidths
    without re-simulating.  Platforms without a ``fingerprint()`` method
    opt out.  Replays from a cluster factory call
    :func:`run_ior_memoized`, which builds no cluster on a hit.
    """
    from repro.core import cache as simcache  # late: avoids an import cycle

    return run_ior_memoized(lambda: platform, params,
                            simcache.platform_fingerprint(platform))


def run_ior_memoized(build: Callable[[], Platform], params: IORParams,
                     fp: Hashable | None) -> IORResult:
    """IOR on the platform ``build()`` returns, whose fingerprint is ``fp``.

    One ``"ior"`` memo lookup per run, keyed by ``(params without their
    filename, fp)``; ``build`` is called only on a miss.  The stored key
    holds ``fp`` itself, so entries keyed by a shared fingerprint
    (``cache.factory_fingerprint``) share one copy.  ``fp=None`` opts
    out of the memo.
    """
    from repro.core import cache as simcache  # late: avoids an import cycle

    memo = simcache.cache("ior")
    # The filename only labels the simulated trace; normalize it away so
    # per-phase replications (ior.phase0, ior.phase1, ...) with the same
    # geometry share one cache entry.
    key = ((dataclasses.replace(params, filename=""), fp)
           if fp is not None else None)
    if key is not None:
        hit = memo.lookup(key)
        if hit is not simcache._MISS:
            # Rebuild with the caller's params (their filename may differ
            # from the entry's).
            return IORResult(params=params, bw_mb_s=dict(hit.bw_mb_s),
                             times=dict(hit.times), elapsed=hit.elapsed)
    result = _simulate(build(), params)
    if key is not None:
        memo.store(key, IORResult(params=result.params,
                                  bw_mb_s=dict(result.bw_mb_s),
                                  times=dict(result.times),
                                  elapsed=result.elapsed))
    return result


def _simulate(platform: Platform, params: IORParams) -> IORResult:
    """One IOR run on ``platform``, no memo."""
    # kind -> [first start, last end, bytes], folded as each event is
    # emitted: no event is kept.
    spans: dict[str, list] = {}

    def fold(e: IOEvent) -> None:
        t = e.time
        end = t + e.duration
        acc = spans.get(e.kind)
        if acc is None:
            spans[e.kind] = [t, end, e.request_size]
            return
        if t < acc[0]:
            acc[0] = t
        if end > acc[1]:
            acc[1] = end
        acc[2] += e.request_size

    engine = Engine(params.np, platform=platform)
    engine.add_io_hook(fold)
    run = engine.run(ior_program, params)

    result = IORResult(params=params, elapsed=run.elapsed)
    for kind in params.kinds:
        acc = spans.get(kind)
        if acc is None:
            continue
        begin, end, nbytes = acc
        span = max(end - begin, 1e-12)
        result.times[kind] = span
        result.bw_mb_s[kind] = nbytes / MB / span
    return result
