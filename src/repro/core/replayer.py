"""Phase-faithful replayer -- the paper's proposed future benchmark.

The paper's conclusion: "we have observed the increasing of error for
the complex phases as phase 3 of MADbench2, where the error was about
the 50%.  This is because we used ... IOR and this does not allow to
configure complex access patterns.  We are designing [a] benchmark to
replicate the I/O when there are 2 or more operations in a phase to fit
the characterization better and reduce estimation error."

:class:`PhaseReplayer` is that benchmark: it replays a phase's exact
repeating unit -- every operation in order, with its own request size,
displacement and per-rank initial offset from the model's
``f(initOffset)`` -- instead of one IOR run per operation type with
averaged bandwidths.  For single-operation phases it degenerates to the
IOR behaviour (same layout, same sizes), so it can replace IOR wholesale
in the estimation step.

Results are memoized by (access-pattern signature, platform
fingerprint) -- see :mod:`repro.core.cache` -- which keeps sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.simmpi.context import RankContext
from repro.simmpi.engine import Engine, Platform
from repro.simmpi.fileio import IOEvent

from . import cache as simcache
from .phases import Phase

MB = 1024 * 1024


@dataclass
class ReplayResult:
    """Bandwidths of one phase replay."""

    phase_id: int
    bw_mb_s: float  # end-to-end phase bandwidth (all ops together)
    bw_by_kind: dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0


@dataclass(frozen=True)
class _ReplaySpec:
    """Everything a rank needs to re-enact one phase."""

    ops: tuple  # PhaseOp tuple
    rep: int
    collective: bool
    unique_file: bool
    np: int
    filename: str


def _replay_program(ctx: RankContext, spec: _ReplaySpec):
    fh = yield from ctx.file_open(spec.filename, unique=spec.unique_file)
    yield from ctx.barrier()
    for k in range(spec.rep):
        for op in spec.ops:
            # The model's absolute offset function gives this rank's
            # position; unique files replay rank-relative.
            if spec.unique_file:
                offset = k * max(op.disp, op.request_size)
            else:
                offset = op.abs_offset_fn(ctx.rank) + k * (
                    op.disp if op.disp else op.request_size)
            if op.kind == "write":
                if op.collective:
                    yield from fh.write_at_all(offset, op.request_size)
                else:
                    yield from fh.write_at(offset, op.request_size)
            else:
                if op.collective:
                    yield from fh.read_at_all(offset, op.request_size)
                else:
                    yield from fh.read_at(offset, op.request_size)
    yield from fh.close()
    yield from ctx.barrier()


def replay_phase(phase: Phase, platform: Platform,
                 min_repetitions: int = 1,
                 retry: "RetryPolicy | None" = None) -> ReplayResult:
    """Re-enact ``phase`` on a (fresh) platform; returns its bandwidths.

    ``min_repetitions`` inflates short phases so the measurement reaches
    the target's steady state (same rationale as the IOR replication's
    STEADY_STATE_MIN_BLOCK).

    ``retry`` (a :class:`~repro.faults.resilience.RetryPolicy`) absorbs
    transient faults injected by an installed
    :class:`~repro.faults.FaultPlan` (``mode="error"`` dropouts): the
    platform's queues are reset and the whole replay re-attempted, up to
    the policy's bound.  Fail-stop faults and data loss still propagate.
    """
    if retry is not None:
        from repro.faults.resilience import retry_call

        def _clean_platform(attempt: int, exc: BaseException) -> None:
            # A failed attempt leaves resource-queue state behind; the
            # retry must start from a quiescent platform to stay
            # deterministic.
            reset = getattr(platform, "reset", None)
            if reset is not None:
                reset()

        return retry_call(replay_phase, phase, platform,
                          policy=retry, on_retry=_clean_platform,
                          min_repetitions=min_repetitions)

    spec = _ReplaySpec(
        ops=phase.ops,
        rep=max(phase.rep, min_repetitions),
        collective=phase.collective,
        unique_file=phase.unique_file,
        np=phase.np,
        filename=f"replay.phase{phase.phase_id}",
    )
    # The memo key is the access-pattern signature -- everything except
    # the filename, which only labels the trace -- plus the platform's
    # structural fingerprint.  BT-IO's 50 equal write phases are one key.
    memo = simcache.cache("replay")
    fp = simcache.platform_fingerprint(platform)
    key = None
    if fp is not None:
        key = (spec.ops, spec.rep, spec.collective, spec.unique_file,
               spec.np, fp)
        hit = memo.lookup(key)
        if hit is not simcache._MISS:
            return ReplayResult(phase_id=phase.phase_id, bw_mb_s=hit.bw_mb_s,
                                bw_by_kind=dict(hit.bw_by_kind),
                                elapsed=hit.elapsed)

    events: list[IOEvent] = []
    with obs.span("replay.phase", cat="replay", phase=phase.phase_id,
                  np=phase.np, rep=spec.rep) as sp:
        engine = Engine(phase.np, platform=platform)
        engine.add_io_hook(events.append)
        run = engine.run(_replay_program, spec)
        sp.annotate(events=len(events))

    if not events:
        # A phase with no I/O (e.g. zero repetitions) replays to nothing;
        # report zero bandwidth instead of tripping over min()/max().
        result = ReplayResult(phase_id=phase.phase_id, bw_mb_s=0.0,
                              elapsed=run.elapsed)
        if key is not None:
            memo.store(key, ReplayResult(phase_id=0, bw_mb_s=0.0,
                                         elapsed=run.elapsed))
        return result

    begin = min(e.time for e in events)
    end = max(e.time + e.duration for e in events)
    total = sum(e.request_size for e in events)
    span = max(end - begin, 1e-12)
    result = ReplayResult(phase_id=phase.phase_id,
                          bw_mb_s=total / MB / span, elapsed=run.elapsed)
    for kind in ("write", "read"):
        evs = [e for e in events if e.kind == kind]
        if not evs:
            continue
        kbegin = min(e.time for e in evs)
        kend = max(e.time + e.duration for e in evs)
        kbytes = sum(e.request_size for e in evs)
        result.bw_by_kind[kind] = kbytes / MB / max(kend - kbegin, 1e-12)

    if key is not None:
        memo.store(key, ReplayResult(phase_id=0, bw_mb_s=result.bw_mb_s,
                                     bw_by_kind=dict(result.bw_by_kind),
                                     elapsed=result.elapsed))
    return result


def estimate_phase_replayed(phase: Phase, cluster_factory,
                            min_repetitions: int = 6) -> float:
    """Time_io(CH) for a phase via the faithful replayer (eq. 2 analogue)."""
    result = replay_phase(phase, cluster_factory(),
                          min_repetitions=min_repetitions)
    if result.bw_mb_s <= 0.0:
        return 0.0
    return phase.weight / MB / result.bw_mb_s
