"""Model-driven application synthesis: from an I/O model back to a program.

The logical completion of the methodology: an :class:`IOModel` carries
everything needed to *re-enact* the application's I/O -- the phase
sequence (temporal pattern), each phase's per-rank offsets (spatial
pattern via f(initOffset)), request sizes, repetition counts, and the
collective/independent and shared/unique flags.  ``synthesize_program``
turns a model into a rank program whose traced model is the original
(the round-trip property the tests pin down):

    model == IOModel.from_trace(trace_run(synthesize_program(model), np))

Uses:

* replaying a *whole application* on a target system from its model
  file alone (the per-phase IOR/`replayer` replications measure one
  phase at a time; this replays the full temporal structure, including
  inter-phase gaps);
* shipping executable benchmarks instead of applications -- the paper's
  off-line characterization made runnable.

Limitations (checked, raising :class:`SynthesisError`): phases must be
linear in ``idP`` (table offset functions would need the original rank
set) and rank sets must be subsets of the replay's world.

One fidelity caveat mirrors the paper's own IOR limitation with strided
mode: phases extracted from strided *views* replay with their
view-relative displacements linearized onto bytes, so the traced model
round-trips exactly (ops, sizes, reps, phase starts, displacements) but
the absolute byte placement of repetitions inside a strided file view
is compacted.  Per-phase start offsets (f(initOffset)) are preserved.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.simmpi.context import RankContext
from repro.simmpi.errors import MPIUsageError

from .model import IOModel
from .phases import Phase

#: MPI events inserted between phases to reproduce distinct tick bursts.
INTER_PHASE_EVENTS = 4


class SynthesisError(ValueError):
    """The model cannot be turned into a program."""


def _check(model: IOModel) -> None:
    for ph in model.phases:
        for op in ph.ops:
            if not op.offset_fn.is_linear or not op.abs_offset_fn.is_linear:
                raise SynthesisError(
                    f"phase {ph.phase_id}: table-based offset function "
                    "cannot be synthesized")


def synthesize_program(model: IOModel,
                       compute_between_phases: float = 0.0) -> Callable:
    """Build a rank program re-enacting ``model``'s I/O behaviour.

    The program must be run with ``nprocs == model.np``.  Offsets are
    taken from the *absolute* offset functions, replayed through a
    byte-granular view (etype differences do not change the simulated
    behaviour; the paper's offsets are recovered in bytes).
    """
    _check(model)
    phases = list(model.phases)

    def program(ctx: RankContext) -> Generator:
        if ctx.size != model.np:
            raise MPIUsageError(
                f"synthesized program needs np={model.np}, got {ctx.size}")
        handles: dict[str, object] = {}
        for ph in phases:
            fh = handles.get(ph.file_group)
            if fh is None:
                fh = yield from ctx.file_open(ph.file_group,
                                              unique=ph.unique_file)
                handles[ph.file_group] = fh
            if compute_between_phases:
                yield from ctx.compute(compute_between_phases)
            # Distinct tick bursts between phases (temporal pattern).
            for _ in range(INTER_PHASE_EVENTS):
                yield from ctx.allreduce(1.0)
            yield from _replay_phase(ctx, fh, ph)
        for fh in handles.values():
            yield from fh.close()
        yield from ctx.barrier()

    program.__doc__ = f"Synthesized replay of {model.app_name} (np={model.np})"
    return program


def _replay_phase(ctx: RankContext, fh, ph: Phase) -> Generator:
    participate = ctx.rank in ph.ranks
    for k in range(ph.rep):
        for op in ph.ops:
            if ph.collective and not ph.unique_file:
                # Collective ops synchronize the full communicator the
                # file was opened on; non-members skip (their absence is
                # modelled by a matching collective of the participants
                # only when the phase covers every rank -- the common
                # case; partial collectives replay independently).
                if len(ph.ranks) == ctx.size:
                    offset = op.abs_offset_fn(ctx.rank) + k * _step(op)
                    if op.kind == "write":
                        yield from fh.write_at_all(offset, op.request_size)
                    else:
                        yield from fh.read_at_all(offset, op.request_size)
                    continue
            if not participate:
                continue
            offset = op.abs_offset_fn(ctx.rank) + k * _step(op)
            yield from _issue(fh, op, offset)


def _issue(fh, op, offset: int) -> Generator:
    """Re-enact one operation with the original routine's addressing.

    Individual-pointer routines (``MPI_File_write``/``read``) are
    replayed as seek + pointer op so the traced routine names match the
    source model; shared-pointer routines cannot target a specific
    offset deterministically and are replayed with explicit offsets.
    """
    individual = op.op in ("MPI_File_write", "MPI_File_read",
                           "MPI_File_write_all", "MPI_File_read_all")
    if individual:
        yield from fh.seek(offset)
        if op.kind == "write":
            yield from fh.write(op.request_size)
        else:
            yield from fh.read(op.request_size)
    elif op.kind == "write":
        yield from fh.write_at(offset, op.request_size)
    else:
        yield from fh.read_at(offset, op.request_size)


def _step(op) -> int:
    """Per-repetition offset step: the displacement, or rs when rep==1."""
    return op.disp if op.disp else op.request_size


def replay_model(model: IOModel, platform=None,
                 compute_between_phases: float = 0.0):
    """Trace a synthesized replay of ``model``; returns (model', bundle).

    ``model'`` should satisfy ``models_equivalent(model', model)`` up to
    file naming for unique-file groups.
    """
    from repro.tracer.hooks import trace_run

    from .model import IOModel as _IOModel

    program = synthesize_program(model,
                                 compute_between_phases=compute_between_phases)
    bundle = trace_run(program, model.np, platform)
    return _IOModel.from_trace(bundle, app_name=f"{model.app_name}-replay",
                               tick_tol=model.tick_tol), bundle
