"""PAS2P-style tracing: interposition on the simulated MPI-IO layer.

The paper extends the PAS2P tool to trace MPI-IO routines "through an
automatic instrumentation that interposes to MPI-IO functions".  Here
the interposition point is the engine's I/O hook: :class:`Tracer`
subscribes to every :class:`~repro.simmpi.fileio.IOEvent` and builds the
per-process trace files plus the application metadata.

Typical use::

    tracer = Tracer()
    engine = Engine(nprocs, platform=cluster)
    tracer.attach(engine)
    engine.run(app_program)
    trace = tracer.finish(engine)       # TraceBundle
    trace.save(Path("traces/app"))      # one file per process + metadata

A bundle holds its events **columnar** (:class:`TraceColumns`) and
materializes :class:`TraceRecord` objects only on first access to
``.records`` -- the characterization fast path never pays for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.ioutil import atomic_write_text
from repro.simmpi.engine import Engine
from repro.simmpi.fileio import IOEvent

from .columns import TraceColumns, check_chunk_rows
from .metadata import AppMetadata
from .tracefile import TraceRecord, write_trace_file


class TraceBundle:
    """A complete traced run: per-process events + metadata.

    Holds the rows as :class:`TraceColumns` in the canonical order; the
    :class:`TraceRecord` view (``records``, ``by_rank``) is derived on
    first access and cached.
    """

    def __init__(self, nprocs: int, *, columns: TraceColumns,
                 metadata: AppMetadata | None = None):
        self.nprocs = nprocs
        self.metadata = metadata
        self.columns = columns
        self._records: list[TraceRecord] | None = None

    @property
    def records(self) -> list[TraceRecord]:
        if self._records is None:
            self._records = self.columns.to_records()
        return self._records

    @property
    def nevents(self) -> int:
        return len(self.columns)

    def by_rank(self, rank: int) -> list[TraceRecord]:
        return [r for r in self.records if r.rank == rank]

    @property
    def nfiles(self) -> int:
        return self.columns.nfiles

    @property
    def total_bytes(self) -> int:
        return self.columns.total_bytes

    def save(self, directory: str | Path, binary: bool = False) -> None:
        """Write the trace: ``trace.<rank>`` text files (the paper's
        Fig. 2 layout) or, with ``binary=True``, one compact columnar
        file (``columns.npz``) -- plus ``metadata.json`` either way."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if binary:
            self.columns.save(directory / "columns.npz")
        else:
            for rank in range(self.nprocs):
                write_trace_file(directory / f"trace.{rank}",
                                 self.by_rank(rank))
        payload = {"nprocs": self.nprocs, "metadata": self.metadata.to_dict()}
        atomic_write_text(directory / "metadata.json",
                          json.dumps(payload, indent=2))

    @classmethod
    def load(cls, directory: str | Path,
             quarantine=None, jobs: int | None = None) -> "TraceBundle":
        """Load a saved bundle, auto-detecting binary vs. text layout.

        With ``quarantine`` (a
        :class:`~repro.tracer.quarantine.QuarantineReport`) a damaged
        bundle loads partially instead of raising: corrupt metadata
        falls back to counting the ``trace.<rank>`` files, a corrupt or
        truncated binary column file is quarantined whole (it cannot be
        partially decoded -- see the quarantine module docstring) with
        a fallback to any per-rank text files, and each text file
        salvages its well-formed rows line by line.  Missing rank files
        are reported per rank and the remaining ranks survive.

        Text traces parse through the ingest engine
        (:mod:`repro.tracer.ingest`): ``jobs`` > 1 fans the rank files
        out across a process pool, with output, errors and quarantine
        reports identical to the serial load.
        """
        from .quarantine import RANK_UNKNOWN

        directory = Path(directory)
        salvaging = quarantine is not None and not quarantine.strict
        meta_path = directory / "metadata.json"
        nprocs = None
        metadata = None
        try:
            payload = json.loads(meta_path.read_text())
            nprocs = payload["nprocs"]
            metadata = AppMetadata.from_dict(payload["metadata"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            if not salvaging:
                raise
            quarantine.note(meta_path, RANK_UNKNOWN, 0,
                            f"unreadable metadata: {type(exc).__name__}")
        columns = None
        for name in ("columns.npz", "columns.trc"):
            binpath = directory / name
            if not binpath.exists():
                continue
            try:
                columns = TraceColumns.load(binpath)
            except Exception as exc:
                if not salvaging:
                    raise
                # Column-major blobs cannot be partially decoded; drop
                # the file and fall back to text traces if present.
                quarantine.note(binpath, RANK_UNKNOWN, 0,
                                f"corrupt binary columns: {exc}")
                continue
            break
        if columns is None:
            if nprocs is None:
                # metadata was quarantined: infer the rank count from
                # the trace files actually present.
                ranks = sorted(int(p.name.split(".", 1)[1])
                               for p in directory.glob("trace.*")
                               if p.name.split(".", 1)[1].isdigit())
                nprocs = (max(ranks) + 1) if ranks else 0
            etypes = ({f.file_id: f.etype_size for f in metadata.files}
                      if metadata is not None else None)
            from .ingest import ingest_rank_files

            parts = ingest_rank_files(
                [directory / f"trace.{rank}" for rank in range(nprocs)],
                etype_size=etypes, quarantine=quarantine, jobs=jobs)
            columns = TraceColumns.concat(parts)
        if nprocs is None:
            nprocs = int(max(columns.rank)) + 1 if len(columns) else 0
        return cls(nprocs=nprocs, columns=columns, metadata=metadata)


def stream_bundle(directory: str | Path, chunk_rows: int = 1 << 16,
                  jobs: int | None = None):
    """Open a saved bundle for *streaming* characterization.

    Returns ``(nprocs, metadata, chunks)`` where ``chunks`` lazily
    yields ``TraceColumns`` pieces of at most ``chunk_rows`` rows whose
    concatenation equals ``TraceBundle.load(directory).columns`` -- feed
    it straight to :meth:`repro.core.model.IOModel.from_stream`.

    Text bundles (``trace.<rank>`` files) stream for real: each rank
    file is parsed block-wise through the ingest engine's bulk kernel
    (:func:`repro.tracer.ingest.iter_ingest_chunks`) in rank order, so
    peak memory is O(parse block + open bursts) regardless of trace
    length.  ``jobs`` > 1 -- or a warm parse cache -- trades that bound
    for speed: each rank file materializes (sharded across a pool /
    loaded from the cache) and re-slices as O(1) views.  Binary bundles
    are a single column blob -- those load and are re-sliced, which
    bounds the *folding* memory but not the load itself (save with
    ``binary=False`` for true streaming).
    """
    check_chunk_rows(chunk_rows)
    directory = Path(directory)
    payload = json.loads((directory / "metadata.json").read_text())
    nprocs = payload["nprocs"]
    metadata = AppMetadata.from_dict(payload["metadata"])
    etypes = {f.file_id: f.etype_size for f in metadata.files}

    binpath = None
    for name in ("columns.npz", "columns.trc"):
        if (directory / name).exists():
            binpath = directory / name
            break

    def chunks():
        if binpath is not None:
            cols = TraceColumns.load(binpath)
            for lo in range(0, len(cols), chunk_rows):
                yield cols.take(range(lo, min(lo + chunk_rows, len(cols))))
            return
        from .ingest import iter_ingest_chunks

        for rank in range(nprocs):
            yield from iter_ingest_chunks(
                directory / f"trace.{rank}", etype_size=etypes,
                chunk_rows=chunk_rows, jobs=jobs)

    return nprocs, metadata, chunks()


@dataclass
class Tracer:
    """Collects I/O events from an engine run."""

    events: list[IOEvent] = field(default_factory=list)

    def attach(self, engine: Engine) -> None:
        engine.add_io_hook(self.events.append)

    def finish(self, engine: Engine) -> TraceBundle:
        """Freeze the trace after ``engine.run`` returned."""
        # Per-rank order is execution order; across ranks sort by rank for
        # a canonical bundle (per-file trace files are per rank anyway).
        columns = TraceColumns.from_events(self.events).sorted_canonical()
        return TraceBundle(
            nprocs=engine.nprocs,
            columns=columns,
            metadata=AppMetadata.from_engine(engine),
        )


def trace_run(app_program, nprocs: int, platform=None, *args) -> TraceBundle:
    """Convenience: run ``app_program`` on ``nprocs`` ranks and trace it.

    Equivalent to the paper's off-line characterization step: execute the
    application once with the tracing tool interposed, keep the trace.
    """
    engine = Engine(nprocs, platform=platform)
    tracer = Tracer()
    tracer.attach(engine)
    engine.run(app_program, *args)
    return tracer.finish(engine)
