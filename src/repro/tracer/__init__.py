"""PAS2P-style MPI-IO tracing tool (paper section III-A.1).

Produces per-process trace files in the paper's Fig. 2 format and the
application metadata (pointer kinds, collective usage, access mode and
type, etype size) that the I/O abstract model's *metadata* component
reports.  Traces are held columnar (:class:`TraceColumns`) and can be
persisted either as the Fig. 2 text files or as one compact binary
column file per run.
"""

from .columns import TraceColumns, read_trace_columns
from .hooks import TraceBundle, Tracer, trace_run
from .metadata import AppMetadata, FileMetadataSummary, summarize_file
from .tracefile import (
    ABS_OFFSET_UNKNOWN,
    HEADER,
    TraceRecord,
    iter_by_rank,
    write_trace_file,
)

__all__ = [
    "ABS_OFFSET_UNKNOWN",
    "AppMetadata",
    "FileMetadataSummary",
    "HEADER",
    "TraceBundle",
    "TraceColumns",
    "TraceRecord",
    "Tracer",
    "iter_by_rank",
    "read_trace_columns",
    "summarize_file",
    "trace_run",
    "write_trace_file",
]
