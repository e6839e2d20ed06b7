"""repro.obs -- end-to-end observability: spans, metrics, exporters.

One switchboard for the whole stack.  The engine, the MPI-IO layer, the
iosim resource stack and the methodology pipeline all call the
module-level helpers below; when no sink is attached (the default)
every helper is a single ``if not ACTIVE`` branch, so instrumentation
is effectively free (enforced by ``benchmarks/test_bench_obs_overhead``).

Enable collection explicitly::

    from repro import obs

    tracer, registry = obs.enable()
    ...  # run anything: characterize_app, engine.run, replay_phase
    spans = tracer.finish()
    obs.disable()

or use :class:`repro.obs.profile.ProfileSession`, which wraps
enable/collect/export/disable and writes the three artifact formats
(JSON lines, Chrome trace_event, Prometheus text).

Design rule for instrumentation sites: **guard first, then call** --
either ``if obs.ACTIVE: obs.observe_...(...)`` for hot paths, or use
the helpers that return no-op singletons (``obs.span``) for structured
blocks.
"""

from __future__ import annotations

from .metrics import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import NULL_SPAN, Event, Span, SpanTracer, VIRTUAL, WALL

__all__ = [
    "ACTIVE", "enable", "disable", "enabled", "tracer", "registry",
    "span", "event", "record_span", "inc", "set_gauge", "observe",
    "observe_io_event", "observe_collective", "observe_p2p",
    "observe_resource_wait", "observe_device_transfer",
    "SpanTracer", "MetricsRegistry", "Span", "Event",
    "Counter", "Gauge", "Histogram",
    "BYTES_BUCKETS", "SECONDS_BUCKETS", "NULL_SPAN", "WALL", "VIRTUAL",
]

#: Module-level enabled check -- the zero-cost guard every
#: instrumentation site tests before doing any work.
ACTIVE: bool = False

_tracer: SpanTracer | None = None
_registry: MetricsRegistry | None = None


def enable(tracer: SpanTracer | None = None,
           registry: MetricsRegistry | None = None
           ) -> tuple[SpanTracer, MetricsRegistry]:
    """Attach sinks and turn instrumentation on; returns them."""
    global ACTIVE, _tracer, _registry
    _tracer = tracer if tracer is not None else SpanTracer()
    _registry = registry if registry is not None else MetricsRegistry()
    _preregister(_registry)
    ACTIVE = True
    return _tracer, _registry


def disable() -> None:
    """Detach sinks; instrumentation reverts to zero-cost no-ops."""
    global ACTIVE, _tracer, _registry
    ACTIVE = False
    _tracer = None
    _registry = None


def enabled() -> bool:
    return ACTIVE


def tracer() -> SpanTracer | None:
    return _tracer


def registry() -> MetricsRegistry | None:
    return _registry


def _preregister(reg: MetricsRegistry) -> None:
    """Create the standard families once, with help strings."""
    reg.counter("io_operations_total", "Traced MPI-IO data operations",
                ("kind", "collective"))
    reg.counter("io_bytes_total", "Bytes moved by traced MPI-IO operations",
                ("kind",))
    reg.histogram("io_request_bytes", "MPI-IO request sizes",
                  ("kind",), buckets=BYTES_BUCKETS)
    reg.histogram("io_operation_seconds",
                  "Virtual duration of MPI-IO operations", ("kind",),
                  buckets=SECONDS_BUCKETS)
    reg.counter("mpi_collectives_total", "Completed collective operations",
                ("op",))
    reg.counter("mpi_p2p_total", "Completed point-to-point matches")
    reg.counter("engine_runs_total", "Engine runs started")
    reg.counter("engine_ops_total", "Scheduler-processed rank operations",
                ("kind",))
    reg.histogram("resource_wait_seconds",
                  "FCFS queue wait per contended resource", ("resource",),
                  buckets=SECONDS_BUCKETS)
    reg.counter("resource_busy_seconds_total",
                "Accumulated busy time per contended resource", ("resource",))
    reg.gauge("resource_queue_depth_seconds",
              "Backlog (seconds of queued work) seen by the last request",
              ("resource",))
    reg.counter("device_bytes_total", "Bytes moved at the device level",
                ("device", "kind"))
    reg.counter("device_transfers_total", "Device-level transfers",
                ("device", "kind"))
    reg.counter("device_busy_seconds_total", "Device busy time",
                ("device",))
    reg.gauge("phase_bw_ch_mb_s",
              "Characterized bandwidth BW_CH per phase (eq. 1)",
              ("config", "phase"))
    reg.counter("cache_hits_total",
                "Simulation memo-cache hits (repro.core.cache)", ("cache",))
    reg.counter("cache_misses_total",
                "Simulation memo-cache misses (repro.core.cache)", ("cache",))
    reg.counter("store_hits_total",
                "Persistent result-store hits (repro.store)", ("cache",))
    reg.counter("store_misses_total",
                "Persistent result-store misses (repro.store)", ("cache",))
    reg.counter("store_writes_total",
                "Entries written to the persistent result store", ("cache",))
    reg.counter("store_evictions_total",
                "Persistent-store entries evicted (schema mismatch/corrupt)",
                ("cache",))
    reg.counter("replay_plan_requests_total",
                "Phase-replay requests collected by the replay planner")
    reg.counter("replay_plan_unique_total",
                "Unique (phase, config) replays the planner executed")
    reg.counter("characterize_rows_total",
                "Trace rows consumed by model extraction", ("method",))
    reg.counter("characterize_lap_entries_total",
                "LAP entries produced by model extraction", ("method",))
    reg.gauge("characterize_rows_per_s",
              "Trace rows/s through the most recent model extraction",
              ("method",))
    reg.counter("fault_injections_total",
                "Fault-plan events injected into the simulation",
                ("kind", "target"))
    reg.counter("retries_total",
                "Retry-policy re-attempts after transient faults",
                ("kind",))
    reg.counter("sweep_job_failures_total",
                "Sweep jobs that raised or timed out", ("job",))
    reg.counter("sweep_jobs_resumed_total",
                "Sweep jobs skipped because a checkpoint already existed")
    reg.histogram("cluster_dispatch_latency_seconds",
                  "Dispatch-to-result wall time per cluster job",
                  buckets=SECONDS_BUCKETS)
    reg.gauge("cluster_queue_depth",
              "Cluster jobs waiting for a free worker")
    reg.gauge("cluster_workers", "Connected cluster workers")
    reg.counter("cluster_bytes_sent_total",
                "Bytes the cluster master put on the wire")
    reg.counter("cluster_bytes_recv_total",
                "Bytes the cluster master received from workers")
    reg.counter("cluster_requeues_total",
                "Cluster jobs requeued after a worker death or "
                "heartbeat timeout")
    reg.counter("service_requests_total",
                "Study requests admitted by the service")
    reg.counter("service_batches_total",
                "Batches admitted by the service")
    reg.counter("service_busy_total",
                "Submissions refused with BUSY (admission control)")
    reg.counter("service_dedup_hits_total",
                "Submitted requests answered by an existing request")
    reg.counter("service_recovered_total",
                "Requests re-enqueued from the journal after a restart")
    reg.counter("service_completed_total",
                "Service requests completed successfully", ("kind",))
    reg.counter("service_failures_total",
                "Service requests that failed terminally", ("kind",))
    reg.counter("service_breaker_trips_total",
                "Executor circuit-breaker trips (tier opened)", ("tier",))
    reg.gauge("service_queue_depth",
              "Service requests queued or running")
    reg.gauge("service_draining",
              "1 while the service is draining, else 0")
    reg.counter("quarantined_lines_total",
                "Trace inputs dropped by quarantine-mode ingest",
                ("reason",))
    reg.counter("ingest_files_total",
                "Trace files parsed by the ingest engine")
    reg.counter("ingest_rows_total",
                "Trace rows parsed by the ingest engine", ("kernel",))
    reg.counter("ingest_shards_total",
                "Byte-range shards dispatched by parallel ingest")
    reg.counter("ingest_cache_hits_total",
                "Ingest parse-cache hits (repro.store)")
    reg.counter("ingest_cache_misses_total",
                "Ingest parse-cache misses (repro.store)")
    reg.counter("degraded_estimates_total",
                "Degraded-mode estimations completed",
                ("config", "outcome"))


# -- structured helpers (no-ops when disabled) ---------------------------------

def span(name: str, cat: str = "app", tid: str = "main", **attrs):
    """Open a wall-clock span; returns a no-op singleton when disabled."""
    if not ACTIVE:
        return NULL_SPAN
    return _tracer.span(name, cat=cat, tid=tid, **attrs)


def event(name: str, cat: str = "app", tid: str = "main",
          clock: str = WALL, ts: float | None = None, **attrs) -> None:
    if not ACTIVE:
        return
    _tracer.event(name, cat=cat, tid=tid, clock=clock, ts=ts, **attrs)


def record_span(name: str, cat: str, tid: str, start: float,
                duration: float, **attrs) -> None:
    """Record a completed virtual-time span."""
    if not ACTIVE:
        return
    _tracer.record(name, cat, tid, start, duration, **attrs)


def inc(name: str, amount: float = 1.0, **labels) -> None:
    if not ACTIVE:
        return
    fam = _registry.get(name) or _registry.counter(
        name, labelnames=tuple(sorted(labels)))
    (fam.labels(**labels) if fam.labelnames else fam).inc(amount)


def set_gauge(name: str, value: float, **labels) -> None:
    if not ACTIVE:
        return
    fam = _registry.get(name) or _registry.gauge(
        name, labelnames=tuple(sorted(labels)))
    (fam.labels(**labels) if fam.labelnames else fam).set(value)


def observe(name: str, value: float, **labels) -> None:
    if not ACTIVE:
        return
    fam = _registry.get(name) or _registry.histogram(
        name, labelnames=tuple(sorted(labels)))
    (fam.labels(**labels) if fam.labelnames else fam).observe(value)


# -- domain bridges (call sites guard with ``if obs.ACTIVE``) ------------------

def observe_io_event(e) -> None:
    """Record one traced MPI-IO operation (an ``IOEvent``)."""
    if not ACTIVE:
        return
    _tracer.record(e.op, "io", f"rank {e.rank}", e.time, e.duration,
                   file=e.filename, bytes=e.request_size,
                   offset=e.offset, tick=e.tick, collective=e.collective)
    reg = _registry
    reg.get("io_operations_total").labels(
        kind=e.kind, collective=str(e.collective).lower()).inc()
    reg.get("io_bytes_total").labels(kind=e.kind).inc(e.request_size)
    reg.get("io_request_bytes").labels(kind=e.kind).observe(e.request_size)
    reg.get("io_operation_seconds").labels(kind=e.kind).observe(e.duration)


def observe_collective(op: str, start: float,
                       durations: dict[int, float]) -> None:
    """Record one completed collective (per participating rank)."""
    if not ACTIVE:
        return
    _registry.get("mpi_collectives_total").labels(op=op).inc()
    if op.startswith("MPI_File_"):
        return  # the data operation is recorded by observe_io_event
    for rank, dur in durations.items():
        _tracer.record(op, "mpi", f"rank {rank}", start, dur)


def observe_p2p(src: int, dst: int, start: float, duration: float,
                nbytes: int) -> None:
    if not ACTIVE:
        return
    _registry.get("mpi_p2p_total").inc()
    for rank in (src, dst):
        _tracer.record("p2p", "mpi", f"rank {rank}", start, duration,
                       src=src, dst=dst, bytes=nbytes)


def observe_resource_wait(resource: str, wait: float, cost: float) -> None:
    """Record one FCFS acquisition: queue wait + busy accounting.

    The queue-depth gauge holds the backlog (seconds of queued work)
    the *latest* request found in front of it -- for an FCFS resource
    that equals its wait.
    """
    if not ACTIVE:
        return
    reg = _registry
    reg.get("resource_wait_seconds").labels(resource=resource).observe(wait)
    reg.get("resource_busy_seconds_total").labels(resource=resource).inc(cost)
    reg.get("resource_queue_depth_seconds").labels(resource=resource).set(wait)


def observe_device_transfer(device: str, begin: float, end: float,
                            nbytes: int, kind: str) -> None:
    """Device-level transfer accounting (fed by ``Disk.transfer``)."""
    if not ACTIVE:
        return
    reg = _registry
    reg.get("device_bytes_total").labels(device=device, kind=kind).inc(nbytes)
    reg.get("device_transfers_total").labels(device=device, kind=kind).inc()
    reg.get("device_busy_seconds_total").labels(device=device).inc(
        max(0.0, end - begin))
