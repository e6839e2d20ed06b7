"""Structured span/event tracer.

The observability layer's first pillar: nested **spans** with wall-clock
and virtual-time attribution.  Two span flavours exist because the
codebase runs on two clocks:

* **wall spans** -- real elapsed time of pipeline stages
  (characterize / estimate / measure / evaluate), opened and closed as
  Python context managers.  Nesting is tracked per thread, so
  concurrent threads (the service daemon's, an executor's) each get
  their own ancestor stack.
* **virtual spans** -- completed intervals on the simulation's virtual
  clock (an I/O operation of rank 3 from t=12.5s for 0.8s).  These are
  recorded post-hoc in one call because the simulator computes a whole
  interval at once; their timeline is the phase-aligned picture of the
  paper's Figs. 2 and 8.

Instant **events** (no duration) mark points of interest on either
clock.

All mutation is lock-protected; the tracer may be fed from several
threads at once.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

#: Clock identifiers carried by every span/event.
WALL = "wall"
VIRTUAL = "virtual"


@dataclass
class Span:
    """One completed (or in-flight) span."""

    span_id: int
    parent_id: int | None
    name: str
    cat: str
    tid: str  # logical track: "main", "rank 3", ...
    clock: str  # WALL | VIRTUAL
    start: float  # seconds (perf_counter origin for wall, t=0 for virtual)
    duration: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span (e.g. results known at exit)."""
        self.attrs.update(attrs)

    def set_virtual(self, start: float, duration: float) -> None:
        """Attach a virtual-time interval to a wall span's attrs."""
        self.attrs["virtual_start"] = start
        self.attrs["virtual_duration"] = duration


@dataclass
class Event:
    """An instant event (Chrome trace ``ph: i``)."""

    name: str
    cat: str
    tid: str
    clock: str
    ts: float
    attrs: dict = field(default_factory=dict)


class _NullSpan:
    """Do-nothing span handed out when observability is disabled.

    Supports the full :class:`Span` surface so instrumentation sites
    never need an enabled-check around attribute calls.
    """

    __slots__ = ()

    def annotate(self, **attrs) -> None:
        pass

    def set_virtual(self, start: float, duration: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Shared singleton: ``obs.span(...)`` returns this when disabled, so
#: the disabled cost is one branch plus one attribute load.
NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager binding a wall span to the tracer's thread stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self.span = span

    def annotate(self, **attrs) -> None:
        self.span.annotate(**attrs)

    def set_virtual(self, start: float, duration: float) -> None:
        self.span.set_virtual(start, duration)

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self.span)
        return False


class SpanTracer:
    """Collects spans and events; thread-safe; context-propagating."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self._epoch = clock()

    # -- context propagation ---------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open wall span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wall spans ------------------------------------------------------------
    def span(self, name: str, cat: str = "app", tid: str = "main",
             **attrs) -> _OpenSpan:
        """Open a nested wall-clock span; use as a context manager."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            sp = Span(
                span_id=next(self._ids),
                parent_id=parent,
                name=name,
                cat=cat,
                tid=tid,
                clock=WALL,
                start=self._clock() - self._epoch,
                attrs=dict(attrs),
            )
            self.spans.append(sp)
        stack.append(sp)
        return _OpenSpan(self, sp)

    def _close(self, sp: Span) -> None:
        stack = self._stack()
        # Unwind to the closed span: tolerates exceptions skipping exits.
        while stack:
            top = stack.pop()
            if top.span_id == sp.span_id:
                break
        sp.duration = (self._clock() - self._epoch) - sp.start

    # -- virtual spans ---------------------------------------------------------
    def record(self, name: str, cat: str, tid: str, start: float,
               duration: float, **attrs) -> Span:
        """Record a completed virtual-time span in one call."""
        with self._lock:
            sp = Span(
                span_id=next(self._ids),
                parent_id=None,
                name=name,
                cat=cat,
                tid=tid,
                clock=VIRTUAL,
                start=start,
                duration=duration,
                attrs=dict(attrs),
            )
            self.spans.append(sp)
        return sp

    # -- instant events --------------------------------------------------------
    def event(self, name: str, cat: str = "app", tid: str = "main",
              clock: str = WALL, ts: float | None = None, **attrs) -> None:
        if ts is None:
            ts = (self._clock() - self._epoch) if clock == WALL else 0.0
        with self._lock:
            self.events.append(Event(name=name, cat=cat, tid=tid,
                                     clock=clock, ts=ts, attrs=dict(attrs)))

    # -- finalization ----------------------------------------------------------
    def finish(self) -> list[Span]:
        """Canonical snapshot: spans sorted by (clock, tid, start, id).

        The id tiebreaker makes the order total and stable, so repeated
        calls (and identical runs) produce identical sequences.
        """
        with self._lock:
            return sorted(self.spans,
                          key=lambda s: (s.clock, s.tid, s.start, s.span_id))

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.events.clear()
