"""Span tracer: nesting, two clocks, thread contexts, finish ordering."""

from __future__ import annotations

import threading

from repro import obs
from repro.obs.spans import NULL_SPAN, SpanTracer, VIRTUAL, WALL


class FakeClock:
    """Deterministic wall clock for span timing tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestWallSpans:
    def test_span_times_against_epoch(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        clock.advance(1.0)
        with tracer.span("work") as sp:
            clock.advance(2.5)
        assert sp.span.start == 1.0
        assert sp.span.duration == 2.5

    def test_nesting_sets_parent_ids(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.span.parent_id is None
        assert middle.span.parent_id == outer.span.span_id
        assert inner.span.parent_id == middle.span.span_id

    def test_siblings_share_parent(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.span.parent_id == outer.span.span_id
        assert b.span.parent_id == outer.span.span_id

    def test_annotate_and_set_virtual(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("run") as sp:
            sp.annotate(nprocs=16)
            sp.set_virtual(0.0, 42.0)
        assert sp.span.attrs["nprocs"] == 16
        assert sp.span.attrs["virtual_duration"] == 42.0

    def test_threads_get_independent_stacks(self):
        tracer = SpanTracer(clock=FakeClock())
        parents = {}

        def worker(name):
            with tracer.span(name, tid=name) as sp:
                parents[name] = sp.span.parent_id

        with tracer.span("main-outer"):
            threads = [threading.Thread(target=worker, args=(f"t{i}",))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Worker-thread spans must not adopt the main thread's span as
        # parent: each thread has its own ancestor stack.
        assert all(pid is None for pid in parents.values())

    def test_exception_unwinds_stack(self):
        tracer = SpanTracer(clock=FakeClock())
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.current() is None


class TestVirtualSpans:
    def test_record_is_virtual_and_complete(self):
        tracer = SpanTracer(clock=FakeClock())
        sp = tracer.record("MPI_File_write_at", "io", "rank 3", 12.5, 0.8,
                           bytes=1024)
        assert sp.clock == VIRTUAL
        assert sp.start == 12.5 and sp.duration == 0.8
        assert sp.attrs["bytes"] == 1024

    def test_record_does_not_touch_wall_stack(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("outer"):
            tracer.record("op", "io", "rank 0", 0.0, 1.0)
            assert tracer.current().name == "outer"


class TestFinish:
    def test_sorted_by_clock_tid_start(self):
        tracer = SpanTracer(clock=FakeClock())
        tracer.record("b", "io", "rank 1", 5.0, 1.0)
        tracer.record("a", "io", "rank 0", 9.0, 1.0)
        tracer.record("c", "io", "rank 0", 2.0, 1.0)
        with tracer.span("wall-span"):
            pass
        ordered = tracer.finish()
        keys = [(s.clock, s.tid, s.start) for s in ordered]
        assert keys == sorted(keys)
        assert [s.name for s in ordered if s.clock == VIRTUAL] == \
            ["c", "a", "b"]

    def test_stable_for_identical_keys(self):
        tracer = SpanTracer(clock=FakeClock())
        first = tracer.record("first", "io", "rank 0", 1.0, 0.5)
        second = tracer.record("second", "io", "rank 0", 1.0, 0.5)
        ordered = tracer.finish()
        assert [s.span_id for s in ordered] == \
            [first.span_id, second.span_id]
        # Repeated calls return the identical sequence.
        assert [s.span_id for s in tracer.finish()] == \
            [s.span_id for s in ordered]

    def test_clear(self):
        tracer = SpanTracer(clock=FakeClock())
        tracer.record("op", "io", "rank 0", 0.0, 1.0)
        tracer.event("mark")
        tracer.clear()
        assert tracer.finish() == [] and tracer.events == []


class TestEvents:
    def test_wall_event_defaults_to_now(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        clock.advance(3.0)
        tracer.event("mark", cat="pipeline", rows=5)
        (ev,) = tracer.events
        assert ev.ts == 3.0 and ev.clock == WALL
        assert ev.attrs["rows"] == 5

    def test_virtual_event_takes_explicit_ts(self):
        tracer = SpanTracer(clock=FakeClock())
        tracer.event("phase-start", clock=VIRTUAL, ts=17.0)
        assert tracer.events[0].ts == 17.0


class TestModuleSwitch:
    def test_disabled_span_is_null_singleton(self):
        assert not obs.ACTIVE
        assert obs.span("anything") is NULL_SPAN
        # Full Span surface, all no-ops.
        with obs.span("x") as sp:
            sp.annotate(a=1)
            sp.set_virtual(0.0, 1.0)

    def test_disabled_helpers_are_noops(self):
        obs.event("x")
        obs.record_span("x", "io", "rank 0", 0.0, 1.0)
        obs.inc("nope_total")
        obs.set_gauge("nope", 1.0)
        obs.observe("nope_hist", 1.0)
        assert obs.tracer() is None and obs.registry() is None

    def test_enable_disable_roundtrip(self):
        tracer, registry = obs.enable()
        try:
            assert obs.ACTIVE and obs.enabled()
            assert obs.tracer() is tracer
            assert obs.registry() is registry
            with obs.span("covered"):
                pass
            assert tracer.finish()[0].name == "covered"
            # Standard families are preregistered.
            assert registry.get("io_bytes_total") is not None
        finally:
            obs.disable()
        assert not obs.ACTIVE and obs.tracer() is None
