"""Benchmark-side spans around the calls into each ``repro`` layer.

The traced run records a span (name, start, end, parent, op id) for
every call the benchmark makes into a layer's public function, and for
the public methods it wraps for the duration of the run
(:meth:`SpanLog.wrap`).  Spans stay in memory; :meth:`SpanLog.write`
saves them at exit as a Chrome/Perfetto ``trace_event`` file plus a
per-layer self-time table.  A span's self time is its duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanLog:
    """In-memory span recorder with patch-and-restore instrumentation."""

    def __init__(self):
        #: [name, start, end, parent index (-1 for roots), op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span timed elsewhere."""
        self.spans.append([name, start, end, -1, self.op])

    def wrap(self, owner, attr: str, name: str | None, on_result=None) -> None:
        """Replace ``owner.attr`` by a spanned version until restore();
        ``on_result(result, args)`` sees each call outside the span.
        With ``name`` None the call is only observed, not spanned."""
        orig = getattr(owner, attr)
        log = self

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            if name is None:
                result = orig(*args, **kwargs)
            else:
                with log.span(name):
                    result = orig(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        replacement = spanned  # a plain method gets self in args
        if isinstance(vars(owner).get(attr), classmethod):
            # orig is already bound to the class
            replacement = classmethod(lambda cls, *a, **k: spanned(*a, **k))
        self.patch(owner, attr, replacement)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until restore()."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def timed_iter(self, iterable, name: str):
        """Yield from ``iterable``, spanning each ``next()``."""
        it = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    # -- derived views ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def table(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += s[2] - s[1] - child_time[i]
        return out

    def write(self, prefix: Path) -> None:
        """``<prefix>.chrome.json`` (Perfetto-loadable) and
        ``<prefix>.layers.json`` (the self-time table)."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [{"name": s[0], "ph": "X", "pid": 1, "tid": 1,
                   "ts": (s[1] - t0) * 1e6, "dur": (s[2] - s[1]) * 1e6,
                   "args": {"op": s[4], "parent": s[3]}}
                  for s in self.spans]
        Path(f"{prefix}.chrome.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        Path(f"{prefix}.layers.json").write_text(
            json.dumps(self.table(), indent=1, sort_keys=True))
