"""Metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-flavoured data model, simulation-sized implementation.  A
*family* is a named metric with a fixed label-name tuple; ``labels()``
resolves one child time series per label-value combination.  Families
with no labels act as their own child, so ``registry.counter("x").inc()``
works directly.

Everything is guarded by one registry lock -- updates may come from
several threads concurrently (the service daemon's, an executor's).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

KB = 1024
MB = 1024 * KB

#: Fixed request/transfer size buckets (bytes), 4 KiB .. 1 GiB.
BYTES_BUCKETS = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB,
                 16 * MB, 64 * MB, 256 * MB, 1024 * MB)

#: Fixed latency/wait buckets (seconds), 10 us .. 100 s.
SECONDS_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0, 100.0)


def _label_key(labelnames: tuple[str, ...], labels: dict) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}")
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Value that can go anywhere (queue depth, busy fraction, BW)."""

    kind = "gauge"

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``counts[i]`` is the number of observations ``<= bounds[i]`` minus
    those in earlier buckets (per-bucket, *not* cumulative; cumulation
    happens at export time).  The implicit ``+Inf`` bucket is
    ``count - sum(counts)``.
    """

    kind = "histogram"

    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self._lock = lock
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = bisect_left(self.bounds, value)
        with self._lock:
            if i < len(self.counts):
                self.counts[i] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs ending with ``(inf, count)``."""
        with self._lock:
            out, acc = [], 0
            for bound, c in zip(self.bounds, self.counts):
                acc += c
                out.append((bound, acc))
            out.append((float("inf"), self.count))
            return out


class _Family:
    """One named metric family: fixed labelnames, one child per value set."""

    def __init__(self, name: str, help: str, kind: str,
                 labelnames: tuple[str, ...], lock: threading.Lock,
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets)

    def labels(self, **labels):
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Label-free families act as their own single child.
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "use .labels(...)")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """Sorted ``(label values, child)`` pairs."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Get-or-create registry of metric families."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _get_or_create(self, name: str, help: str, kind: str,
                       labelnames: tuple[str, ...],
                       buckets: tuple[float, ...] | None = None) -> _Family:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind or fam.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind} "
                    f"with labels {fam.labelnames}")
            return fam
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, help, kind, tuple(labelnames), self._lock,
                              buckets=buckets)
                self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> _Family:
        return self._get_or_create(name, help, "counter", labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> _Family:
        return self._get_or_create(name, help, "gauge", labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = SECONDS_BUCKETS) -> _Family:
        return self._get_or_create(name, help, "histogram", labelnames,
                                   buckets=tuple(buckets))

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def clear(self) -> None:
        with self._lock:
            self._families.clear()
