"""Memoization of pure simulation results keyed by structural fingerprints.

The paper's methodology re-evaluates one application model against many
I/O configurations (section V), and a configuration sweep re-simulates
the *same* (phase, cluster) pairs over and over: BT-IO's 50 write
phases share one signature, configuration B's three I/O nodes differ
only by name, and ``full_study`` replays every phase once per
candidate configuration.  Because the simulators are pure functions of
their inputs -- a fresh cluster plus a parameter record in, a result
record out -- their outputs can be memoized by value.

The key ingredient is a *structural fingerprint*: every simulated
resource (``Disk``, ``Volume``, ``LocalFS``, ``Link``, nodes, global
filesystems, ``Cluster``) exposes ``fingerprint()`` returning a
hashable tuple of its performance-relevant parameters, excluding
instance names.  Two clusters built by different factories hash equal
iff the simulation cannot distinguish them.

Caches register here by name (``"ior"``, ``"iozone"``, ``"replay"``)
so they can be inspected, cleared or disabled as a group::

    from repro.core import cache

    cache.stats()      # {"ior": {"hits": 40, "misses": 2, "entries": 2}}
    cache.clear_all()  # drop every entry and zero the hit/miss counters
    cache.disable()    # bypass lookups entirely (e.g. for benchmarking)

Hits and misses also feed ``repro.obs`` counters
(``cache_hits_total`` / ``cache_misses_total``, labelled by cache) when
observability is enabled.

When a persistent store is attached (:mod:`repro.store`, via
``store.attach(...)`` or the ``REPRO_CACHE_DIR`` environment variable),
every cache transparently extends to disk: an in-memory miss falls
through to the store (counted in ``disk_hits`` and promoted back into
memory), and every insert writes through, so results survive process
exit and are shared by concurrent ``sweep_map`` workers.  Keys that
have no deterministic byte encoding simply stay in-memory-only.
``clear_all()`` drops the in-memory tier only; the disk tier is managed
through ``repro-io cache clear`` / ``ResultStore.clear``.

A fingerprint says nothing about an installed fault plan
(:mod:`repro.faults`), so while one is active every lookup misses and
every insert is dropped, in memory and in the store.

Replays look the memo up before building anything: the key is (params,
:func:`factory_fingerprint`), one shared tuple per factory object, so a
hit builds no cluster and compares keys by identity.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Hashable

from repro import faults, obs
from repro import store as _store

_MISS = object()  # sentinel: lookup found nothing (None is a valid value)


class SimCache:
    """One named memo table with hit/miss accounting."""

    __slots__ = ("name", "hits", "misses", "disk_hits", "_data")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self._data: dict[Hashable, Any] = {}

    def lookup(self, key: Hashable) -> Any:
        """Return the cached value or the module sentinel ``_MISS``."""
        if not _enabled or faults.ACTIVE:
            return _MISS
        value = self._data.get(key, _MISS)
        if value is _MISS:
            disk = _store.active()
            if disk is not None:
                found, stored = disk.get(self.name, key)
                if found:
                    # promote: later lookups in this process stay in memory
                    self._data[key] = stored
                    self.hits += 1
                    self.disk_hits += 1
                    if obs.ACTIVE:
                        obs.inc("cache_hits_total", cache=self.name)
                    return stored
            self.misses += 1
            if obs.ACTIVE:
                obs.inc("cache_misses_total", cache=self.name)
        else:
            self.hits += 1
            if obs.ACTIVE:
                obs.inc("cache_hits_total", cache=self.name)
        return value

    def store(self, key: Hashable, value: Any) -> None:
        if not _enabled or faults.ACTIVE:
            return
        self._data[key] = value
        disk = _store.active()
        if disk is not None:
            disk.put(self.name, key, value)

    def clear(self) -> None:
        """Drop every in-memory entry and zero the counters (a fresh
        measurement).  An attached persistent store keeps its entries --
        that is the point of it."""
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._data)


_registry: dict[str, SimCache] = {}
_enabled: bool = True


def cache(name: str) -> SimCache:
    """Get (or create) the named cache."""
    c = _registry.get(name)
    if c is None:
        c = _registry[name] = SimCache(name)
    return c


def enabled() -> bool:
    return _enabled


def enable() -> None:
    """Turn memoization back on (entries cached earlier are kept)."""
    global _enabled
    _enabled = True


def disable(clear: bool = True) -> None:
    """Bypass every cache; by default also drop current entries."""
    global _enabled
    _enabled = False
    if clear:
        clear_all()


def clear_all() -> None:
    for c in _registry.values():
        c.clear()


def stats() -> dict[str, dict[str, int]]:
    """Hit/miss/entry counts per cache, for reports and tests.

    ``disk_hits`` counts the subset of ``hits`` served by the attached
    persistent store (always 0 when no store is attached).
    """
    return {
        name: {"hits": c.hits, "misses": c.misses, "entries": len(c),
               "disk_hits": c.disk_hits}
        for name, c in sorted(_registry.items())
    }


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

class FactoryMemo:
    """One value derived from the cluster a factory builds, per factory.

    ``get(factory, derive)`` returns ``derive(factory())`` and builds the
    cluster only the first time it sees ``factory``.  Factories are held
    weakly: when a sweep drops its factories their entries go too.  A
    callable that cannot be weakly referenced (or hashed) is simply not
    memoized.
    """

    __slots__ = ("_data",)

    def __init__(self):
        self._data: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def get(self, factory: Callable[[], Any], derive: Callable[[Any], Any]
            ) -> Any:
        try:
            hit = self._data.get(factory, _MISS)
        except TypeError:  # not weakly referenceable, or unhashable
            return derive(factory())
        if hit is _MISS:
            hit = self._data[factory] = derive(factory())
        return hit

    def __len__(self) -> int:
        return len(self._data)


#: Factory object -> fingerprint of the cluster it builds.
_factory_fps = FactoryMemo()


def platform_fingerprint(platform: Any) -> Hashable | None:
    """Structural fingerprint of a platform, or None if it has none.

    Platforms without a ``fingerprint()`` method (e.g. ad-hoc test
    doubles) simply opt out of memoization.
    """
    fp = getattr(platform, "fingerprint", None)
    if fp is None:
        return None
    return fp()


def factory_fingerprint(factory: Callable[[], Any]) -> Hashable | None:
    """Fingerprint of the cluster a factory builds, memoized per factory.

    Memo keys built from it (``"ior"``: params plus this fingerprint)
    share the one tuple instead of holding a fresh copy each.
    """
    return _factory_fps.get(factory, platform_fingerprint)
