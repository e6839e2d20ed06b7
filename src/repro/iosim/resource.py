"""Virtual-time FCFS resources.

Every contended component of the simulated I/O stack (a disk, a NIC, an
NFS server link, ...) is a :class:`Resource`: requests occupy it for a
cost interval, queueing in virtual time.  Because the SPMD engine issues
requests in (approximately) nondecreasing virtual-time order, a simple
``next_free`` pointer gives first-come-first-served queueing, which is
where contention effects (e.g. an NFS server serializing its clients)
come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs


@dataclass(slots=True)
class Resource:
    """A serially-reusable component with FCFS queueing in virtual time."""

    name: str
    next_free: float = 0.0
    busy_time: float = 0.0
    total_requests: int = 0

    def acquire(self, start: float, cost: float) -> tuple[float, float]:
        """Occupy the resource for ``cost`` seconds from no earlier than ``start``.

        Returns ``(begin, end)``: the interval actually occupied.  ``begin``
        is ``max(start, next_free)`` -- the request waits for earlier ones.
        """
        if cost < 0:
            raise ValueError(f"resource cost must be >= 0, got {cost}")
        next_free = self.next_free
        begin = next_free if next_free > start else start  # max(), inlined
        end = begin + cost
        self.next_free = end
        self.busy_time += cost
        self.total_requests += 1
        if obs.ACTIVE:
            obs.observe_resource_wait(self.name, begin - start, cost)
        return begin, end

    def utilization(self, horizon: float) -> float:
        """Fraction of [0, horizon] the resource was busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.next_free = 0.0
        self.busy_time = 0.0
        self.total_requests = 0


@dataclass
class ResourceGroup:
    """A pool of identical resources used in parallel (e.g. RAID members).

    ``acquire_parallel`` splits a cost evenly over the members and returns
    the latest completion -- the simple fork/join model used for striped
    volumes.
    """

    members: list[Resource] = field(default_factory=list)

    def acquire_parallel(self, start: float, cost_per_member: float) -> tuple[float, float]:
        begins, ends = [], []
        for m in self.members:
            b, e = m.acquire(start, cost_per_member)
            begins.append(b)
            ends.append(e)
        return min(begins), max(ends)
