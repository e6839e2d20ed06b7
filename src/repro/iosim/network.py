"""Network links with FCFS contention.

Links are :class:`~repro.iosim.resource.Resource`-backed: concurrent
flows through the same link queue behind each other, which is how the
single NFS server uplink caps configuration A/C at ~1 GbE while PVFS2
and Lustre scale with their I/O-node count.

Presets match the paper's fabrics: 1 Gb Ethernet (Tables VI/VII) and
20 Gb/s InfiniBand (Finisterrae).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import faults
from repro.faults import TransientFault

from .device import MB
from .resource import Resource


@dataclass
class LinkSpec:
    """Bandwidth/latency parameters of one link.

    ``load_amplitude`` models *background load*: shared storage servers
    never deliver a perfectly flat rate -- cron jobs, other users,
    daemon housekeeping modulate the effective bandwidth over time.  The
    modulation is a deterministic function of virtual time (so runs stay
    reproducible), ``bw * (1 + A sin(2 pi t / period + phase))``.  This
    is what separates the application's measured phase bandwidths from
    IOR's replay of the same phases at different times -- the real-world
    effect behind the paper's 1-9 % estimation errors.
    """

    bw_mb_s: float  # payload bandwidth, MB/s
    latency_s: float  # per-message latency, seconds
    name: str = "link"
    load_amplitude: float = 0.0  # 0 = flat; 0.05 = +-5 % swing
    load_period_s: float = 97.0
    load_phase: float = 0.0

    def fingerprint(self) -> tuple:
        """Performance parameters only -- ``name`` is a display label."""
        return ("LinkSpec", self.bw_mb_s, self.latency_s,
                self.load_amplitude, self.load_period_s, self.load_phase)

    def bw_at(self, t: float) -> float:
        """Effective bandwidth (MB/s) at virtual time ``t``."""
        if not self.load_amplitude:
            return self.bw_mb_s
        swing = math.sin(2.0 * math.pi * t / self.load_period_s + self.load_phase)
        return self.bw_mb_s * (1.0 + self.load_amplitude * swing)


#: Effective payload rate of 1 Gb Ethernet (TCP/IP overhead included).
GIGABIT_ETHERNET = LinkSpec(bw_mb_s=112.0, latency_s=60e-6, name="1GbE")
#: Effective payload rate of DDR InfiniBand (20 Gb/s signalling).
INFINIBAND_20G = LinkSpec(bw_mb_s=1900.0, latency_s=4e-6, name="IB-20G")


class Link:
    """A point-to-point or node-uplink network resource."""

    def __init__(self, name: str, spec: LinkSpec = GIGABIT_ETHERNET):
        self.name = name
        self.spec = spec
        self.resource = Resource(name)
        # A link named "nasd0.nic" also answers to faults targeting its
        # owner node "nasd0" (I/O-node dropout, node-level brownouts).
        owner = name.rsplit(".", 1)[0]
        self._fault_names = (name,) if owner == name else (name, owner)

    def cost(self, nbytes: int, at: float = 0.0) -> float:
        spec = self.spec
        bw = spec.bw_at(at) if spec.load_amplitude else spec.bw_mb_s
        latency = spec.latency_s
        if faults.ACTIVE:
            bw_factor, extra_latency = faults.plan().link_state(
                self._fault_names, at)
            bw *= bw_factor
            latency += extra_latency
        return latency + nbytes / (bw * MB)

    def send(self, start: float, nbytes: int) -> tuple[float, float]:
        """Occupy the link for a message; returns (begin, end).

        An active dropout window covering ``start`` either defers the
        message to the reconnect time (``mode="defer"``) or raises
        :class:`~repro.faults.plan.TransientFault` (``mode="error"``)
        for the pipeline's retry policy to absorb.
        """
        start = self._deferred_start(start)
        return self.resource.acquire(start, self.cost(nbytes, at=start))

    def acquire(self, start: float, cost: float) -> tuple[float, float]:
        """Dropout-aware ``Resource.acquire`` (used by server-side NICs
        whose cost the filesystem model computes itself)."""
        return self.resource.acquire(self._deferred_start(start), cost)

    def _deferred_start(self, start: float) -> float:
        if faults.ACTIVE:
            fp = faults.plan()
            window = fp.dropout(self._fault_names, start)
            if window is not None:
                fp.record(faults.DROPOUT, window.target, window.start,
                          f"{window.mode} until {window.end:.3f}")
                if window.mode == "error":
                    raise TransientFault(window.target, retry_at=window.end)
                start = window.end  # stall until the component reconnects
        return start

    def fingerprint(self) -> tuple:
        return ("Link", self.spec.fingerprint())

    def reset(self) -> None:
        self.resource.reset()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Link({self.name}, {self.spec.bw_mb_s} MB/s)"


def collective_comm_time(spec: LinkSpec, nbytes: int, nranks: int, pattern: str) -> float:
    """Analytic cost of a communication collective (not resource-tracked).

    Log-tree latency plus payload serialization; all-to-all patterns pay
    the bisection. This is deliberately simple -- the paper's methodology
    only needs communication to order events and to cost the shuffle
    phase of two-phase collective I/O.
    """
    import math

    stages = max(1, math.ceil(math.log2(max(2, nranks))))
    lat = spec.latency_s * stages
    bw = spec.bw_mb_s * MB
    if pattern in ("barrier", "split", "file_open"):
        return lat
    if pattern in ("bcast", "allreduce", "reduce"):
        return lat + nbytes / bw * stages
    if pattern in ("gather", "alltoall"):
        return lat + nbytes / bw
    if pattern == "p2p":
        return spec.latency_s + nbytes / bw
    return lat + nbytes / bw
