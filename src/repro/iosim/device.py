"""Rotating-disk device model with sector accounting.

The disk is the leaf of the simulated I/O stack.  Costs:

* sequential transfer at ``seq_write_bw`` / ``seq_read_bw`` (MB/s);
* a seek penalty whenever a request does not continue where the previous
  one on this disk ended (``seek_ms`` + half-rotation latency);
* per-request controller overhead (``op_overhead_ms``).

Every transfer feeds the ``device_*`` counters of :mod:`repro.obs`
(when observation is on).  Per-transfer samples for iostat-style series
(Fig. 8: sectors/s and %busy per device) are kept only when a caller
attached a :class:`~repro.iosim.monitor.DeviceMonitor`
(:meth:`repro.iosim.cluster.Cluster.attach_monitor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import faults, obs
from repro.faults import DiskFailure

from .resource import Resource

MB = 1024 * 1024
SECTOR_BYTES = 512


@dataclass
class DiskSpec:
    """Performance parameters of one disk."""

    seq_write_bw: float = 90.0  # MB/s
    seq_read_bw: float = 100.0  # MB/s
    seek_ms: float = 8.5
    rotational_ms: float = 4.2  # half-rotation at 7200 rpm
    op_overhead_ms: float = 0.05
    capacity_gb: float = 150.0


#: A SATA SSD: no mechanical positioning, high sustained rates.  Useful
#: for modern-hardware what-if studies on top of the paper's methodology.
SSD_SPEC = DiskSpec(seq_write_bw=450.0, seq_read_bw=520.0, seek_ms=0.0,
                    rotational_ms=0.0, op_overhead_ms=0.02, capacity_gb=480.0)


@dataclass
class Disk:
    """One physical disk: an FCFS resource plus head-position state."""

    name: str
    spec: DiskSpec = field(default_factory=DiskSpec)
    monitor: "object | None" = None  # DeviceMonitor, attached on demand

    def __post_init__(self) -> None:
        self.resource = Resource(self.name)
        self._head: float | None = None  # byte offset after the last transfer

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 fragments: int = 1) -> float:
        """Service a transfer; returns its completion time (virtual seconds).

        ``fragments > 1`` models a request whose blocks interleave with
        other clients' on the platter (striped filesystems): each extra
        fragment costs one seek.
        """
        if nbytes <= 0:
            return start
        slow = 1.0
        if faults.ACTIVE:
            fp = faults.plan()
            since = fp.disk_failed_since(self.name, start)
            if since is not None:
                fp.record(faults.FAIL_STOP, self.name, since,
                          "addressed while dead")
                raise DiskFailure(self.name, since)
            slow = fp.slow_factor(self.name, start)
        spec = self.spec
        bw = spec.seq_write_bw if kind == "write" else spec.seq_read_bw
        cost = spec.op_overhead_ms / 1e3 + nbytes / (bw * MB)
        seek_s = (spec.seek_ms + spec.rotational_ms) / 1e3
        # Near-sequential accesses (short same-track skips, e.g. journal
        # padding) do not pay a full seek.
        head = self._head
        if head is None:
            cost += seek_s
        else:
            gap = abs(offset - head)
            if gap > 64 * 1024 and gap > nbytes // 4:
                cost += seek_s
        if fragments > 1:  # "+= 0.0" would leave the cost as it is
            cost += (fragments - 1) * seek_s
        if slow != 1.0:
            # A fail-slow disk serves everything -- positioning included
            # -- at a fraction of its healthy rate.
            cost *= slow
        self._head = offset + nbytes
        begin, end = self.resource.acquire(start, cost)
        if obs.ACTIVE:
            obs.observe_device_transfer(self.name, begin, end, nbytes, kind)
        if self.monitor is not None:
            self.monitor.record(self.name, begin, end, nbytes, kind)
        return end

    def peak_bw(self, kind: str) -> float:
        """Best-case streaming bandwidth in MB/s (no seeks, no overhead)."""
        return self.spec.seq_write_bw if kind == "write" else self.spec.seq_read_bw

    def fingerprint(self) -> tuple:
        """Performance-relevant identity, excluding the instance name."""
        s = self.spec
        return ("Disk", s.seq_write_bw, s.seq_read_bw, s.seek_ms,
                s.rotational_ms, s.op_overhead_ms, s.capacity_gb)

    def reset(self) -> None:
        self.resource.reset()
        self._head = None
