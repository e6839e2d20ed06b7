"""Local filesystem models (ext3 / ext4) with a write-back buffer cache.

The local FS sits between a server's export (NFS/PVFS2/Lustre OSS) and
its block volume.  It charges:

* a per-operation latency (metadata, block mapping),
* journalling overhead as extra write traffic (heavier on ext3),
* and it absorbs write bursts into a RAM write-back cache: a write
  completes at memory speed while the volume still has room in its
  backlog (backlog-seconds x drain-rate <= cache size), else it runs at
  volume speed.  This is why IOzone must use file sizes >= 2x RAM
  (Table II's ``minimum size = 2 * RAMsize`` rule) to measure the media.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import MB
from .raid import Volume


@dataclass
class FSSpec:
    """Tuning parameters of a local filesystem type."""

    name: str = "ext4"
    op_latency_ms: float = 0.15
    journal_write_overhead: float = 0.05  # extra fraction of write bytes
    readahead_benefit: float = 0.85  # sequential-read cost multiplier
    memory_bw_mb_s: float = 2500.0


EXT4 = FSSpec(name="ext4", journal_write_overhead=0.05)
EXT3 = FSSpec(name="ext3", op_latency_ms=0.25, journal_write_overhead=0.12,
              readahead_benefit=0.9)


class LocalFS:
    """A mounted local filesystem over a :class:`~repro.iosim.raid.Volume`."""

    def __init__(self, name: str, volume: Volume, spec: FSSpec = EXT4,
                 cache_mb: float = 256.0):
        self.name = name
        self.volume = volume
        self.spec = spec
        self.cache_mb = cache_mb
        self._last_read_end: int | None = None

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        """Service one contiguous access; returns its completion time."""
        if nbytes <= 0:
            return start
        spec = self.spec
        t = start + spec.op_latency_ms / 1e3
        if kind == "write":
            volume = self.volume
            volume_bytes = int(nbytes * (1.0 + spec.journal_write_overhead))
            vol_end = volume.transfer(t, offset, volume_bytes, "write", locator,
                                      fragments)
            cache_bytes = self.cache_mb * MB
            if cache_bytes > 0:
                backlog_s = vol_end - start
                drain_bw = volume.peak_bw("write") * MB
                cache_s = cache_bytes / drain_bw
                mem_end = t + nbytes / (spec.memory_bw_mb_s * MB)
                if backlog_s * drain_bw <= cache_bytes:
                    # Absorbed by the page cache: ack at memory speed.
                    return mem_end
                # Cache full: the writer blocks until there is room again
                # (dirty pages drained down to the cache size), not until
                # the whole backlog reaches the platter.
                return max(mem_end, vol_end - cache_s)
            return vol_end
        # read
        sequential = self._last_read_end is not None and offset == self._last_read_end
        self._last_read_end = offset + nbytes
        vol_end = self.volume.transfer(t, offset, nbytes, "read", locator,
                                       fragments=fragments)
        if sequential:
            # Readahead hides part of the latency/seek cost.
            dur = (vol_end - t) * self.spec.readahead_benefit
            return t + dur
        return vol_end

    def peak_bw(self, kind: str) -> float:
        """Media-level streaming bandwidth through this FS (MB/s)."""
        bw = self.volume.peak_bw(kind)
        if kind == "write":
            return bw / (1.0 + self.spec.journal_write_overhead)
        return bw

    def fingerprint(self) -> tuple:
        """FS tuning + cache size + volume identity (names excluded)."""
        s = self.spec
        return ("LocalFS", s.op_latency_ms, s.journal_write_overhead,
                s.readahead_benefit, s.memory_bw_mb_s, self.cache_mb,
                self.volume.fingerprint())

    def reset(self) -> None:
        self.volume.reset()
        self._last_read_end = None
