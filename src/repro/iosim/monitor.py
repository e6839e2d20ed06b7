"""iostat-style device monitoring.

The paper monitors I/O devices with ``iostat -x -p 1`` on every I/O node
(Fig. 8: sectors/s written and %busy over wall time, phase-aligned with
the application's I/O phases).  :class:`DeviceMonitor` collects one
sample per device transfer in *virtual* time and aggregates them into
per-second buckets, exactly what the figure plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro import obs

from .device import SECTOR_BYTES


class TransferSample(NamedTuple):
    # A NamedTuple, not a frozen dataclass: one sample is built per
    # simulated device transfer, squarely on the simulator's hot path.
    device: str
    begin: float
    end: float
    nbytes: int
    kind: str  # "write" | "read"


#: Builds a TransferSample without the generated ``__new__`` frame.
_new_sample = tuple.__new__


@dataclass
class BucketRow:
    """One row of the iostat-like report: a 1-second (by default) bucket."""

    time: float
    sectors_written_per_s: float = 0.0
    sectors_read_per_s: float = 0.0
    busy_fraction: float = 0.0

    @property
    def wsec_per_s(self) -> float:  # iostat column name alias
        return self.sectors_written_per_s

    @property
    def rsec_per_s(self) -> float:
        return self.sectors_read_per_s


@dataclass
class DeviceMonitor:
    """Collects per-device transfer samples and renders iostat-like series."""

    samples: list[TransferSample] = field(default_factory=list)

    def record(self, device: str, begin: float, end: float, nbytes: int, kind: str) -> None:
        self.samples.append(_new_sample(TransferSample,
                                        (device, begin, end, nbytes, kind)))
        # The monitor doubles as the device-level feed of the metrics
        # registry: consumers read device totals from ``repro.obs``
        # counters instead of poking at the private sample list.
        if obs.ACTIVE:
            obs.observe_device_transfer(device, begin, end, nbytes, kind)

    def devices(self) -> list[str]:
        return sorted({s.device for s in self.samples})

    def series(self, device: str, bucket: float = 1.0) -> list[BucketRow]:
        """Per-bucket sectors/s and busy fraction for one device.

        A transfer spanning several buckets contributes proportionally to
        each (its bytes and busy time are spread uniformly over its
        duration), matching how iostat attributes activity to intervals.

        Implemented as a single sweep over sample boundaries: each
        transfer becomes a pair of rate-change events (+rate at begin,
        -rate at end) and one pass integrates the piecewise-constant
        rates across bucket edges -- O((S + B) log S) instead of the
        naive O(S x spanned buckets) per-sample inner loop.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        dev_samples = [s for s in self.samples if s.device == device]
        if not dev_samples:
            return []
        horizon = max(s.end for s in dev_samples)
        nbuckets = max(1, math.ceil(horizon / bucket))
        rows = [BucketRow(time=i * bucket) for i in range(nbuckets)]
        # Rate-change events: (time, d_write_rate, d_read_rate, d_busy).
        boundaries: list[tuple[float, float, float, float]] = []
        for s in dev_samples:
            dur = s.end - s.begin
            if dur <= 0:
                continue  # instantaneous transfer: no interval to spread
            rate = s.nbytes / dur  # bytes/s, uniform over the transfer
            w, r = (rate, 0.0) if s.kind == "write" else (0.0, rate)
            boundaries.append((s.begin, w, r, 1.0))
            boundaries.append((s.end, -w, -r, -1.0))
        boundaries.sort(key=lambda e: e[0])
        wrate = rrate = brate = 0.0
        idx, nevents = 0, len(boundaries)
        t = 0.0
        for i, row in enumerate(rows):
            b_end = (i + 1) * bucket
            wbytes = rbytes = busy = 0.0
            t = max(t, i * bucket)
            while True:
                t_next = boundaries[idx][0] if idx < nevents else b_end
                seg_end = min(t_next, b_end)
                if seg_end > t:
                    dt = seg_end - t
                    wbytes += wrate * dt
                    rbytes += rrate * dt
                    busy += brate * dt
                    t = seg_end
                if idx < nevents and boundaries[idx][0] <= b_end:
                    _, dw, dr, db = boundaries[idx]
                    wrate += dw
                    rrate += dr
                    brate += db
                    idx += 1
                else:
                    break
            row.sectors_written_per_s = wbytes / SECTOR_BYTES / bucket
            row.sectors_read_per_s = rbytes / SECTOR_BYTES / bucket
            row.busy_fraction = min(1.0, busy / bucket)
        return rows

    def total_bytes(self, device: str | None = None, kind: str | None = None) -> int:
        return sum(
            s.nbytes
            for s in self.samples
            if (device is None or s.device == device)
            and (kind is None or s.kind == kind)
        )

    def clear(self) -> None:
        self.samples.clear()
