"""Figure 8: device activity of MADbench2 on configuration B.

The paper monitors each PVFS2 I/O node's disk with ``iostat -x -p 1``
and shows: (i) the application's I/O phases are visible at device
level as activity bursts, and (ii) during the phases the disks run at
~100 % busy even though the application-level usage is ~30 %.
"""

from __future__ import annotations

from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.clusters import configuration_b
from repro.report.figures import device_series_ascii, device_series_csv
from repro.simmpi.engine import Engine


def run_with_monitor():
    cluster = configuration_b()
    cluster.attach_monitor()
    engine = Engine(16, platform=cluster)
    # Real MADbench2 busy-work (dgemm-scale) is seconds per bin; a long
    # compute stretch makes the inter-phase idle gaps of Fig. 8 visible.
    engine.run(madbench2_program, MADbench2Params(busy_seconds=5.0))
    return cluster


def test_figure8_device_activity(benchmark):
    cluster = benchmark.pedantic(run_with_monitor, rounds=1, iterations=1)
    monitor = cluster.monitor

    devices = monitor.devices()
    print()
    for dev in devices:
        print(device_series_ascii(monitor, dev, bucket=2.0, width=70))
    csv = device_series_csv(monitor, bucket=1.0)
    print(f"[csv rows: {len(csv.splitlines()) - 1}]")

    # All three PVFS2 disks saw traffic (striping spreads every request).
    assert len(devices) == 3
    for dev in devices:
        assert monitor.total_bytes(dev) > 0

    # Phase structure appears at device level: active and idle buckets
    # alternate (compute/communication between I/O phases).
    rows = monitor.series(devices[0], bucket=1.0)
    active = [r for r in rows if r.busy_fraction > 0.5]
    idle = [r for r in rows if r.busy_fraction < 0.05]
    assert active and idle

    # During the phases the disk is ~100 % busy (the paper's point):
    # the busiest quartile of buckets averages >90 % busy.
    busiest = sorted((r.busy_fraction for r in rows), reverse=True)
    top = busiest[: max(1, len(busiest) // 4)]
    assert sum(top) / len(top) > 0.9
