"""The cluster: compute nodes + global filesystem as an engine Platform.

A :class:`Cluster` is one "I/O configuration" in the paper's sense
(Tables VI/VII): it binds compute nodes, networks, I/O nodes and a
global filesystem and implements the engine's :class:`~repro.simmpi.engine.
Platform` protocol.  iostat-style observation (Fig. 8) is on demand:
:meth:`Cluster.attach_monitor` hangs a device monitor on every disk;
until then ``monitor`` is ``None`` and no per-transfer sample is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.simmpi.engine import IORequest

from .collective import two_phase_io
from .globalfs import Access, GlobalFS
from .monitor import DeviceMonitor
from .network import LinkSpec, collective_comm_time
from .nodes import ComputeNode


@dataclass
class ClusterDescription:
    """Static inventory for the Tables VI/VII rows."""

    name: str
    io_library: str
    comm_network: str
    storage_network: str
    global_filesystem: str
    io_nodes: str
    local_filesystem: str
    redundancy: str
    n_devices: int
    device_capacity: str
    mount_point: str


class Cluster:
    """One I/O configuration; also the Platform the engine charges against."""

    def __init__(
        self,
        name: str,
        compute_nodes: list[ComputeNode],
        globalfs: GlobalFS,
        compute_net: LinkSpec,
        description: ClusterDescription | None = None,
        cb_nodes: int | None = None,
    ):
        if not compute_nodes:
            raise ValueError("a cluster needs at least one compute node")
        self.name = name
        self.compute_nodes = compute_nodes
        self.globalfs = globalfs
        self.compute_net = compute_net
        self.description = description
        self.cb_nodes = cb_nodes
        self.monitor: DeviceMonitor | None = None

    def attach_monitor(self) -> DeviceMonitor:
        """Record every disk transfer from now on (Fig. 8 series).

        Returns ``self.monitor``, creating and attaching it on the first
        call.
        """
        if self.monitor is None:
            self.monitor = DeviceMonitor()
            self.globalfs.attach_monitor(self.monitor)
        return self.monitor

    # -- Platform protocol ------------------------------------------------------
    def node_of_rank(self, rank: int, nranks: int) -> int:
        """Round-robin rank placement over compute nodes."""
        return rank % len(self.compute_nodes)

    def service_io(self, req: IORequest) -> float:
        """One independent I/O operation; returns its duration."""
        client = self.compute_nodes[req.node % len(self.compute_nodes)]
        access = Access(req.start, client, req.runs, req.kind, req.file_id,
                        req.nbytes)
        end = self.globalfs.service(access)
        if obs.ACTIVE:
            obs.inc("globalfs_accesses_total", config=self.name,
                    fs=self.globalfs.name, kind=req.kind)
        return max(0.0, end - req.start)

    def service_collective_io(self, reqs: Sequence[IORequest], start: float) -> dict[int, float]:
        """A collective I/O operation via two-phase I/O; same end for all."""
        clients = [self.compute_nodes[r.node % len(self.compute_nodes)] for r in reqs]
        end = two_phase_io(reqs, start, self.globalfs, clients,
                           self.compute_net, cb_nodes=self.cb_nodes)
        dur = max(0.0, end - start)
        if obs.ACTIVE:
            obs.inc("globalfs_accesses_total", amount=len(reqs),
                    config=self.name, fs=self.globalfs.name,
                    kind=reqs[0].kind if reqs else "write")
        return {r.rank: dur for r in reqs}

    def comm_time(self, nbytes: int, nranks: int, pattern: str, start: float) -> float:
        return collective_comm_time(self.compute_net, nbytes, nranks, pattern)

    # -- characterization --------------------------------------------------------
    def peak_bw(self, kind: str) -> float:
        """BW_PK of this configuration (eqs. 3/4), in MB/s."""
        return self.globalfs.peak_bw(kind)

    def fingerprint(self) -> tuple:
        """Structural identity of the configuration, names excluded.

        Two clusters with equal fingerprints are indistinguishable to the
        simulator: same rank placement (compute-node fingerprints in
        order), same data path (global FS + I/O nodes), same collective
        costs (``compute_net``, ``cb_nodes``).  This is the cache key
        half that lets memoized results transfer across factories.
        """
        return ("Cluster",
                tuple(n.fingerprint() for n in self.compute_nodes),
                self.globalfs.fingerprint(),
                self.compute_net.fingerprint(),
                self.cb_nodes)

    def reset(self) -> None:
        """Clear all queues, caches and monitor samples between experiments."""
        self.globalfs.reset()
        for node in self.compute_nodes:
            node.nic.reset()
        if self.monitor is not None:
            self.monitor.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Cluster({self.name}, {len(self.compute_nodes)} compute nodes, "
                f"{self.globalfs.name} over {len(self.globalfs.ions)} I/O nodes)")
