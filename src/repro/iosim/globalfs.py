"""Global (cluster-wide) filesystem models: NFS, PVFS2, Lustre.

Each model services an access -- a list of absolute ``(offset, length)``
runs issued by one client node -- and returns its completion time.  The
data path is pipelined across three stages, every one an FCFS resource:

    client NIC  ->  server NIC(s)  ->  server local FS  ->  volume/disks

* **NFS**: one server; every byte of every client funnels through the
  server's NIC and filesystem, which caps aggregate bandwidth near one
  link (the behaviour of configurations A and C).
* **PVFS2**: round-robin striping over N I/O nodes.  Each ION stores its
  stripes contiguously in a local bfile, so the per-ION media access is
  sequential; aggregate bandwidth scales with N (configuration B).
* **Lustre**: like PVFS2 but a file uses ``stripe_count`` OSTs chosen
  from the OSS pool by file id, plus a metadata-server charge per
  operation (Finisterrae).

``peak_bw`` implements eqs. (3) and (4): the device-level maximum of a
single I/O node for NFS, the sum over I/O nodes for parallel
filesystems ("the ideal case, where I/O devices work in parallel
without influence of other components").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import MB
from .nodes import ComputeNode, IONode

Run = tuple[int, int]


@dataclass(slots=True)
class Access:
    """One client-side I/O access presented to a global filesystem.

    ``nbytes`` is the total of ``runs``, summed once here unless the
    caller passes it.
    """

    start: float
    client: ComputeNode
    runs: list[Run]
    kind: str  # "write" | "read"
    file_id: int = 0
    nbytes: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.nbytes is None:
            self.nbytes = sum(length for _, length in self.runs)


def stripe_shares(offset: int, length: int, stripe_bytes: int, n: int) -> list[int]:
    """Exact bytes each of ``n`` striped servers receives from one run.

    Round-robin striping: stripe ``k`` (covering bytes
    ``[k*stripe, (k+1)*stripe)``) lives on server ``k % n``.
    Computed in O(n) regardless of run length.
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset} in stripe_shares")
    if length <= 0:
        return [0] * n
    shares = [0] * n
    first = offset // stripe_bytes
    last = (offset + length - 1) // stripe_bytes
    nstripes = last - first + 1
    if nstripes == 1:
        shares[first % n] += length
        return shares
    # Head and tail partial stripes.
    head = (first + 1) * stripe_bytes - offset
    tail = (offset + length) - last * stripe_bytes
    shares[first % n] += head
    shares[last % n] += tail
    # Full stripes in between: indices first+1 .. last-1.
    nfull = nstripes - 2
    if nfull > 0:
        base, rem = divmod(nfull, n)
        for s in range(n):
            shares[s] += base * stripe_bytes
        # The first `rem` servers in rotation starting at (first+1) % n.
        for k in range(rem):
            shares[(first + 1 + k) % n] += stripe_bytes
    return shares


class GlobalFS:
    """Interface all global filesystem models implement."""

    name: str = "globalfs"
    ions: list[IONode]

    def service(self, access: Access) -> float:
        """Service an access; returns its completion time (virtual s)."""
        raise NotImplementedError

    def peak_bw(self, kind: str) -> float:
        """Peak device-level bandwidth, eqs. (3)/(4), in MB/s."""
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """Model parameters + I/O node identities (instance names excluded)."""
        raise NotImplementedError

    def reset(self) -> None:
        for ion in self.ions:
            ion.reset()

    def attach_monitor(self, monitor) -> None:
        for ion in self.ions:
            ion.fs.volume.attach_monitor(monitor)


class NFS(GlobalFS):
    """NFS v3: one server, async export.

    Writes ride the async export (server page cache acks them); reads
    are synchronous RPCs of ``read_chunk_kb`` each, so every chunk pays
    ``read_rpc_ms`` of server-side round-trip -- the classic NFS read
    penalty that makes reads notably slower than writes on 1 GbE
    (Tables IX and XII-XIII show exactly this asymmetry).
    """

    name = "nfs"

    def __init__(self, server: IONode, rpc_overhead_ms: float = 0.2,
                 read_chunk_kb: int = 128, read_rpc_ms: float = 0.0):
        self.server = server
        self.ions = [server]
        self.rpc_overhead_ms = rpc_overhead_ms
        self.read_chunk_kb = read_chunk_kb
        self.read_rpc_ms = read_rpc_ms

    def service(self, access: Access) -> float:
        total = access.nbytes
        lat = access.client.nic.spec.latency_s
        c_begin, c_end = access.client.nic.send(access.start, total)
        extra = 0.0
        if access.kind == "read" and self.read_rpc_ms > 0:
            nchunks = -(-total // (self.read_chunk_kb * 1024))
            extra = nchunks * self.read_rpc_ms / 1e3
        s_cost = self.server.nic.cost(total, at=c_begin) + extra
        s_begin, s_end = self.server.nic.acquire(c_begin + lat, s_cost)
        # Reads are synchronous RPCs: the per-chunk round trips serialize
        # with the media access instead of overlapping it.
        t = s_begin + self.rpc_overhead_ms / 1e3 + extra
        for off, ln in access.runs:
            t = self.server.fs.transfer(t, off, ln, access.kind,
                                        locator=access.file_id)
        return max(c_end, s_end, t)

    def peak_bw(self, kind: str) -> float:
        # eq. (3): a single I/O node's device-level maximum.
        return self.server.peak_bw(kind)

    def fingerprint(self) -> tuple:
        return ("NFS", self.rpc_overhead_ms, self.read_chunk_kb,
                self.read_rpc_ms, self.server.fingerprint())


class PVFS2(GlobalFS):
    """PVFS2: round-robin striping across N data servers."""

    name = "pvfs2"

    def __init__(self, ions: list[IONode], stripe_kb: int = 64,
                 meta_overhead_ms: float = 0.3,
                 per_stripe_overhead_ms: float = 0.0,
                 interleave_seek_factor: float = 0.0):
        if not ions:
            raise ValueError("PVFS2 needs at least one I/O node")
        self.ions = ions
        self.stripe_bytes = stripe_kb * 1024
        self.meta_overhead_ms = meta_overhead_ms
        # Per-stripe server processing (request decode, bstream lookup).
        self.per_stripe_overhead_ms = per_stripe_overhead_ms
        # Fraction of a request's stripes that land non-contiguously on
        # the platter when many clients interleave (extra seeks).
        self.interleave_seek_factor = interleave_seek_factor

    def service(self, access: Access) -> float:
        n = len(self.ions)
        total = access.nbytes
        lat = access.client.nic.spec.latency_s
        c_begin, c_end = access.client.nic.send(access.start, total)
        t0 = c_begin + lat + self.meta_overhead_ms / 1e3
        shares = [0] * n
        for off, ln in access.runs:
            for s, b in enumerate(stripe_shares(off, ln, self.stripe_bytes, n)):
                shares[s] += b
        end = c_end
        for s, nbytes in enumerate(shares):
            if nbytes <= 0:
                continue
            ion = self.ions[s]
            nstripes = max(1, -(-nbytes // self.stripe_bytes))
            s_cost = ion.nic.cost(nbytes, at=t0) + nstripes * self.per_stripe_overhead_ms / 1e3
            s_begin, s_end = ion.nic.acquire(t0, s_cost)
            # Per-ION stripes are mostly contiguous in the local bfile,
            # but concurrent clients interleave a fraction of them.
            local_off = access.runs[0][0] // n
            fragments = max(1, int(nstripes * self.interleave_seek_factor))
            fs_end = ion.fs.transfer(s_begin, local_off, nbytes, access.kind,
                                     locator=access.file_id, fragments=fragments)
            end = max(end, s_end, fs_end)
        return end

    def peak_bw(self, kind: str) -> float:
        # eq. (4): ideal sum over the I/O nodes.
        return sum(ion.peak_bw(kind) for ion in self.ions)

    def fingerprint(self) -> tuple:
        return ("PVFS2", self.stripe_bytes, self.meta_overhead_ms,
                self.per_stripe_overhead_ms, self.interleave_seek_factor,
                tuple(ion.fingerprint() for ion in self.ions))


class Lustre(GlobalFS):
    """Lustre: per-file subset of OSTs plus a metadata server charge."""

    name = "lustre"

    def __init__(self, osses: list[IONode], stripe_mb: float = 1.0,
                 stripe_count: int = 4, mds_overhead_ms: float = 0.15,
                 per_stripe_overhead_ms: float = 0.0,
                 interleave_seek_factor: float = 0.0):
        if not osses:
            raise ValueError("Lustre needs at least one OSS")
        self.ions = osses
        self.stripe_bytes = int(stripe_mb * MB)
        self.stripe_count = min(stripe_count, len(osses))
        self.mds_overhead_ms = mds_overhead_ms
        self.per_stripe_overhead_ms = per_stripe_overhead_ms
        self.interleave_seek_factor = interleave_seek_factor

    def _osts_for(self, file_id: int) -> list[IONode]:
        n = len(self.ions)
        return [self.ions[(file_id + k) % n] for k in range(self.stripe_count)]

    def service(self, access: Access) -> float:
        osts = self._osts_for(access.file_id)
        n = len(osts)
        total = access.nbytes
        lat = access.client.nic.spec.latency_s
        c_begin, c_end = access.client.nic.send(access.start, total)
        t0 = c_begin + lat + self.mds_overhead_ms / 1e3
        shares = [0] * n
        for off, ln in access.runs:
            for s, b in enumerate(stripe_shares(off, ln, self.stripe_bytes, n)):
                shares[s] += b
        end = c_end
        for s, nbytes in enumerate(shares):
            if nbytes <= 0:
                continue
            ost = osts[s]
            nstripes = max(1, -(-nbytes // self.stripe_bytes))
            s_cost = ost.nic.cost(nbytes, at=t0) + nstripes * self.per_stripe_overhead_ms / 1e3
            s_begin, s_end = ost.nic.acquire(t0, s_cost)
            local_off = access.runs[0][0] // n
            fragments = max(1, int(nstripes * self.interleave_seek_factor))
            fs_end = ost.fs.transfer(s_begin, local_off, nbytes, access.kind,
                                     locator=access.file_id, fragments=fragments)
            end = max(end, s_end, fs_end)
        return end

    def peak_bw(self, kind: str) -> float:
        # eq. (4) over all OSSes (system-wide capacity).
        return sum(ion.peak_bw(kind) for ion in self.ions)

    def fingerprint(self) -> tuple:
        return ("Lustre", self.stripe_bytes, self.stripe_count,
                self.mds_overhead_ms, self.per_stripe_overhead_ms,
                self.interleave_seek_factor,
                tuple(ion.fingerprint() for ion in self.ions))
