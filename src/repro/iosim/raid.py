"""Block-level volumes: JBOD and RAID 0/1/5/6/10 -- healthy and degraded.

A :class:`Volume` turns one logical transfer into member-disk transfers
(fork/join: the volume transfer completes when the slowest member does)
and reports peak streaming bandwidth for the IOzone-style device
characterization (eq. 3).  RAID 5 models the classic behaviours:

* full-stripe writes cost ``n/(n-1)`` extra traffic for parity;
* sub-stripe writes pay read-modify-write (data+parity read, then
  written back -- 4 accesses for 2).

**Degraded modes.**  Every volume tracks a set of failed members --
either statically (:meth:`Volume.fail_disk`, the "a disk died before
the study" scenario used by ``repro.faults.degraded``) or dynamically
through an installed :class:`~repro.faults.plan.FaultPlan` (fail-stop
windows in virtual time).  The levels degrade the way real arrays do:

* **JBOD** loses the files living on the dead member outright
  (:class:`~repro.faults.plan.DataLossError` on access); survivors are
  unaffected.
* **RAID 0** loses everything: any transfer on a degraded stripe set
  raises.
* **RAID 1** runs on the surviving mirror(s): writes stop paying the
  dead member, reads lose its spindle.
* **RAID 5** tolerates one dead member.  Reads become reconstruct-reads
  touching all ``n-1`` survivors with aggregate traffic amplified by
  ``(n-1)/(n-2)``; full-stripe writes drop the dead member's share.
  :meth:`RAID5.start_rebuild` additionally charges every foreground
  member transfer ``rebuild_overhead`` extra traffic -- the rebuild
  stream competing with foreground I/O -- until
  :meth:`RAID5.finish_rebuild`.
* **RAID 6** tolerates two dead members with the same reconstruct-read
  model; **RAID 10** tolerates one dead member per mirror pair.

``peak_bw``/``capacity_gb`` reflect the *static* failed set so eqs.
(3)-(5) (BW_PK, SystemUsage) can be evaluated for degraded
configurations; time-varying plan faults only affect transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.faults import DataLossError

from .device import MB, Disk


class Volume:
    """Base class: a set of disks behind one block device."""

    #: How many simultaneous member failures the level survives.
    fault_tolerance: int = 0

    def __init__(self, name: str, disks: list[Disk]):
        if not disks:
            raise ValueError(f"volume {name!r} needs at least one disk")
        seen_ids: set[int] = set()
        for d in disks:
            if id(d) in seen_ids:
                raise ValueError(
                    f"volume {name!r} lists the same Disk instance "
                    f"({d.name!r}) as two members; every member must be a "
                    "distinct Disk (a shared instance would serialize the "
                    "two members on one FCFS queue and double-count its "
                    "capacity)")
            seen_ids.add(id(d))
        self.name = name
        self.disks = disks
        self._failed: set[int] = set()
        # peak_bw memo per kind: every method that changes the static
        # degraded state (fail/restore, start/finish rebuild) clears it.
        self._peak: dict[str, float] = {}

    # -- degraded-state management ------------------------------------------------
    @property
    def failed(self) -> frozenset[int]:
        """Statically failed member indices (see :meth:`fail_disk`)."""
        return frozenset(self._failed)

    @property
    def degraded(self) -> bool:
        return bool(self._failed)

    def fail_disk(self, index: int) -> None:
        """Mark member ``index`` as fail-stopped (static degraded mode)."""
        if not 0 <= index < len(self.disks):
            raise IndexError(
                f"volume {self.name!r} has {len(self.disks)} members; "
                f"cannot fail member {index}")
        self._failed.add(index)
        self._peak.clear()

    def restore_disk(self, index: int) -> None:
        """Bring a failed member back (after a rebuild completed)."""
        self._failed.discard(index)
        self._peak.clear()

    def _dead_at(self, t: float) -> set[int]:
        """Failed members at virtual time ``t``: static + plan-driven
        (read-only: without a plan it is the static set itself)."""
        if faults.ACTIVE:
            return self._failed | faults.plan().failed_members(self.disks, t)
        return self._failed

    def _survivors(self) -> list[Disk]:
        """Statically alive members (for peak_bw/capacity)."""
        return [d for i, d in enumerate(self.disks) if i not in self._failed]

    def _check_tolerance(self, dead: set[int]) -> None:
        if len(dead) > self.fault_tolerance:
            names = ", ".join(self.disks[i].name for i in sorted(dead))
            raise DataLossError(
                self.name, f"{len(dead)} members failed ({names}); "
                f"{type(self).__name__} tolerates {self.fault_tolerance}")

    # -- interface ----------------------------------------------------------------
    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        raise NotImplementedError

    def peak_bw(self, kind: str) -> float:
        """Best-case streaming MB/s of the volume (degraded-aware)."""
        bw = self._peak.get(kind)
        if bw is None:
            bw = self._peak[kind] = self._peak_bw(kind)
        return bw

    def _peak_bw(self, kind: str) -> float:
        raise NotImplementedError

    @property
    def capacity_gb(self) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear queue state only -- degraded state is configuration and
        survives resets (a dead disk stays dead between experiments)."""
        for d in self.disks:
            d.reset()
        self._peak.clear()

    def fingerprint(self) -> tuple:
        """Level + stripe size + member fingerprints + degraded state.

        The failed set is part of the identity: memoized replay results
        must not transfer between a healthy and a degraded array.
        """
        return (type(self).__name__, getattr(self, "stripe_kb", None),
                tuple(sorted(self._failed)),
                getattr(self, "rebuilding", False),
                tuple(d.fingerprint() for d in self.disks))

    def attach_monitor(self, monitor) -> None:
        for d in self.disks:
            d.monitor = monitor


class JBOD(Volume):
    """Independent disks; one logical object lives on one disk.

    ``locator`` (e.g. a file id) picks the member; capacity is the sum.
    A dead member takes its files with it: accesses mapped to it raise
    :class:`DataLossError` while the other members keep serving.
    """

    fault_tolerance = 0  # per-volume; data on survivors is still served

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        i = locator % len(self.disks)
        dead = self._dead_at(start)
        if i in dead:
            raise DataLossError(
                self.name, f"file locator {locator} lived on dead member "
                f"{self.disks[i].name} (JBOD has no redundancy)")
        return self.disks[i].transfer(start, offset, nbytes, kind,
                                      fragments=fragments)

    def _peak_bw(self, kind: str) -> float:
        survivors = self._survivors()
        if not survivors:
            raise DataLossError(self.name, "all members failed")
        # A single stream touches one disk at a time.
        return max(d.peak_bw(kind) for d in survivors)

    @property
    def capacity_gb(self) -> float:
        return sum(d.spec.capacity_gb for d in self._survivors())


class RAID0(Volume):
    """Striping without redundancy: bandwidth scales with member count.

    One dead member destroys the whole stripe set: every transfer on a
    degraded RAID 0 raises :class:`DataLossError`.
    """

    fault_tolerance = 0

    def __init__(self, name: str, disks: list[Disk], stripe_kb: int = 256):
        super().__init__(name, disks)
        self.stripe_kb = stripe_kb

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        self._check_tolerance(self._dead_at(start))
        n = len(self.disks)
        per_disk = nbytes / n
        member_off = offset // n
        return max(d.transfer(start, member_off, int(per_disk) or 1, kind,
                              fragments=fragments)
                   for d in self.disks)

    def _peak_bw(self, kind: str) -> float:
        self._check_tolerance(self._failed)
        return sum(d.peak_bw(kind) for d in self.disks)

    @property
    def capacity_gb(self) -> float:
        return sum(d.spec.capacity_gb for d in self.disks)


class RAID1(Volume):
    """Mirroring: writes hit every member, reads are load-balanced.

    Degraded mode runs on the surviving mirror(s): writes stop paying
    the dead member, reads lose its spindle.  All mirrors dead = data
    loss.
    """

    def __init__(self, name: str, disks: list[Disk]):
        super().__init__(name, disks)
        self.fault_tolerance = len(disks) - 1

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        dead = self._dead_at(start)
        alive = [d for i, d in enumerate(self.disks) if i not in dead]
        if not alive:
            raise DataLossError(self.name, "every mirror failed")
        if kind == "write":
            return max(d.transfer(start, offset, nbytes, kind,
                                  fragments=fragments)
                       for d in alive)
        per_disk = max(1, nbytes // len(alive))
        return max(d.transfer(start, offset, per_disk, kind,
                              fragments=fragments)
                   for d in alive)

    def _peak_bw(self, kind: str) -> float:
        survivors = self._survivors()
        if not survivors:
            raise DataLossError(self.name, "every mirror failed")
        if kind == "write":
            return min(d.peak_bw(kind) for d in survivors)
        return sum(d.peak_bw(kind) for d in survivors)

    @property
    def capacity_gb(self) -> float:
        survivors = self._survivors()
        if not survivors:
            return 0.0
        return min(d.spec.capacity_gb for d in survivors)


class _ParityVolume(Volume):
    """Shared degraded/rebuild machinery of RAID 5 and RAID 6."""

    #: Extra fraction of traffic each member carries while rebuilding
    #: (the rebuild stream competing with foreground I/O).
    rebuild_overhead: float = 0.25

    def __init__(self, name: str, disks: list[Disk], stripe_kb: int = 256):
        super().__init__(name, disks)
        self.stripe_kb = stripe_kb
        self.rebuilding = False

    def start_rebuild(self, overhead: float | None = None) -> None:
        """Enter rebuild mode: the array reconstructs the dead member
        onto a spare, stealing ``overhead`` of every foreground
        transfer's service capacity until :meth:`finish_rebuild`."""
        if overhead is not None:
            if overhead < 0:
                raise ValueError("rebuild overhead must be >= 0")
            self.rebuild_overhead = overhead
        self.rebuilding = True
        self._peak.clear()

    def finish_rebuild(self, restored_member: int | None = None) -> None:
        """Leave rebuild mode; optionally restore the rebuilt member."""
        self.rebuilding = False
        self._peak.clear()
        if restored_member is not None:
            self.restore_disk(restored_member)

    def _inflate(self, nbytes: float) -> int:
        """Foreground bytes inflated by the competing rebuild stream."""
        if self.rebuilding:
            nbytes *= 1.0 + self.rebuild_overhead
        return max(1, int(nbytes))

    def _degraded_read(self, start: float, member_off: int, nbytes: int,
                       dead: set[int], fragments: int) -> float:
        """Reconstruct-read: every survivor serves an amplified share.

        With ``m`` survivors the dead members' data is rebuilt from all
        of them, so aggregate traffic is ``nbytes * m / (m - 1)`` spread
        evenly -- per-survivor share ``nbytes / (m - 1)``.
        """
        alive = [d for i, d in enumerate(self.disks) if i not in dead]
        share = self._inflate(nbytes / (len(alive) - 1))
        return max(d.transfer(start, member_off, share, "read",
                              fragments=fragments)
                   for d in alive)

    def _degraded_rmw(self, start: float, member_off: int, nbytes: int,
                      members: list[int], dead: set[int]) -> float:
        """Read-modify-write when a touched member is dead: reconstruct
        the missing block from every survivor, then write back to the
        surviving members of the set."""
        alive = [d for i, d in enumerate(self.disks) if i not in dead]
        rb = self._inflate(nbytes)
        read_end = max(d.transfer(start, member_off, rb, "read")
                       for d in alive)
        end = read_end
        for i in members:
            if i in dead:
                continue
            end = max(end, self.disks[i].transfer(read_end, member_off, rb,
                                                  "write"))
        return end


class RAID5(_ParityVolume):
    """Rotating-parity stripe over ``n >= 3`` disks; tolerates one dead
    member (degraded + rebuild modes, see the module docstring)."""

    fault_tolerance = 1

    def __init__(self, name: str, disks: list[Disk], stripe_kb: int = 256):
        if len(disks) < 3:
            raise ValueError(
                f"RAID5 volume {name!r} needs at least 3 member disks to "
                f"hold data plus rotating parity, got {len(disks)}")
        super().__init__(name, disks, stripe_kb)

    @property
    def _data_disks(self) -> int:
        return len(self.disks) - 1

    @property
    def full_stripe_bytes(self) -> int:
        return self.stripe_kb * 1024 * self._data_disks

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        disks = self.disks
        n = len(disks)
        data_disks = self._data_disks
        member_off = offset // data_disks
        dead = self._dead_at(start)
        if dead:
            self._check_tolerance(dead)
        if kind == "read":
            if dead:
                return self._degraded_read(start, member_off, nbytes, dead,
                                           fragments)
            per_disk = max(1, int(nbytes / data_disks))
            return max([d.transfer(start, member_off, per_disk, "read",
                                   fragments)
                        for d in disks[:-1]])
        if nbytes >= self.full_stripe_bytes:
            # Full-stripe write: parity computed in memory, each member
            # (including the parity position) writes its share; a dead
            # member's share is simply dropped (rebuilt later).
            share = self._inflate(nbytes / data_disks)
            return max([d.transfer(start, member_off, share, "write",
                                   fragments)
                        for i, d in enumerate(disks) if i not in dead])
        # Read-modify-write: old data + old parity read, new data + parity
        # written -- modelled as doubled traffic on two members.
        data_i, parity_i = locator % n, (locator + 1) % n
        if dead and (data_i in dead or parity_i in dead):
            return self._degraded_rmw(start, member_off, nbytes,
                                      [data_i, parity_i], dead)
        rb = self._inflate(nbytes)
        end = start
        for i in (data_i, parity_i):
            d = disks[i]
            e1 = d.transfer(start, member_off, rb, "read")
            end = max(end, d.transfer(e1, member_off, rb, "write"))
        return end

    def _peak_bw(self, kind: str) -> float:
        self._check_tolerance(self._failed)
        per = self.disks[0].peak_bw(kind)
        if self._failed and kind == "read":
            # Reconstruct-reads: m survivors deliver m-1 disks' worth.
            bw = per * (len(self.disks) - len(self._failed) - 1)
        else:
            bw = per * self._data_disks  # parity overlapped on writes
        if self.rebuilding:
            bw /= 1.0 + self.rebuild_overhead
        return bw

    @property
    def capacity_gb(self) -> float:
        return self.disks[0].spec.capacity_gb * self._data_disks


class RAID6(_ParityVolume):
    """Dual rotating parity over ``n >= 4`` disks (P+Q); tolerates two
    dead members."""

    fault_tolerance = 2

    def __init__(self, name: str, disks: list[Disk], stripe_kb: int = 256):
        if len(disks) < 4:
            raise ValueError(
                f"RAID6 volume {name!r} needs at least 4 member disks for "
                f"data plus P+Q parity, got {len(disks)}")
        super().__init__(name, disks, stripe_kb)

    @property
    def _data_disks(self) -> int:
        return len(self.disks) - 2

    @property
    def full_stripe_bytes(self) -> int:
        return self.stripe_kb * 1024 * self._data_disks

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        member_off = offset // self._data_disks
        dead = self._dead_at(start)
        self._check_tolerance(dead)
        if kind == "read":
            if dead:
                return self._degraded_read(start, member_off, nbytes, dead,
                                           fragments)
            per_disk = max(1, nbytes // self._data_disks)
            return max(d.transfer(start, member_off, per_disk, "read",
                                  fragments=fragments)
                       for d in self.disks[:-2])
        if nbytes >= self.full_stripe_bytes:
            per_disk = max(1, nbytes // self._data_disks)
            return max(d.transfer(start, member_off,
                                  self._inflate(per_disk), "write",
                                  fragments=fragments)
                       for i, d in enumerate(self.disks) if i not in dead)
        # Read-modify-write touches data + P + Q: 6 accesses for 3.
        n = len(self.disks)
        members = [(locator + k) % n for k in range(3)]
        if dead and any(i in dead for i in members):
            return self._degraded_rmw(start, member_off, nbytes, members,
                                      dead)
        end = start
        for i in members:
            d = self.disks[i]
            e1 = d.transfer(start, member_off, self._inflate(nbytes), "read")
            e2 = d.transfer(e1, member_off, self._inflate(nbytes), "write")
            end = max(end, e2)
        return end

    def _peak_bw(self, kind: str) -> float:
        self._check_tolerance(self._failed)
        per = self.disks[0].peak_bw(kind)
        if self._failed and kind == "read":
            bw = per * max(1, len(self.disks) - len(self._failed) - 1)
        else:
            bw = per * self._data_disks
        if self.rebuilding:
            bw /= 1.0 + self.rebuild_overhead
        return bw

    @property
    def capacity_gb(self) -> float:
        return self.disks[0].spec.capacity_gb * self._data_disks


class RAID10(Volume):
    """Striped mirrors over an even number of disks; tolerates one dead
    member per mirror pair (both halves of a pair dead = data loss)."""

    def __init__(self, name: str, disks: list[Disk], stripe_kb: int = 256):
        if len(disks) < 4 or len(disks) % 2:
            raise ValueError(
                f"RAID10 volume {name!r} needs an even number of member "
                f"disks (>= 4) to form mirror pairs, got {len(disks)}")
        super().__init__(name, disks)
        self.stripe_kb = stripe_kb
        self.fault_tolerance = len(disks) // 2

    @property
    def _pairs(self) -> int:
        return len(self.disks) // 2

    def _check_pairs(self, dead: set[int]) -> None:
        for p in range(self._pairs):
            a, b = 2 * p, 2 * p + 1
            if a in dead and b in dead:
                raise DataLossError(
                    self.name, f"both mirrors of pair {p} failed "
                    f"({self.disks[a].name}, {self.disks[b].name})")

    def transfer(self, start: float, offset: int, nbytes: int, kind: str,
                 locator: int = 0, fragments: int = 1) -> float:
        member_off = offset // self._pairs
        dead = self._dead_at(start)
        if dead:
            self._check_pairs(dead)
        alive = [d for i, d in enumerate(self.disks) if i not in dead]
        if kind == "write":
            # Each pair writes its stripe share to its alive mirrors.
            per_pair = max(1, nbytes // self._pairs)
            return max(d.transfer(start, member_off, per_pair, "write",
                                  fragments=fragments)
                       for d in alive)
        # Reads spread over all alive spindles.
        per_disk = max(1, nbytes // len(alive))
        return max(d.transfer(start, member_off, per_disk, "read",
                              fragments=fragments)
                   for d in alive)

    def _peak_bw(self, kind: str) -> float:
        self._check_pairs(self._failed)
        per = self.disks[0].peak_bw(kind)
        if kind == "write":
            return per * self._pairs
        return per * (len(self.disks) - len(self._failed))

    @property
    def capacity_gb(self) -> float:
        return sum(d.spec.capacity_gb for d in self.disks) / 2


@dataclass
class VolumeSummary:
    """What Tables VI/VII report per configuration."""

    level: str
    n_disks: int
    capacity_gb: float
    peak_write_mb_s: float
    peak_read_mb_s: float
    n_failed: int = 0


def summarize(volume: Volume) -> VolumeSummary:
    """Digest a volume into the Tables VI/VII inventory row."""
    return VolumeSummary(
        level=type(volume).__name__,
        n_disks=len(volume.disks),
        capacity_gb=volume.capacity_gb,
        peak_write_mb_s=volume.peak_bw("write"),
        peak_read_mb_s=volume.peak_bw("read"),
        n_failed=len(volume.failed),
    )
