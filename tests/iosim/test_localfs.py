"""Local FS: journal overhead, write-back cache, readahead."""

from __future__ import annotations

import pytest

from repro.iosim.device import MB, Disk, DiskSpec
from repro.iosim.localfs import EXT3, EXT4, FSSpec, LocalFS
from repro.iosim.raid import JBOD, RAID5

FAST = dict(seq_write_bw=100.0, seq_read_bw=100.0, seek_ms=0.0,
            rotational_ms=0.0, op_overhead_ms=0.0)


def make_fs(cache_mb=0.0, spec=None, **disk_kw) -> LocalFS:
    params = dict(FAST)
    params.update(disk_kw)
    disk = Disk("d", DiskSpec(**params))
    return LocalFS("fs", JBOD("j", [disk]),
                   spec or FSSpec(op_latency_ms=0.0, journal_write_overhead=0.0),
                   cache_mb=cache_mb)


class TestWrites:
    def test_uncached_write_runs_at_disk_speed(self):
        fs = make_fs(cache_mb=0.0)
        end = fs.transfer(0.0, 0, 100 * MB, "write")
        assert end == pytest.approx(1.0)

    def test_cache_absorbs_small_burst(self):
        fs = make_fs(cache_mb=256.0)
        end = fs.transfer(0.0, 0, 10 * MB, "write")
        assert end < 0.02  # memory speed, not 0.1 s of disk time

    def test_cache_overflows_to_disk_speed(self):
        fs = make_fs(cache_mb=64.0)
        t = 0.0
        durations = []
        for i in range(10):
            end = fs.transfer(t, i * 64 * MB, 64 * MB, "write")
            durations.append(end - t)
            t = end
        # First write absorbed; sustained writes converge to disk rate.
        assert durations[0] < 0.1
        assert durations[-1] == pytest.approx(64 / 100, rel=0.2)

    def test_journal_overhead_slows_writes(self):
        plain = make_fs(cache_mb=0.0)
        journaled = make_fs(cache_mb=0.0,
                            spec=FSSpec(op_latency_ms=0.0,
                                        journal_write_overhead=0.10))
        t_plain = plain.transfer(0.0, 0, 100 * MB, "write")
        t_j = journaled.transfer(0.0, 0, 100 * MB, "write")
        assert t_j == pytest.approx(t_plain * 1.10, rel=0.01)

    def test_peak_bw_accounts_for_journal(self):
        fs = make_fs(spec=FSSpec(op_latency_ms=0.0, journal_write_overhead=0.25))
        assert fs.peak_bw("write") == pytest.approx(80.0)
        assert fs.peak_bw("read") == pytest.approx(100.0)


class TestReads:
    def test_sequential_reads_benefit_from_readahead(self):
        fs = make_fs(spec=FSSpec(op_latency_ms=0.0, journal_write_overhead=0.0,
                                 readahead_benefit=0.5))
        e1 = fs.transfer(0.0, 0, 10 * MB, "read")
        e2 = fs.transfer(e1, 10 * MB, 10 * MB, "read")
        assert (e2 - e1) < e1  # second (sequential) read is cheaper

    def test_ext3_vs_ext4_defaults(self):
        assert EXT3.journal_write_overhead > EXT4.journal_write_overhead
        assert EXT3.op_latency_ms > EXT4.op_latency_ms

    def test_reset_clears_state(self):
        fs = make_fs()
        fs.transfer(0.0, 0, MB, "read")
        fs.reset()
        assert fs._last_read_end is None
        assert fs.volume.disks[0].resource.next_free == 0.0


def raid5() -> RAID5:
    return RAID5("r5", [Disk(f"d{i}") for i in range(4)])


def fast_slow_jbod() -> JBOD:
    # Failing the fast member lowers the JBOD's peak write bandwidth.
    return JBOD("j", [Disk("fast", DiskSpec(seq_write_bw=180.0)),
                      Disk("slow")])


class TestDrainRateFollowsVolumeState:
    """The write-back cache drains at the volume's peak write bandwidth,
    which the volume memoizes: every change of its degraded or rebuild
    state must refresh it.  Each case writes 4 MiB chunks back to back,
    changing the volume's state before some writes; the completion times
    are pinned bit for bit (``float.hex``)."""

    CASES = {
        "start_rebuild": (raid5, 0, [None, lambda v: v.start_rebuild()],
                          ["0x1.9588c600f0c8cp-6", "0x1.62e15ec8d34b0p-5"]),
        "finish_rebuild": (raid5, 0, [lambda v: v.start_rebuild(),
                                      lambda v: v.finish_rebuild()],
                           ["0x1.c614506eecfdep-6", "0x1.d28102102beefp-5"]),
        "fail_restore": (fast_slow_jbod, 1,
                         [None, lambda v: v.fail_disk(0),
                          lambda v: v.restore_disk(0)],
                         ["0x1.ba758157b32d5p-5", "0x1.85d34dbba46e7p-4",
                          "0x1.2df7597c790f3p-3"]),
        "reset": (raid5, 0, [None,
                             lambda v: (v.start_rebuild(), v.reset()),
                             lambda v: (v.finish_rebuild(), v.reset())],
                  ["0x1.9588c600f0c8cp-6", "0x1.adce8b37eee35p-5",
                   "0x1.3c49771c33a3dp-4"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_completion_times(self, case):
        make, locator, steps, expected = self.CASES[case]
        vol = make()
        fs = LocalFS("fs", vol, cache_mb=1.0)
        t, ends = 0.0, []
        for i, step in enumerate(steps):
            if step is not None:
                step(vol)
            t = fs.transfer(t, i * 4 * MB, 4 * MB, "write", locator)
            ends.append(t.hex())
        assert ends == expected

    def test_start_rebuild_between_writes(self):
        # The smallest reproduction: a drain rate cached before the
        # rebuild started gives 0.04424628146136249 here.
        vol = raid5()
        fs = LocalFS("fs", vol, cache_mb=1.0)
        end = fs.transfer(0.0, 0, 4 * MB, "write")
        vol.start_rebuild()
        assert fs.transfer(end, 4 * MB, 4 * MB, "write") == 0.04332035553543656
