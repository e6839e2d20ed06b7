"""The ingest engine vs the record-by-record reference parser.

Every layer of :mod:`repro.tracer.ingest` -- bulk tokenizer blocks, the
exact line parser, byte-range sharding, streaming, the persistent parse
cache -- must give the output of the tests oracle
(``tests/tracer/trace_reference.py``): same columns, same op-table
interning order, same ``content_digest``, same strict errors
(``path:lineno`` exact) and same quarantine reports.  These tests pin
that contract, serial and parallel, on seed-shaped, adversarial and
fuzzed traces.

Parallel legs inject ``SerialExecutor`` so they exercise the shard
protocol (bounds, prefix-summed line numbers, entry replay) without
spawning processes; one smoke test runs a real ``PoolExecutor``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import store
from repro.tracer import ingest
from repro.core.executors.base import SerialExecutor
from repro.tracer.columns import TraceColumns
from repro.tracer.hooks import TraceBundle
from repro.tracer.ingest import (
    CACHE_NAME,
    _cache_key,
    default_jobs,
    ingest_columns,
    ingest_rank_files,
    iter_ingest_chunks,
    parse_jobs,
    resolve_jobs,
)
from repro.tracer.quarantine import QuarantineReport
from repro.tracer.tracefile import HEADER
from tests.tracer.trace_reference import (
    assert_matches_reference,
    assert_same,
    reference_columns,
)

OPS = ["MPI_File_write_at", "MPI_File_read_at", "MPI_File_write_at_all",
       "MPI_File_read", "MPI_File_iwrite_at"]


def trace_text(nrows: int, *, header: bool = True, seed: int = 0) -> str:
    """A deterministic Fig. 2 trace body (no RNG: rows derive from i)."""
    rows = []
    for i in range(nrows):
        k = (i * 7 + seed) % 97
        rows.append(f"{i % 4} {k % 3} {OPS[k % len(OPS)]} {k * 64} "
                    f"{i + 1} {4096 + k} {i * 0.25:.6f} {k * 0.001:.6f} "
                    f"{k * 512}")
    body = "\n".join(rows) + ("\n" if rows else "")
    return (HEADER + "\n" + body) if header else body


def write_trace(tmp_path, text: str, name: str = "trace.0"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSerialParity:
    """Engine output == reference parser output, file by file."""

    def test_clean_trace_matches_classic(self, tmp_path):
        p = write_trace(tmp_path, trace_text(500))
        assert_same(ingest_columns(p), reference_columns(p))

    def test_headerless_trace(self, tmp_path):
        p = write_trace(tmp_path, trace_text(50, header=False))
        assert_same(ingest_columns(p), reference_columns(p))

    def test_crlf_and_no_trailing_newline(self, tmp_path):
        text = trace_text(40).replace("\n", "\r\n").rstrip("\r\n")
        p = write_trace(tmp_path, text)
        assert_same(ingest_columns(p), reference_columns(p))

    def test_empty_file(self, tmp_path):
        p = write_trace(tmp_path, "")
        assert_same(ingest_columns(p), reference_columns(p))

    def test_blank_leading_line_keeps_linenos(self, tmp_path):
        p = write_trace(tmp_path, "\n" + trace_text(10, header=False))
        assert_same(ingest_columns(p), reference_columns(p))

    def test_legacy_8_field_rows(self, tmp_path):
        rows = [r.rsplit(" ", 1)[0]
                for r in trace_text(20, header=False).splitlines()]
        p = write_trace(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        et = {0: 8, 1: 4, 2: 16}
        assert_same(ingest_columns(p, etype_size=et),
                    reference_columns(p, etype_size=et))

    def test_strict_error_names_exact_line(self, tmp_path):
        lines = trace_text(30).splitlines()
        lines[11] = "this is garbage"
        p = write_trace(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError) as eng:
            ingest_columns(p)
        with pytest.raises(ValueError) as ref:
            reference_columns(p)
        assert str(eng.value) == str(ref.value)
        assert f"{p}:12:" in str(eng.value)

    def test_quarantine_report_identical(self, tmp_path):
        lines = trace_text(60).splitlines()
        lines[7] = "bad row"
        lines[33] = "1 2 MPI_File_read_at nope 3 4 0.1 0.1 0"
        p = write_trace(tmp_path, "\n".join(lines) + "\n")
        q_eng, q_ref = QuarantineReport(), QuarantineReport()
        assert_same(ingest_columns(p, quarantine=q_eng),
                    reference_columns(p, quarantine=q_ref))
        assert q_eng.entries == q_ref.entries


class TestInt64Range:
    """Integer fields outside int64 are trace errors, not crashes."""

    BIG = "99999999999999999999"

    def _trace(self, tmp_path, lineno: int, row: str):
        lines = trace_text(30).splitlines()
        lines[lineno - 1] = row
        return write_trace(tmp_path, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("row", [
        f"0 1 MPI_File_write_at {BIG} 5 4096 0.100000 0.001000 0",
        f"0 1 MPI_File_write_at 0 5 4096 0.100000 0.001000 -{BIG}",
        f"{BIG} 1 MPI_File_write_at 0 5 4096 0.100000 0.001000 0",
    ], ids=["offset", "negative-abs-offset", "rank"])
    def test_strict_error_names_line(self, tmp_path, row):
        p = self._trace(tmp_path, 9, row)
        for parse in (ingest_columns, reference_columns):
            with pytest.raises(ValueError, match=rf"{p}:9: .*int64"):
                parse(p)

    def test_quarantine_salvages_the_rest(self, tmp_path):
        p = self._trace(
            tmp_path, 9,
            f"2 1 MPI_File_write_at {self.BIG} 5 4096 0.100000 0.001000 0")
        q_eng, q_ref = QuarantineReport(), QuarantineReport()
        got = ingest_columns(p, quarantine=q_eng)
        assert_same(got, reference_columns(p, quarantine=q_ref))
        assert len(got) == 29  # 30 rows, one of them out of range
        assert [(e.lineno, e.rank) for e in q_eng.entries] == [(9, 2)]
        assert "int64" in q_eng.entries[0].reason
        assert q_eng.entries == q_ref.entries

    def test_legacy_row_abs_offset_overflow(self, tmp_path):
        row = f"0 1 MPI_File_write_at {1 << 62} 5 4096 0.100000 0.001000"
        p = self._trace(tmp_path, 4, row)
        with pytest.raises(ValueError, match=rf"{p}:4: .*int64"):
            ingest_columns(p, etype_size=8)
        q = QuarantineReport()
        ingest_columns(p, etype_size=8, quarantine=q)
        assert [e.lineno for e in q.entries] == [4]


class TestShardedParity:
    """jobs > 1: byte-range shards gather to the identical result."""

    # ~18 MB: enough for 4 byte-range shards (MIN_SHARD_BYTES = 4 MiB)
    def big_trace(self, tmp_path, nrows=300_000, corrupt=()):
        lines = trace_text(nrows).splitlines()
        for lineno in corrupt:
            lines[lineno - 1] = f"corrupt row {lineno}"
        return write_trace(tmp_path, "\n".join(lines) + "\n")

    def test_parallel_matches_serial(self, tmp_path):
        p = self.big_trace(tmp_path)
        serial = ingest_columns(p, jobs=1)
        par = ingest_columns(p, jobs=4, executor=SerialExecutor())
        assert_same(par, serial)

    def test_quarantine_merge_deterministic(self, tmp_path):
        # corrupt rows spread across multiple shards: the parallel
        # report must replay in (path, lineno) order, byte-identical
        # to the serial one
        bad = (5, 80_001, 160_002, 240_003, 299_999)
        p = self.big_trace(tmp_path, corrupt=bad)
        q_ser, q_par = QuarantineReport(), QuarantineReport()
        serial = ingest_columns(p, jobs=1, quarantine=q_ser)
        par = ingest_columns(p, jobs=4, executor=SerialExecutor(),
                             quarantine=q_par)
        assert_same(par, serial)
        assert q_par.entries == q_ser.entries
        assert [e.lineno for e in q_par.entries] == list(bad)

    def test_strict_error_from_later_shard(self, tmp_path):
        p = self.big_trace(tmp_path, corrupt=(240_003,))
        with pytest.raises(ValueError) as eng:
            ingest_columns(p, jobs=4, executor=SerialExecutor())
        with pytest.raises(ValueError) as ref:
            reference_columns(p)
        assert str(eng.value) == str(ref.value)

    def test_small_file_never_shards(self, tmp_path):
        # below MIN_SHARD_BYTES the executor must not be consulted
        class Exploding:
            def run(self, *a, **kw):
                raise AssertionError("sharded a tiny file")

        p = write_trace(tmp_path, trace_text(100))
        assert_same(ingest_columns(p, jobs=8, executor=Exploding()),
                    reference_columns(p))

    def test_executor_failure_falls_back_to_serial(self, tmp_path):
        class Broken:
            def run(self, *a, **kw):
                raise RuntimeError("pool died")

        p = self.big_trace(tmp_path)
        assert_same(ingest_columns(p, jobs=4, executor=Broken()),
                    reference_columns(p))

    def test_real_pool_smoke(self, tmp_path):
        from repro.core.executors.pool import PoolExecutor

        p = self.big_trace(tmp_path)
        par = ingest_columns(p, jobs=2, executor=PoolExecutor(max_workers=2))
        assert_same(par, reference_columns(p))


def rank_bundle(tmp_path):
    """Four small per-rank trace files (~12 KB each)."""
    return [write_trace(tmp_path, trace_text(200, seed=r),
                        name=f"trace.{r}") for r in range(4)]


@pytest.fixture
def fan_out_any_size(monkeypatch):
    """Drop the bundle size floor so a tiny bundle takes the fan-out."""
    monkeypatch.setattr(ingest, "MIN_SHARD_BYTES", 1)


@pytest.mark.usefixtures("fan_out_any_size")
class TestRankFiles:
    """Bundle-level fan-out: whole files across the pool."""

    def test_parallel_matches_serial(self, tmp_path):
        paths = rank_bundle(tmp_path)
        serial = ingest_rank_files(paths, jobs=1)
        par = ingest_rank_files(paths, jobs=4, executor=SerialExecutor())
        assert_same(TraceColumns.concat(par), TraceColumns.concat(serial))

    def test_missing_file_notes_match(self, tmp_path):
        paths = rank_bundle(tmp_path)
        paths[2].unlink()
        q_ser, q_par = QuarantineReport(), QuarantineReport()
        serial = ingest_rank_files(paths, jobs=1, quarantine=q_ser)
        par = ingest_rank_files(paths, jobs=4, executor=SerialExecutor(),
                                quarantine=q_par)
        assert q_par.entries == q_ser.entries
        assert len(par) == len(serial) == 3

    def test_missing_file_raises_oserror_strict(self, tmp_path):
        paths = rank_bundle(tmp_path)
        paths[1].unlink()
        with pytest.raises(OSError):
            ingest_rank_files(paths, jobs=4, executor=SerialExecutor())


class TestRankFileFloor:
    """A bundle under ``MIN_SHARD_BYTES`` per job starts no pool, and its
    parts, quarantine entries and strict errors equal the fan-out's."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        from repro.core.executors.pool import PoolExecutor

        def refuse(self, *args, **kwargs):
            raise AssertionError("started a pool for a tiny bundle")

        monkeypatch.setattr(PoolExecutor, "__init__", refuse)

    @staticmethod
    def fanned_out(monkeypatch, paths, **kw):
        with monkeypatch.context() as m:
            m.setattr(ingest, "MIN_SHARD_BYTES", 1)
            return ingest_rank_files(paths, jobs=4,
                                     executor=SerialExecutor(), **kw)

    def test_parts_unchanged(self, tmp_path, monkeypatch, no_pool):
        paths = rank_bundle(tmp_path)
        assert sum(p.stat().st_size for p in paths) < ingest.MIN_SHARD_BYTES
        ref = self.fanned_out(monkeypatch, paths)
        got = ingest_rank_files(paths, jobs=4)
        assert len(got) == len(ref) == 4
        for a, b in zip(got, ref):
            assert_same(a, b)

    def test_quarantine_entries_unchanged(self, tmp_path, monkeypatch,
                                          no_pool):
        paths = rank_bundle(tmp_path)
        paths[2].unlink()
        lines = paths[1].read_text().splitlines()
        lines[5] = "garbage row"
        paths[1].write_text("\n".join(lines) + "\n")
        q_ref, q_got = QuarantineReport(), QuarantineReport()
        ref = self.fanned_out(monkeypatch, paths, quarantine=q_ref)
        got = ingest_rank_files(paths, jobs=4, quarantine=q_got)
        assert q_got.entries == q_ref.entries and len(q_got.entries) == 2
        assert len(got) == len(ref) == 3

    @pytest.mark.parametrize("damage", ["missing", "malformed"])
    def test_strict_errors_unchanged(self, tmp_path, monkeypatch, no_pool,
                                     damage):
        paths = rank_bundle(tmp_path)
        if damage == "missing":
            paths[1].unlink()
        else:
            paths[1].write_text(paths[1].read_text() + "garbage row\n")
        with pytest.raises((OSError, ValueError)) as ref:
            self.fanned_out(monkeypatch, paths)
        with pytest.raises((OSError, ValueError)) as got:
            ingest_rank_files(paths, jobs=4)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)


class TestStreamingChunks:
    def test_chunks_concat_to_classic(self, tmp_path):
        p = write_trace(tmp_path, trace_text(5_000))
        chunks = list(iter_ingest_chunks(p, chunk_rows=777))
        assert all(len(c) <= 777 for c in chunks)
        assert_same(TraceColumns.concat(chunks),
                    reference_columns(p))

    def test_chunks_respect_jobs_materialization(self, tmp_path):
        p = write_trace(tmp_path, trace_text(3_000))
        chunks = list(iter_ingest_chunks(p, chunk_rows=512, jobs=1))
        assert_same(TraceColumns.concat(chunks),
                    reference_columns(p))


class TestParseCache:
    @pytest.fixture(autouse=True)
    def fresh_store(self, tmp_path):
        prev = store.active()
        store.attach(tmp_path / "cache")
        yield
        if prev is not None:
            store.attach(prev.root)
        else:
            store.detach()

    def test_warm_hit_is_identical(self, tmp_path):
        p = write_trace(tmp_path, trace_text(2_000))
        cold = ingest_columns(p)
        assert store.active().stats()["ingest"]["entries"] == 1
        warm = ingest_columns(p)
        assert_same(warm, cold)
        assert_same(warm, reference_columns(p))

    def test_content_change_invalidates(self, tmp_path):
        p = write_trace(tmp_path, trace_text(2_000))
        ingest_columns(p)
        p.write_text(trace_text(2_000, seed=5))
        again = ingest_columns(p)
        assert store.active().stats()["ingest"]["entries"] == 2
        assert_same(again, reference_columns(p))

    def test_etype_size_keys_separately(self, tmp_path):
        rows = [r.rsplit(" ", 1)[0]
                for r in trace_text(50, header=False).splitlines()]
        p = write_trace(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
        a = ingest_columns(p, etype_size={0: 4, 1: 4, 2: 4})
        b = ingest_columns(p, etype_size={0: 8, 1: 8, 2: 8})
        assert store.active().stats()["ingest"]["entries"] == 2
        assert a.content_digest() != b.content_digest()

    def test_quarantine_bypasses_cache(self, tmp_path):
        lines = trace_text(100).splitlines()
        lines[10] = "junk"
        p = write_trace(tmp_path, "\n".join(lines) + "\n")
        q = QuarantineReport()
        ingest_columns(p, quarantine=q)
        assert store.active().stats().get("ingest", {}).get("entries", 0) == 0

    @pytest.mark.parametrize("corrupt", [lambda b: b[:-5],
                                         lambda b: b"REPROTRC1\n[]\n",
                                         lambda b: {"not": "bytes"}],
                             ids=["truncated", "bad-header", "not-bytes"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, corrupt):
        p = write_trace(tmp_path, trace_text(2_000))
        cold = ingest_columns(p)
        key = _cache_key(p.read_bytes(), None)
        _hit, blob = store.active().get(CACHE_NAME, key)
        store.active().put(CACHE_NAME, key, corrupt(blob))
        again = ingest_columns(p)
        assert again.content_digest() == cold.content_digest()
        hit, healed = store.active().get(CACHE_NAME, key)
        assert hit and healed == blob  # re-parsed and overwritten

    def test_cache_false_bypasses(self, tmp_path):
        p = write_trace(tmp_path, trace_text(100))
        ingest_columns(p, cache=False)
        assert store.active().stats().get("ingest", {}).get("entries", 0) == 0


class TestJobsResolution:
    def test_parse_jobs_accepts_ints(self):
        assert parse_jobs(3) == 3
        assert parse_jobs("7") == 7
        assert parse_jobs(" 2 ") == 2

    @pytest.mark.parametrize("bad", [0, -1, "x", "1.5", None, True, ""])
    def test_parse_jobs_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_jobs(bad)

    def test_default_jobs_capped(self):
        assert 1 <= default_jobs() <= 8

    def test_library_default_is_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(2) == 2


class TestServiceSpecJobs:
    def test_jobs_is_qos_not_identity(self):
        """An old client's ``jobs`` field is ignored: dropped from the
        normalized spec, so the digest is unchanged."""
        from repro.service.spec import normalize, spec_digest

        base = normalize({"kind": "characterize", "app": "synthetic",
                          "np": 4})
        for jobs in (4, "many"):
            jobbed = normalize({"kind": "characterize", "app": "synthetic",
                                "np": 4, "jobs": jobs})
            assert jobbed == base
            assert spec_digest(jobbed) == spec_digest(base)


line_strategy = st.one_of(
    st.integers(0, 10_000).map(
        lambda k: f"{k % 8} {k % 3} {OPS[k % len(OPS)]} {k * 64} {k + 1} "
                  f"{4096 + k} {k * 0.25:.6f} {k * 0.001:.6f} {k * 512}"),
    st.just(""),
    st.sampled_from(["garbage", "1 2 3", "a b c d e f g h i",
                     "0 0 MPI_File_read_at -1 1 10 0.1 bad 0"]),
)


class TestHypothesisParity:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(line_strategy, max_size=200), st.booleans())
    def test_random_traces_quarantine_parity(self, tmp_path_factory,
                                             lines, header):
        tmp = tmp_path_factory.mktemp("hyp")
        text = ("\n".join(([HEADER] if header else []) + lines))
        if lines:
            text += "\n"
        p = write_trace(tmp, text)
        q_eng, q_ref = QuarantineReport(), QuarantineReport()
        eng = ingest_columns(p, quarantine=q_eng, cache=False)
        ref = reference_columns(p, quarantine=q_ref)
        assert_same(eng, ref)
        assert q_eng.entries == q_ref.entries


# -- damaged bytes ------------------------------------------------------------

def _small_shards(mp):
    """Shard and block a few-KB file (the defaults need megabytes)."""
    mp.setattr(ingest, "MIN_SHARD_BYTES", 256)
    mp.setattr(ingest, "BLOCK_BYTES", 512)


def _sharded(p, quarantine=None, **kw):
    return ingest_columns(p, quarantine=quarantine, jobs=3,
                          executor=SerialExecutor(), **kw)


def _streamed(p, quarantine=None, **kw):
    return TraceColumns.concat(list(iter_ingest_chunks(
        p, quarantine=quarantine, chunk_rows=7, **kw)))


class TestNonUtf8:
    """One undecodable byte is one bad line, never a raw
    ``UnicodeDecodeError``: strict mode names ``path:lineno``, salvage
    mode keeps every other row, on every text entry point."""

    BAD = b"1 0 MPI_File_write_at 0 3 4096 0.500000 0.001000 \xff0"

    @pytest.fixture
    def bundle(self, tmp_path, monkeypatch):
        """A 2-rank text bundle; trace.1 has one bad byte on line 3."""
        from repro.tracer.metadata import AppMetadata

        _small_shards(monkeypatch)
        d = tmp_path / "bundle"
        d.mkdir()
        (d / "metadata.json").write_text(json.dumps(
            {"nprocs": 2, "metadata": AppMetadata().to_dict()}))
        write_trace(d, trace_text(60, seed=0), name="trace.0")
        lines = trace_text(60, seed=1).encode().splitlines()
        lines[2] = self.BAD
        (d / "trace.1").write_bytes(b"\n".join(lines) + b"\n")
        return d

    LOADS = {
        "serial": ingest_columns,
        "sharded": _sharded,
        "streamed": _streamed,
        "bundle-jobs1": lambda p, quarantine=None: TraceBundle.load(
            p.parent, quarantine=quarantine, jobs=1).columns,
        "bundle-jobs2": lambda p, quarantine=None: TraceBundle.load(
            p.parent, quarantine=quarantine, jobs=2).columns,
    }

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_strict_error_names_path_and_line(self, bundle, load):
        p = bundle / "trace.1"
        with pytest.raises(ValueError) as exc:
            self.LOADS[load](p)
        assert str(exc.value).startswith(
            f"{p}:3: trace line is not valid UTF-8: ")

    @pytest.mark.parametrize("load", sorted(LOADS))
    def test_salvage_quarantines_one_line(self, bundle, load):
        p = bundle / "trace.1"
        q_ref = QuarantineReport()
        ref = reference_columns(p, quarantine=q_ref)
        q = QuarantineReport()
        got = self.LOADS[load](p, quarantine=q)
        if load.startswith("bundle"):
            ref = TraceColumns.concat([reference_columns(p.parent / "trace.0"),
                                       ref])
        assert_same(got, ref)
        assert [(e.lineno, e.rank, e.reason) for e in q.entries] == \
            [(3, 1, "trace line is not valid UTF-8")]
        assert q.entries == q_ref.entries
        assert len(got) == (60 + 59 if load.startswith("bundle") else 59)


def _mutate(data: bytes, edits) -> bytes:
    """Apply ``(kind, position, value)`` edits to a trace's bytes."""
    for kind, pos, value in edits:
        if not data:
            break
        pos %= len(data)
        if kind == "truncate":  # cut the file, usually mid-line
            data = data[:pos]
        elif kind == "flip":  # overwrite one byte
            data = data[:pos] + bytes([value]) + data[pos + 1:]
        else:  # replace one field of one row with an out-of-range int
            lines = data.split(b"\n")
            row = lines[pos % len(lines)].split(b" ")
            row[value % len(row)] = str(
                [1 << 63, -(1 << 63) - 1, 10 ** 20][value % 3]).encode()
            lines[pos % len(lines)] = b" ".join(row)
            data = b"\n".join(lines)
    return data


edit_strategy = st.tuples(st.sampled_from(["truncate", "flip", "bigint"]),
                          st.integers(0, 1 << 20), st.integers(0, 255))


class TestFuzz:
    """Damaged valid traces: truncation, byte flips, oversized ints."""

    @settings(max_examples=80, deadline=None)
    @given(nrows=st.integers(1, 80), header=st.booleans(),
           edits=st.lists(edit_strategy, min_size=1, max_size=4))
    @example(nrows=10, header=True, edits=[("flip", 200, 0xE9)])
    def test_damaged_trace_matches_reference(self, tmp_path_factory, nrows,
                                             header, edits):
        p = tmp_path_factory.mktemp("fuzz") / "trace.0"
        p.write_bytes(_mutate(trace_text(nrows, header=header).encode(),
                              edits))
        with pytest.MonkeyPatch.context() as mp:
            _small_shards(mp)
            for parse in (ingest_columns, _sharded, _streamed):
                assert_matches_reference(parse, p)
