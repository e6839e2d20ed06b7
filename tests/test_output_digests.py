"""Golden output digests: the pipeline's committed output contract.

Each workload of :mod:`tests.digest_workloads` runs one production path
and its canonical summary must hash to the digest pinned here, bit for
bit -- full studies of MADbench2 and BT-IO (cold and warm-started from
a persistent store), a 2048-repetition phase replay, batch
characterization of a 268,800-event synthetic trace and of a traced
ROMS np=32 run, streamed characterization of a ~1M-event text trace,
cached re-ingest of that trace, a 16-job socket-cluster sweep and a
4096-configuration lattice selection.

Next to the digests sit deterministic work counts: which path did the
work, not how long it took.  Each one trips when the path it guards
regresses -- the line-wise parse fallback, a bypassed parse or
characterization cache, the greedy LAP scan taking over exact tandem
runs, per-job worker spawning, lattice selection falling back to
replays -- and a subprocess probe bounds the streaming path's peak
memory independently of the trace length.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs, store
from repro.core import cache as simcache
from repro.core import lap
from repro.core.model import IOModel
from repro.tracer.columns import TraceColumns, read_trace_columns

from . import digest_workloads as wl

#: sha256 of each workload's canonical summary (``wl.digest``)
DIGESTS = {
    "full_study_madbench2":
        "e0a5ba07dbd78a071f66d6b7a3da0d8388c85b5f3a308336dbb8e96ce530b2cb",
    "full_study_btio":
        "85130b499d66476a6ffded5d6068c7ca87690692ddd6003be437f91d56e61b7f",
    "characterize_synth_large":
        "29b905b35389d5a22d8b367ff4d6d63f8d157b1511d216179d11a91050b7a0a4",
    "characterize_roms_np32":
        "eca02eb7edaeaafe42859b22e534e6ba32a64912bf72deb63c45843cde253b8f",
    "characterize_stream_1m":
        "034e80186279338122fda13eb9fda042a22031706cb785c82666193fc0ea7f58",
    "ingest_1m_warm":
        "2f93736b3c15be8feebb821c9193933957fa82b18d99a602384d4467f454a035",
    "sweep_cluster":
        "fe0ebd611488b786be74f2bf0557269d0165056a0136ddb3281de02b459c5c93",
    "select_lattice_4k":
        "8f81a00fe4b648d5680967959d6df885f5630ea2463b845cb2e2c9fc4a676eab",
}

#: ``float.hex`` of the full replay's bandwidth of ``wl.high_rep_phase()``
REPLAY_HIGH_REP_BW = "0x1.fea3011bc6c6cp+5"

SRC = Path(repro.__file__).resolve().parents[1]


def _count(reg, name: str, **labels) -> float:
    """Sum of a counter family's samples matching ``labels``."""
    fam = reg.get(name)
    if fam is None:
        return 0
    want = {fam.labelnames.index(k): v for k, v in labels.items()}
    return sum(child.value for values, child in fam.samples()
               if all(values[i] == v for i, v in want.items()))


@pytest.fixture
def registry():
    _, reg = obs.enable()
    yield reg
    obs.disable()


@pytest.fixture
def engine_runs(monkeypatch):
    """The simulator runs started while the test runs (one per entry)."""
    from repro.simmpi.engine import Engine

    runs = []
    run = Engine.run

    def counting_run(self, *args, **kwargs):
        runs.append(self.nprocs)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", counting_run)
    return runs


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """The synthetic text bundles: the 268,800-event batch trace, the
    ~1M-event streamed trace and a 150K-event one for the RSS probe."""
    small = round(150_000 / (wl.SYNTH_RANKS * wl.EVENTS_PER_PHASE))
    return wl.write_synth_bundles(tmp_path_factory.mktemp("synth"),
                                  batch=wl.SYNTH_PHASES,
                                  stream=wl.STREAM_PHASES_1M, small=small)


# -- full studies: cold, then warm from the persistent store ------------------

@pytest.mark.parametrize("name, study", [
    ("full_study_madbench2", wl.study_madbench2),
    ("full_study_btio", wl.study_btio),
], ids=["madbench2", "btio"])
def test_full_study_digest_cold_and_warm(name, study, tmp_path, engine_runs):
    store.attach(tmp_path / "store")
    cold = wl.digest(wl.summarize_study(study()))
    assert cold == DIGESTS[name]
    assert engine_runs

    simcache.clear_all()  # the warm leg must come from disk, not memory
    engine_runs.clear()
    warm = wl.digest(wl.summarize_study(study()))
    assert warm == DIGESTS[name]
    assert engine_runs == []
    assert sum(st["disk_hits"] for st in simcache.stats().values()) > 0


def test_full_replay_of_high_rep_phase_is_pinned():
    from repro.core.replayer import replay_phase

    result = replay_phase(wl.high_rep_phase(), wl.steady_cluster())
    assert result.bw_mb_s.hex() == REPLAY_HIGH_REP_BW


# -- batch characterization ---------------------------------------------------

@pytest.fixture(scope="module")
def synth_columns(synth):
    return TraceColumns.concat([
        read_trace_columns(synth["batch"] / f"trace.{rank}")
        for rank in range(wl.SYNTH_RANKS)])


def test_characterize_synth_large_digest(synth_columns, monkeypatch):
    """Every burst of the synthetic trace is one exact tandem run, so no
    row goes through the greedy ``_scan`` (the traced ROMS run, by
    contrast, sends nearly all of its rows there)."""
    scanned = []
    scan = lap._scan

    def counting_scan(lists, s, e, *args):
        scanned.append(e - s)
        return scan(lists, s, e, *args)

    monkeypatch.setattr(lap, "_scan", counting_scan)
    model = IOModel.from_columns(synth_columns, wl.synth_metadata(),
                                 wl.SYNTH_RANKS, app_name="synth_large")
    assert wl.digest(wl.summarize_model(model)) \
        == DIGESTS["characterize_synth_large"]
    assert len(synth_columns) == wl.synth_events(wl.SYNTH_PHASES)
    assert sum(scanned) == 0


@pytest.fixture(scope="module")
def roms_bundle(tmp_path_factory):
    """A traced ROMS np=32 run, re-read from its Fig. 2 text files."""
    from repro.apps.roms import ROMSParams, roms_program
    from repro.tracer.hooks import TraceBundle, trace_run

    bundle = trace_run(roms_program, 32, None,
                       ROMSParams(nsteps=600, history_every=2))
    directory = tmp_path_factory.mktemp("roms_text")
    bundle.save(directory)
    return TraceBundle.load(directory)


def test_characterize_roms_digest_and_warm_store_hit(roms_bundle, tmp_path,
                                                     monkeypatch):
    """The warm re-characterization is a ``"characterize"`` store hit:
    the LAP fold never runs."""
    def characterize():
        return IOModel.from_columns(roms_bundle.columns, roms_bundle.metadata,
                                    roms_bundle.nprocs, app_name="roms")

    store.attach(tmp_path / "store")
    cold = characterize()
    assert wl.digest(wl.summarize_model(cold)) \
        == DIGESTS["characterize_roms_np32"]

    simcache.clear_all()
    folds = []
    fold = lap.LAPFolder._fold

    def counting_fold(self, chunk, final):
        folds.append(len(chunk))
        return fold(self, chunk, final)

    monkeypatch.setattr(lap.LAPFolder, "_fold", counting_fold)
    warm = characterize()
    assert wl.digest(wl.summarize_model(warm)) \
        == DIGESTS["characterize_roms_np32"]
    assert folds == []
    assert simcache.stats()["characterize"]["disk_hits"] == 1


# -- streamed characterization and cached ingest of ~1M events ----------------

#: Subprocess body: stream a text bundle into a model in a fresh
#: interpreter, so ``ru_maxrss`` is this workload's peak alone.
_STREAM_PROBE = """
import json, resource, sys
from repro import obs
from repro.core.model import IOModel
from repro.tracer.hooks import stream_bundle

_, reg = obs.enable()
nprocs, metadata, chunks = stream_bundle(sys.argv[1])
model = IOModel.from_stream(chunks, metadata, nprocs, app_name="synth_stream")
print(json.dumps({
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "nphases": model.nphases,
    "model_json": json.dumps(model.to_dict(), sort_keys=True),
    "rows": {labels[0]: child.value for labels, child
             in reg.get("ingest_rows_total").samples()},
}))
"""


def _stream_probe(directory: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-c", _STREAM_PROBE, str(directory)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def stream_1m(synth):
    return _stream_probe(synth["stream"])


def test_characterize_stream_1m_digest_all_bulk(stream_1m):
    """The ~1M-event stream parses entirely through the bulk kernel."""
    summary = {"nphases": stream_1m["nphases"],
               "model_json": stream_1m["model_json"]}
    assert wl.digest(summary) == DIGESTS["characterize_stream_1m"]
    assert stream_1m["rows"].get("lines", 0) == 0
    assert stream_1m["rows"]["bulk"] == wl.synth_events(wl.STREAM_PHASES_1M)


#: Streaming memory is O(phases + open bursts), not O(events): ~860K
#: extra events may add only the model-sized term (LAP entries plus
#: allocator arena noise, ~25 MB observed).  Materializing them costs
#: ~70 MB as columns and ~200 MB as records.
STREAM_RSS_SLACK_KB = 40_000


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KB on Linux only")
def test_stream_peak_rss_independent_of_event_count(synth, stream_1m):
    """150K vs ~1M streamed events: peak RSS grows by less than the
    slack, so the stream never materializes."""
    small = _stream_probe(synth["small"])
    assert stream_1m["rss_kb"] - small["rss_kb"] <= STREAM_RSS_SLACK_KB, \
        (small["rss_kb"], stream_1m["rss_kb"])


def test_ingest_1m_warm_digest_from_parse_cache(synth, tmp_path, registry):
    """A warm re-ingest loads every file from the parse cache and parses
    no row."""
    from repro.tracer.ingest import ingest_columns

    def ingest():
        return TraceColumns.concat([
            ingest_columns(synth["stream"] / f"trace.{rank}")
            for rank in range(wl.SYNTH_RANKS)])

    store.attach(tmp_path / "store")
    cold = ingest()
    assert _count(registry, "ingest_cache_misses_total") == wl.SYNTH_RANKS
    assert wl.digest(wl.summarize_columns(cold)) == DIGESTS["ingest_1m_warm"]

    simcache.clear_all()
    registry.clear()
    obs.enable(registry=registry)
    warm = ingest()
    assert wl.digest(wl.summarize_columns(warm)) == DIGESTS["ingest_1m_warm"]
    assert _count(registry, "ingest_cache_hits_total") == wl.SYNTH_RANKS
    assert _count(registry, "ingest_cache_misses_total") == 0
    assert _count(registry, "ingest_rows_total") == 0


# -- cluster sweep and lattice selection ---------------------------------------

def test_sweep_cluster_digest_four_workers(monkeypatch):
    """16 jobs on ``ClusterExecutor(spawn=4)`` start exactly 4 workers."""
    from repro.core.executors import ClusterExecutor
    from repro.core.planner import _run_replay_job
    from repro.core.sweep import sweep_map

    started = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *a, **kw):
            if "repro.core.executors.worker" in args:
                started.append(args)
            super().__init__(args, *a, **kw)

    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    jobs = wl.sweep_cluster_jobs()
    results = sweep_map(_run_replay_job, jobs,
                        executor=ClusterExecutor(spawn=4))
    assert wl.digest(wl.summarize_sweep(results)) == DIGESTS["sweep_cluster"]
    assert len(jobs) == 16
    assert len(started) == 4


def test_select_lattice_4k_digest_without_replays(engine_runs):
    """The 4096-configuration selection is analytic: no engine run."""
    from repro.core.estimate import select_configuration
    from repro.core.lattice import ConfigSpace

    space = ConfigSpace()
    choice = select_configuration(wl.lattice_phases(), space.factories(),
                                  lattice=space.params())
    assert wl.digest({"best": choice.best}) == DIGESTS["select_lattice_4k"]
    assert len(space.factories()) == 4096
    assert engine_runs == []
