"""Executor conformance: serial, pool and localhost cluster backends.

The contract under test: the three backends are interchangeable.  The
same sweep -- including failures, checkpoints/resume, a worker killed
mid-sweep, and TraceColumns payloads -- produces bit-identical result
dicts and digests whichever backend runs it.

Job functions must be importable from the workers' interpreters
(``operator.mul`` & co. and repro's own module-level functions), which
is the production constraint for pool-spawn and cluster modes alike.
"""

from __future__ import annotations

import json
import operator

import pytest

from repro import obs
from repro.core.executors import (
    ClusterExecutor,
    PoolExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.core.executors import wire
from repro.core.sweep import JobFailure, sweep_map
from repro.store import CaptureStore, ResultStore

JOBS = {f"job-{i:02d}": (i, 7) for i in range(10)}
EXPECTED = {name: args[0] * args[1] for name, args in JOBS.items()}


def backends(launch_workers):
    """One instance of each backend; cluster gets two real workers."""
    return {
        "serial": SerialExecutor(),
        "pool": PoolExecutor(max_workers=2),
        "cluster": ClusterExecutor(workers=launch_workers(2)),
    }


# -- conformance ---------------------------------------------------------------

def test_backends_bit_identical(launch_workers):
    results = {name: sweep_map(operator.mul, JOBS, executor=ex)
               for name, ex in backends(launch_workers).items()}
    digests = {name: json.dumps(res, sort_keys=True)
               for name, res in results.items()}
    assert results["serial"] == EXPECTED
    assert digests["serial"] == digests["pool"] == digests["cluster"]
    # Same insertion order everywhere, not just same mapping.
    for res in results.values():
        assert list(res) == list(JOBS)


def test_failure_conformance(launch_workers):
    """A raising job yields the same falsy JobFailure on every backend."""
    jobs = {"ok": (8, 2), "boom": (1, 0), "ok2": (9, 3)}
    for name, ex in backends(launch_workers).items():
        out = sweep_map(operator.truediv, jobs, executor=ex,
                        raise_on_error=False)
        assert out["ok"] == 4.0 and out["ok2"] == 3.0, name
        failure = out["boom"]
        assert isinstance(failure, JobFailure) and not failure, name
        assert "ZeroDivisionError" in failure.error, name
        assert failure.traceback, name


def test_checkpoint_resume_across_backends(tmp_path, launch_workers):
    """Checkpoints written by one backend resume on any other."""
    ckpt = tmp_path / "ckpt"
    partial = dict(list(JOBS.items())[:4])
    sweep_map(operator.mul, partial, checkpoint_dir=ckpt)

    expected_resumed = len(partial)
    for name, ex in backends(launch_workers).items():
        _, reg = obs.enable()
        try:
            out = sweep_map(operator.mul, JOBS, executor=ex,
                            checkpoint_dir=ckpt, resume=True)
            (_, resumed), = reg.get("sweep_jobs_resumed_total").samples()
        finally:
            obs.disable()
        assert out == EXPECTED, name
        assert resumed.value == expected_resumed, name
        expected_resumed = len(JOBS)  # each leg completes the checkpoints


def test_cluster_requeues_after_worker_kill(launch_workers):
    """Conformance under fire: one worker dies mid-sweep, results match.

    The doomed worker dies instead of sending its *first* result: both
    workers are handshaken and handed a job before any result comes
    back, so it always dies holding one, and the requeue is certain
    however fast the healthy worker drains the rest."""
    doomed = launch_workers(1, REPRO_CLUSTER_KILL_AFTER="1")
    healthy = launch_workers(1)
    ex = ClusterExecutor(workers=doomed + healthy)
    _, reg = obs.enable()
    try:
        out = sweep_map(operator.mul, JOBS, executor=ex)
        (_, requeues), = reg.get("cluster_requeues_total").samples()
    finally:
        obs.disable()
    assert out == EXPECTED
    assert requeues.value >= 1


def test_cluster_survives_total_worker_loss(launch_workers):
    """Every worker dying degrades to in-process execution, same result."""
    doomed = launch_workers(2, REPRO_CLUSTER_KILL_AFTER="1")
    out = sweep_map(operator.mul, JOBS, executor=ClusterExecutor(workers=doomed))
    assert out == EXPECTED


def test_select_configuration_conformance(launch_workers):
    from repro.apps.synthetic import SyntheticParams, synthetic_program
    from repro.clusters import ALL_CONFIGURATIONS
    from repro.core.estimate import select_configuration
    from repro.core.pipeline import characterize_app

    factories = {name: ALL_CONFIGURATIONS[name]
                 for name in ("configuration-A", "configuration-B")}
    model, _ = characterize_app(synthetic_program, 4, SyntheticParams(),
                                app_name="synthetic")
    choices = {name: select_configuration(model.phases, factories, executor=ex)
               for name, ex in backends(launch_workers).items()}
    ranks = {name: c.ranking() for name, c in choices.items()}
    assert ranks["serial"] == ranks["pool"] == ranks["cluster"]
    assert choices["serial"].best == choices["cluster"].best


def test_columns_cross_the_wire_as_trc(launch_workers):
    """characterize_bundles ships TraceColumns as binary .trc blobs and
    the extracted models are bit-identical to the serial path."""
    from repro.apps.synthetic import SyntheticParams, synthetic_program
    from repro.core.pipeline import characterize_bundles
    from repro.simmpi.engine import IdealPlatform
    from repro.tracer.hooks import trace_run

    bundles = {f"b{i}": trace_run(synthetic_program, 4, IdealPlatform(),
                                  SyntheticParams())
               for i in range(2)}
    serial = characterize_bundles(bundles)
    cluster = characterize_bundles(
        bundles, executor=ClusterExecutor(workers=launch_workers(2)))
    for name in bundles:
        assert (json.dumps(serial[name].to_dict(), sort_keys=True)
                == json.dumps(cluster[name].to_dict(), sort_keys=True))


# -- wire format ---------------------------------------------------------------

def test_payload_externalizes_columns():
    """TraceColumns never enter the pickle stream: they ride as .trc."""
    from repro.tracer.columns import MAGIC, TraceColumns

    cols = TraceColumns(op_table=["open", "write"], rank=[0, 0],
                        file_id=[1, 1], op_code=[0, 1], offset=[0, 0],
                        tick=[1, 2], request_size=[0, 4096],
                        time=[0.4, 0.5], duration=[0.0, 0.1],
                        abs_offset=[0, 0])
    payload = wire.encode_payload({"a": cols, "b": cols, "n": 3})
    assert payload.count(MAGIC) == 1  # externalized once, deduped
    decoded = wire.decode_payload(payload)
    assert decoded["n"] == 3
    assert decoded["a"].request_size[1] == 4096
    assert list(decoded["a"].op_table) == ["open", "write"]
    # pickling the columns object the normal way embeds its class path;
    # the wire payload must not.
    assert b"TraceColumns" not in payload.split(MAGIC)[0]


def test_frame_buffer_reassembles_partial_feeds():
    frames = (wire.pack_frame(wire.JOB, b"x" * 11)
              + wire.pack_frame(wire.HEARTBEAT)
              + wire.pack_frame(wire.RESULT, b"yz"))
    buf = wire.FrameBuffer()
    seen = []
    for i in range(0, len(frames), 3):  # drip-feed 3 bytes at a time
        buf.feed(frames[i:i + 3])
        seen.extend(buf.frames())
    assert seen == [(wire.JOB, b"x" * 11), (wire.HEARTBEAT, b""),
                    (wire.RESULT, b"yz")]


def test_job_name_rides_outside_the_pickle():
    body = wire.pack_job("replay-abc123", b"\x00payload")
    name, payload = wire.unpack_job(body)
    assert name == "replay-abc123"
    assert payload == b"\x00payload"


def test_handshake_rejects_version_mismatch():
    good = wire.hello_payload("none", None)
    assert wire.check_hello(good) is None
    assert "protocol" in wire.check_hello({**good, "protocol": 99})
    assert "schema" in wire.check_hello({**good, "schema": -1})


# -- resolution ----------------------------------------------------------------

def test_resolve_executor_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert isinstance(resolve_executor(None, False), SerialExecutor)
    assert isinstance(resolve_executor(None, True), PoolExecutor)
    monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
    assert isinstance(resolve_executor(None, False), ClusterExecutor)
    assert isinstance(resolve_executor("serial", True), SerialExecutor)
    inst = PoolExecutor()
    assert resolve_executor(inst, False) is inst
    with pytest.raises(ValueError):
        resolve_executor("carrier-pigeon", False)


def test_resolve_executor_instance_beats_name_env_and_flag(monkeypatch):
    """An Executor instance wins outright, whatever else is set."""
    monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
    inst = SerialExecutor()
    assert resolve_executor(inst, True) is inst
    assert resolve_executor(inst, False) is inst


def test_resolve_executor_name_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
    assert isinstance(resolve_executor("pool", False), PoolExecutor)
    assert isinstance(resolve_executor("serial", True), SerialExecutor)


def test_resolve_executor_env_beats_parallel_flag(monkeypatch):
    """The env var overrides the legacy flag in *both* directions."""
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    assert isinstance(resolve_executor(None, True), SerialExecutor)
    monkeypatch.setenv("REPRO_EXECUTOR", "pool")
    assert isinstance(resolve_executor(None, False), PoolExecutor)


def test_resolve_executor_empty_env_falls_through(monkeypatch):
    """``REPRO_EXECUTOR=`` (set but empty) behaves like unset."""
    monkeypatch.setenv("REPRO_EXECUTOR", "")
    assert isinstance(resolve_executor(None, False), SerialExecutor)
    assert isinstance(resolve_executor(None, True), PoolExecutor)


@pytest.mark.parametrize("bad", ["Cluster", " pool ", "threads", "0"])
def test_resolve_executor_invalid_env_raises(monkeypatch, bad):
    """A bogus env value fails loudly instead of silently going serial."""
    monkeypatch.setenv("REPRO_EXECUTOR", bad)
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor(None, False)


def test_resolve_executor_invalid_name_beats_invalid_env(monkeypatch):
    """The error names the *argument*, not the env var, when both are bad."""
    monkeypatch.setenv("REPRO_EXECUTOR", "bogus-env")
    with pytest.raises(ValueError, match="carrier-pigeon"):
        resolve_executor("carrier-pigeon", False)


def test_single_job_sweep_stays_serial(monkeypatch):
    """A one-job sweep never pays fan-out cost, whatever the backend."""
    calls = []
    monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
    out = sweep_map(operator.mul, {"only": (6, 7)})
    assert out == {"only": 42}
    assert not calls


# -- store plumbing ------------------------------------------------------------

def test_capture_store_records_encoded_writes():
    cap = CaptureStore()
    assert cap.put("ior", ("k", 1), {"bw": 1.5})
    hit, value = cap.get("ior", ("k", 1))
    assert hit and value == {"bw": 1.5}
    entries = cap.drain()
    assert len(entries) == 1
    cache, digest, blob = entries[0]
    assert cache == "ior" and isinstance(blob, bytes)
    assert cap.drain() == []  # drained entries don't reappear
    hit, value = cap.get("ior", ("k", 1))
    assert hit and value == {"bw": 1.5}  # still served from memory


def test_put_encoded_lands_in_disk_store(tmp_path):
    cap = CaptureStore()
    cap.put("ior", ("k", 2), [1, 2, 3])
    disk = ResultStore(tmp_path / "store")
    for cache, digest, blob in cap.drain():
        assert disk.put_encoded(cache, digest, blob)
    hit, value = disk.get("ior", ("k", 2))
    assert hit and value == [1, 2, 3]


def test_writeback_mode_populates_master_store(tmp_path, launch_workers):
    """Store-less workers return their writes; the master lands them."""
    from repro import store
    from repro.apps.synthetic import SyntheticParams, synthetic_program
    from repro.clusters import ALL_CONFIGURATIONS
    from repro.core.estimate import select_configuration
    from repro.core.pipeline import characterize_app

    factories = {name: ALL_CONFIGURATIONS[name]
                 for name in ("configuration-A", "configuration-B")}
    model, _ = characterize_app(synthetic_program, 4, SyntheticParams(),
                                app_name="synthetic")
    rs = store.attach(tmp_path / "cache")
    try:
        select_configuration(
            model.phases, factories,
            executor=ClusterExecutor(workers=launch_workers(2),
                                     store_mode="writeback"))
        stats = rs.stats()
    finally:
        store.detach()
    assert stats.get("ior", {}).get("entries", 0) > 0
