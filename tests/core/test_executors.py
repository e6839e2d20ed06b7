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
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.executors import (
    ClusterExecutor,
    PoolExecutor,
    SerialExecutor,
    get_executor,
)
from repro.core.executors import wire
from repro.core.sweep import JobFailure, SweepJobError, sweep_map
from repro.faults import TransientFault
from repro.faults.resilience import RetryPolicy
from repro.store import CaptureStore, ResultStore

JOBS = {f"job-{i:02d}": (i, 7) for i in range(10)}
EXPECTED = {name: args[0] * args[1] for name, args in JOBS.items()}


def backends(launch_workers, **policy):
    """One instance of each backend under ``policy``; cluster gets two
    real workers."""
    return {
        "serial": SerialExecutor(**policy),
        "pool": PoolExecutor(max_workers=2, **policy),
        "cluster": ClusterExecutor(workers=launch_workers(2), **policy),
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
    for name, ex in backends(launch_workers, raise_on_error=False).items():
        out = sweep_map(operator.truediv, jobs, executor=ex)
        assert out["ok"] == 4.0 and out["ok2"] == 3.0, name
        failure = out["boom"]
        assert isinstance(failure, JobFailure) and not failure, name
        assert "ZeroDivisionError" in failure.error, name
        assert failure.traceback, name


def test_checkpoint_resume_across_backends(tmp_path, launch_workers):
    """Checkpoints written by one backend resume on any other."""
    ckpt = tmp_path / "ckpt"
    partial = dict(list(JOBS.items())[:4])
    sweep_map(operator.mul, partial,
              executor=SerialExecutor(checkpoint_dir=ckpt))

    expected_resumed = len(partial)
    for name, ex in backends(launch_workers, checkpoint_dir=ckpt,
                             resume=True).items():
        _, reg = obs.enable()
        try:
            out = sweep_map(operator.mul, JOBS, executor=ex)
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


def _characterization_jobs():
    """Two model-extraction jobs whose arguments include TraceColumns."""
    from repro.apps.synthetic import SyntheticParams, synthetic_program
    from repro.simmpi.engine import IdealPlatform
    from repro.tracer.hooks import trace_run

    bundle = trace_run(synthetic_program, 4, IdealPlatform(),
                       SyntheticParams())
    return {f"b{i}": (bundle.columns, bundle.metadata, bundle.nprocs)
            for i in range(2)}


def _model_digests(models: dict) -> dict:
    return {name: json.dumps(m.to_dict(), sort_keys=True)
            for name, m in models.items()}


def test_columns_cross_the_wire_as_trc(launch_workers):
    """Cluster jobs ship TraceColumns as binary .trc blobs and the
    extracted models are bit-identical to the serial path."""
    from repro.core.model import IOModel

    jobs = _characterization_jobs()
    serial = sweep_map(IOModel.from_columns, jobs)
    cluster = sweep_map(IOModel.from_columns, jobs,
                        executor=ClusterExecutor(workers=launch_workers(2)))
    assert _model_digests(serial) == _model_digests(cluster)


def test_pool_models_from_columns_match_serial():
    """Pool jobs pickle their TraceColumns arguments; the models the
    workers extract are bit-identical to the serial ones."""
    from repro.core.model import IOModel

    jobs = _characterization_jobs()
    serial = sweep_map(IOModel.from_columns, jobs)
    pool = sweep_map(IOModel.from_columns, jobs,
                     executor=PoolExecutor(max_workers=2))
    assert _model_digests(serial) == _model_digests(pool)


@pytest.mark.parametrize("executor", [
    PoolExecutor(max_workers=2),
    ClusterExecutor(workers=[("127.0.0.1", 1)]),  # never dialed
], ids=["pool", "cluster"])
def test_unpicklable_job_falls_back_to_serial(executor):
    """A job that cannot be serialized runs in-process, with its
    original arguments, instead of failing the sweep."""
    jobs = {"a": ([1, 2, 3],), "b": ([4],)}
    out = sweep_map(lambda xs: len(xs), jobs, executor=executor)
    assert out == {"a": 3, "b": 1}


_CALLS: list[int] = []


def flaky_double(x):
    """Module-level (picklable): raises TransientFault on its first call
    in this process, then doubles."""
    _CALLS.append(x)
    if len(_CALLS) == 1:
        raise TransientFault("flaky", retry_at=1.0)
    return 2 * x


@pytest.mark.parametrize("case", ["one-job", "unpicklable"])
def test_serial_fallbacks_keep_the_retry_policy(case):
    """The pool's two serial fallbacks -- a one-job sweep and jobs that
    will not pickle -- run in this process under the pool's policy, so
    its retry still absorbs a transient fault."""
    if case == "one-job":
        fn, jobs = flaky_double, {"only": (21,)}
    else:
        fn, jobs = (lambda x: flaky_double(x)), {"only": (21,), "b": (5,)}
    _CALLS.clear()
    out = sweep_map(fn, jobs, executor=PoolExecutor(
        max_workers=2, retry=RetryPolicy(backoff_s=0.0)))
    assert out["only"] == 42
    assert _CALLS[:2] == [21, 21]  # failed, retried in-process
    _CALLS.clear()
    with pytest.raises(SweepJobError, match="TransientFault"):
        sweep_map(fn, jobs, executor=PoolExecutor(max_workers=2))


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


def _sample_payload() -> bytes:
    """A JOB-shaped payload: a function, TraceColumns args, a policy."""
    from repro.tracer.columns import TraceColumns

    cols = TraceColumns(op_table=["open", "write"], rank=[0, 1],
                        file_id=[1, 1], op_code=[0, 1], offset=[0, 64],
                        tick=[1, 2], request_size=[0, 4096],
                        time=[0.4, 0.5], duration=[0.0, 0.1],
                        abs_offset=[0, 64])
    return wire.encode_payload((operator.mul, (cols, 3), RetryPolicy()))


SAMPLE = _sample_payload()


@pytest.mark.parametrize("damaged", [
    b"",
    SAMPLE[:len(SAMPLE) // 2],
    b"\xff" * 40,
], ids=["empty", "half", "huge-counts"])
def test_damaged_payload_raises_wire_error(damaged):
    with pytest.raises(wire.WireError):
        wire.decode_payload(damaged)
    assert issubclass(wire.WireError, ValueError)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_only_wire_error_escapes_decode(data):
    """Truncation, bit flips and oversized blob counts/lengths: a damaged
    payload either still decodes or raises WireError -- nothing else."""
    payload = bytearray(SAMPLE)
    damage = data.draw(st.sampled_from(["truncate", "flip", "count"]))
    if damage == "truncate":
        payload = payload[:data.draw(st.integers(0, len(SAMPLE) - 1))]
    elif damage == "flip":
        for bit in data.draw(st.lists(
                st.integers(0, 8 * len(SAMPLE) - 1), min_size=1,
                max_size=8)):
            payload[bit // 8] ^= 1 << (bit % 8)
    else:  # the blob count (u32 at 0) or the first blob length (u64 at 4)
        at, width = data.draw(st.sampled_from([(0, 4), (4, 8)]))
        value = data.draw(st.integers(0, 2 ** (8 * width) - 1))
        payload[at:at + width] = value.to_bytes(width, "big")
    try:
        wire.decode_payload(bytes(payload))
    except wire.WireError:
        pass


def _damaging_worker() -> tuple[str, int]:
    """A fake worker that answers its first job with an undecodable
    RESULT frame, then idles until the master hangs up."""
    from repro.store.keys import SCHEMA_VERSION

    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        listener.close()
        with conn:
            wire.recv_frame(conn)  # HELLO
            wire.send_json(conn, wire.WELCOME,
                           {"protocol": wire.PROTOCOL_VERSION,
                            "schema": SCHEMA_VERSION, "pid": 0})
            if wire.recv_frame(conn) is not None:  # JOB
                wire.send_frame(conn, wire.RESULT, b"\xff" * 40)
            while conn.recv(1 << 16):
                pass

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[:2]


def test_damaged_result_requeues_like_a_worker_death(launch_workers):
    """An undecodable RESULT drops that worker and requeues its job on
    the others instead of killing the sweep."""
    ex = ClusterExecutor(workers=[_damaging_worker()] + launch_workers(1))
    _, reg = obs.enable()
    try:
        out = sweep_map(operator.mul, JOBS, executor=ex)
        (_, requeues), = reg.get("cluster_requeues_total").samples()
    finally:
        obs.disable()
    assert out == EXPECTED
    assert requeues.value >= 1


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


# -- construction --------------------------------------------------------------

def test_get_executor_builds_named_backends_with_policy(tmp_path):
    """A name plus policy keywords is the one way to build an executor
    from configuration (the CLI and the service's breaker tiers)."""
    retry = RetryPolicy(max_attempts=5)
    for name, cls in (("serial", SerialExecutor), ("pool", PoolExecutor),
                      ("cluster", ClusterExecutor)):
        ex = get_executor(name, retry=retry, timeout_s=2.5,
                          raise_on_error=False, checkpoint_dir=tmp_path,
                          resume=True)
        assert type(ex) is cls
        assert ex.policy() == {"retry": retry, "timeout_s": 2.5,
                               "raise_on_error": False,
                               "checkpoint_dir": tmp_path, "resume": True}
        assert ex.serial().policy() == ex.policy()
    assert get_executor("pool", max_workers=3).max_workers == 3
    assert SerialExecutor().raise_on_error is True
    with pytest.raises(ValueError, match="checkpoint_dir"):
        SerialExecutor(resume=True)


@pytest.mark.parametrize("bad", ["Cluster", " pool ", "threads", "0"])
def test_get_executor_rejects_unknown_names(bad):
    with pytest.raises(ValueError, match="unknown executor"):
        get_executor(bad)


def test_single_job_sweep_stays_serial():
    """A one-job sweep never pays fan-out cost, whatever the backend:
    this cluster's only endpoint is unreachable, and is never dialed."""
    unreachable = ClusterExecutor(workers=[("127.0.0.1", 1)])
    out = sweep_map(operator.mul, {"only": (6, 7)}, executor=unreachable)
    assert out == {"only": 42}


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
