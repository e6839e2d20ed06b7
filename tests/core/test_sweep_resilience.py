"""sweep_map resilience: error policy, retry, checkpoints, resume."""

from __future__ import annotations

import pickle

import pytest

from repro.core.executors import PoolExecutor, SerialExecutor
from repro.core.sweep import (
    JobFailure,
    SweepJobError,
    checkpoint_path,
    sweep_map,
)
from repro.faults import TransientFault
from repro.faults.resilience import RetryPolicy


def double(x):
    return 2 * x


def boom(x):
    raise RuntimeError(f"boom on {x}")


_FLAKY_CALLS: dict[str, int] = {}


def flaky_once(key):
    """Module-level (picklable): fails with TransientFault on first call."""
    n = _FLAKY_CALLS.get(key, 0)
    _FLAKY_CALLS[key] = n + 1
    if n == 0:
        raise TransientFault(key, retry_at=1.0)
    return f"recovered:{key}"


def test_job_failure_is_falsy():
    f = JobFailure(name="j", error="RuntimeError('x')")
    assert not f
    assert [v for v in [f, "real"] if v] == ["real"]


def test_raise_on_error_names_job_and_embeds_traceback():
    with pytest.raises(SweepJobError) as ei:
        sweep_map(boom, {"a": (1,)})
    assert ei.value.job == "a"
    assert "boom on 1" in str(ei.value)
    assert "RuntimeError" in ei.value.job_traceback  # the job's traceback


def test_collect_failures_without_raising():
    results = sweep_map(boom if False else (lambda x: boom(x) if x == 2 else x),
                        {"a": (1,), "b": (2,), "c": (3,)},
                        executor=SerialExecutor(raise_on_error=False))
    assert results["a"] == 1
    assert isinstance(results["b"], JobFailure)
    assert "boom on 2" in results["b"].traceback
    assert results["c"] == 3


def test_retry_policy_recovers_transient_jobs():
    _FLAKY_CALLS.clear()
    retrying = SerialExecutor(retry=RetryPolicy(max_attempts=2, backoff_s=0.0))
    results = sweep_map(flaky_once, {"j1": ("j1",), "j2": ("j2",)},
                        executor=retrying)
    assert results == {"j1": "recovered:j1", "j2": "recovered:j2"}


def test_without_retry_transient_faults_fail_the_job():
    _FLAKY_CALLS.clear()
    with pytest.raises(SweepJobError):
        sweep_map(flaky_once, {"j1": ("j1",)})


def test_checkpoints_written_and_resumed(tmp_path):
    ckpt = tmp_path / "ck"
    first = sweep_map(double, {"a": (1,), "b": (2,)},
                      executor=SerialExecutor(checkpoint_dir=ckpt))
    assert first == {"a": 2, "b": 4}
    assert checkpoint_path(ckpt, "a").exists()

    # Tamper with a checkpoint: resume must trust it (proving no rerun).
    with checkpoint_path(ckpt, "a").open("wb") as f:
        pickle.dump("sentinel", f)
    resumed = sweep_map(double, {"a": (1,), "b": (2,), "c": (3,)},
                        executor=SerialExecutor(checkpoint_dir=ckpt,
                                                resume=True))
    assert resumed == {"a": "sentinel", "b": 4, "c": 6}


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:len(blob) // 2],  # torn write
    lambda blob: b"\x93garbage, not a pickle\x00" * 3,
], ids=["truncated", "garbage"])
def test_corrupt_checkpoint_reruns_the_job(tmp_path, corrupt):
    jobs = {"a": (1,), "b": (2,), "c": (3,)}
    cold = sweep_map(double, jobs)
    ckpt = tmp_path / "ck"
    sweep_map(double, jobs, executor=SerialExecutor(checkpoint_dir=ckpt))
    path = checkpoint_path(ckpt, "b")
    path.write_bytes(corrupt(path.read_bytes()))

    resumed = sweep_map(double, jobs, executor=SerialExecutor(
        checkpoint_dir=ckpt, resume=True))
    assert resumed == cold
    assert pickle.loads(path.read_bytes()) == 4  # overwritten


def test_resume_requires_checkpoint_dir():
    for cls in (SerialExecutor, PoolExecutor):
        with pytest.raises(ValueError, match="needs a checkpoint_dir"):
            cls(resume=True)


def test_checkpoint_names_are_distinct_and_safe(tmp_path):
    a = checkpoint_path(tmp_path, "config/A with spaces")
    b = checkpoint_path(tmp_path, "config/A_with_spaces")
    assert a.name != b.name  # hash disambiguates collapsed characters
    assert "/" not in a.name.replace(str(tmp_path), "")
    assert a.suffix == ".ckpt"


def test_failed_jobs_are_not_checkpointed(tmp_path):
    ckpt = tmp_path / "ck"
    results = sweep_map(lambda x: boom(x) if x == 1 else x,
                        {"bad": (1,), "good": (2,)},
                        executor=SerialExecutor(raise_on_error=False,
                                                checkpoint_dir=ckpt))
    assert isinstance(results["bad"], JobFailure)
    assert not checkpoint_path(ckpt, "bad").exists()
    assert checkpoint_path(ckpt, "good").exists()
    # a later resume retries the failed job
    retried = sweep_map(double, {"bad": (1,), "good": (2,)},
                        executor=SerialExecutor(checkpoint_dir=ckpt,
                                                resume=True))
    assert retried["bad"] == 2
    assert retried["good"] == 2  # from the checkpoint, not double()


def test_parallel_checkpoint_resume_matches_serial(tmp_path):
    jobs = {f"j{i}": (i,) for i in range(4)}
    serial = sweep_map(double, jobs)
    ckpt = tmp_path / "ck"
    parallel = sweep_map(double, jobs, executor=PoolExecutor(
        max_workers=2, checkpoint_dir=ckpt))
    assert parallel == serial
    resumed = sweep_map(double, jobs, executor=PoolExecutor(
        max_workers=2, checkpoint_dir=ckpt, resume=True))
    assert resumed == serial


def test_parallel_timeout_records_timed_out_failure():
    """A timed-out job is reported and its worker terminated: the sweep
    returns long before the job would finish, leaving no child alive."""
    import multiprocessing
    import time

    jobs = {"slow": (10.0,), "fast": (0.0,)}
    before = set(multiprocessing.active_children())
    t0 = time.monotonic()
    results = sweep_map(time.sleep, jobs, executor=PoolExecutor(
        max_workers=2, timeout_s=0.5, raise_on_error=False))
    assert time.monotonic() - t0 < 5.0
    assert isinstance(results["slow"], JobFailure)
    assert results["slow"].timed_out
    assert results["fast"] is None
    assert set(multiprocessing.active_children()) <= before


def test_insertion_order_preserved_with_resume(tmp_path):
    ckpt = tmp_path / "ck"
    jobs = {"z": (1,), "a": (2,), "m": (3,)}
    sweep_map(double, {"a": (2,)}, executor=SerialExecutor(checkpoint_dir=ckpt))
    results = sweep_map(double, jobs, executor=SerialExecutor(
        checkpoint_dir=ckpt, resume=True))
    assert list(results) == ["z", "a", "m"]


def test_pool_times_each_job_from_its_dispatch():
    """Each job's timeout runs from its own submission, not from when
    the sweep gets round to waiting on it: ``b`` and ``c`` overrun a
    0.6-s budget while ``a`` (0.45 s) is still being waited on."""
    import time

    jobs = {"a": (0.45,), "b": (0.9,), "c": (0.9,)}
    t0 = time.monotonic()
    results = sweep_map(time.sleep, jobs, executor=PoolExecutor(
        max_workers=3, timeout_s=0.6, raise_on_error=False))
    assert time.monotonic() - t0 < 2.0
    assert results["a"] is None
    for name in ("b", "c"):
        assert isinstance(results[name], JobFailure), name
        assert results[name].timed_out, name
