"""In-process daemon tests: the full API surface over real sockets.

Each test builds a :class:`StudyService` on an ephemeral port with its
journal in ``tmp_path`` and talks to it through the real client, so
the wire framing, admission control and worker pool are all exercised;
only the kill -9 legs live elsewhere (``tests/chaos``) because they
need a process to kill.
"""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

from repro.service import ServiceClient, ServiceConfig, StudyService

CHARACTERIZE = {"kind": "characterize", "app": "synthetic", "np": 4}
SELECT_A = {"kind": "select", "app": "synthetic", "np": 4,
            "configs": "configuration-A"}
SELECT_B = {"kind": "select", "app": "synthetic", "np": 4,
            "configs": "configuration-B"}


@pytest.fixture
def service(tmp_path):
    """Factory: start a daemon with overrides; stopped on teardown."""
    started: list[StudyService] = []

    def start(**overrides) -> tuple[StudyService, ServiceClient]:
        overrides.setdefault("journal_dir", tmp_path / "svc")
        daemon = StudyService(ServiceConfig(**overrides))
        host, port = daemon.start()
        started.append(daemon)
        return daemon, ServiceClient(host, port, timeout_s=30)

    yield start
    for daemon in started:
        daemon.stop()


def test_submit_wait_results(service):
    _daemon, client = service()
    assert client.health()["ok"]
    assert client.ready()["ok"]

    sub = client.submit_batch([CHARACTERIZE, SELECT_A])
    assert sub["ok"] and sub["batch"] == "b000001"
    assert sub["deduped"] == 0 and len(sub["requests"]) == 2

    done = client.wait(sub["batch"], timeout_s=60)
    assert done["complete"]
    res = client.results(sub["batch"])
    states = {r["kind"]: r for r in res["requests"]}
    assert states["characterize"]["state"] == "done"
    assert states["select"]["result"]["best"]
    assert all(len(r["output_digest"]) == 64 for r in res["requests"])


def test_duplicate_specs_share_one_request(service):
    _daemon, client = service()
    first = client.submit_batch([SELECT_A])
    client.wait(first["batch"], timeout_s=60)

    again = client.submit_batch([SELECT_A, SELECT_A, SELECT_B])
    assert again["deduped"] == 2  # known request + in-batch duplicate
    rows = again["requests"]
    assert rows[0]["id"] == rows[1]["id"]
    assert rows[0]["state"] == "done"  # answered without re-running
    client.wait(again["batch"], timeout_s=60)
    res = client.results(again["batch"])
    assert res["complete"]
    # The duplicate rows carry the *same* digest as the original run.
    d0 = client.results(first["batch"])["requests"][0]["output_digest"]
    assert res["requests"][0]["output_digest"] == d0


def test_bad_specs_are_refused_not_journaled(service):
    daemon, client = service()
    for bad in ({"app": "nonesuch", "configs": "configuration-A"},
                {"app": "synthetic"},  # select without configs
                {"app": "madbench2", "np": 10,
                 "configs": "configuration-A"}):
        resp = client.submit_batch([bad])
        assert resp["ok"] is False and resp["error"] == "bad_request"
    assert client.submit_batch([])["error"] == "bad_request"
    assert daemon.journal.records() == []  # nothing was admitted


def test_unknown_op_and_unknown_batch(service):
    _daemon, client = service()
    assert client.call("frobnicate")["error"] == "bad_request"
    assert client.call("_op_status")["error"] == "bad_request"
    assert client.status("b999999")["error"] == "not_found"
    assert client.results("b999999")["error"] == "not_found"
    assert client.wait("b999999")["error"] == "not_found"


def test_overload_gets_deterministic_busy(service):
    _daemon, client = service(workers=1, queue_cap=1, slow_s=0.5,
                              retry_after_s=2.5)
    first = client.submit_batch([SELECT_A])
    assert first["ok"]

    for _ in range(3):  # refusals are stable, not flaky
        busy = client.submit_batch([SELECT_B])
        assert busy == {"ok": False, "error": "busy", "retry_after_s": 2.5,
                        "queue_depth": 1, "queue_cap": 1}

    client.wait(first["batch"], timeout_s=60)
    retried = client.submit_batch([SELECT_B])  # capacity is back
    assert retried["ok"]
    client.wait(retried["batch"], timeout_s=60)
    assert client.status()["busy_total"] == 3


def test_batch_larger_than_capacity_is_bad_request(service):
    _daemon, client = service(queue_cap=1)
    resp = client.submit_batch([SELECT_A, SELECT_B])
    assert resp["error"] == "bad_request"
    assert "capacity" in resp["detail"]


def test_dedup_hits_need_no_queue_slots(service):
    """Resubmitting only known specs is admitted even at capacity."""
    _daemon, client = service(workers=1, queue_cap=2)
    first = client.submit_batch([SELECT_A, CHARACTERIZE])
    client.wait(first["batch"], timeout_s=60)
    resp = client.submit_batch([SELECT_A, CHARACTERIZE])
    assert resp["ok"] and resp["deduped"] == 2


def test_drain_is_graceful_and_idempotent(service):
    # slow_s keeps the accepted job in flight while drain, the second
    # drain, the refused submit and the probes all go through.
    daemon, client = service(workers=1, slow_s=1.0)
    sub = client.submit_batch([SELECT_A])
    first = client.drain()
    assert first["ok"] and first["status"] == "draining"
    second = client.drain()  # idempotent: same answer, no error
    assert second["ok"] and second["status"] == "draining"

    refused = client.submit_batch([SELECT_B])
    assert refused["error"] == "draining"
    assert client.ready()["error"] == "draining"

    assert daemon.wait_drained(timeout_s=60)
    # Accepted work finished despite the drain (the listener is gone by
    # now, so ask the object, not the socket).
    digest = sub["requests"][0]["id"]
    assert daemon._requests[digest].state == "done"


def test_restart_adopts_results_bit_identically(service, tmp_path):
    first, client = service(journal_dir=tmp_path / "svc")
    sub = client.submit_batch([CHARACTERIZE, SELECT_A])
    client.wait(sub["batch"], timeout_s=60)
    reference = {r["id"]: r["output_digest"]
                 for r in client.results(sub["batch"])["requests"]}
    first.stop()

    second, client2 = service(journal_dir=tmp_path / "svc")
    stats = client2.status()
    assert stats["recovered"] == 0  # everything was done: nothing re-runs
    assert stats["completed_total"] == 2
    res = client2.results(sub["batch"])
    assert res["complete"]
    assert {r["id"]: r["output_digest"]
            for r in res["requests"]} == reference


def test_failed_request_is_requeued_on_resubmission(service, monkeypatch):
    import repro.service.daemon as daemon_mod

    real = daemon_mod.run_request
    monkeypatch.setattr(daemon_mod, "run_request",
                        lambda *a, **k: (_ for _ in ()).throw(
                            ValueError("transient modelling bug")))
    _daemon, client = service()
    sub = client.submit_batch([SELECT_A])
    res = client.wait(sub["batch"], timeout_s=30)
    assert res["requests"][0]["state"] == "failed"
    assert "modelling bug" in res["requests"][0]["error"]

    monkeypatch.setattr(daemon_mod, "run_request", real)
    again = client.submit_batch([SELECT_A])
    assert again["deduped"] == 0  # a failed request earns a fresh run
    res = client.wait(again["batch"], timeout_s=60)
    assert res["requests"][0]["state"] == "done"


def test_deadline_is_accepted_and_ignored_by_dedup(service):
    _daemon, client = service()
    a = client.submit_batch([dict(SELECT_A, deadline_s=120)])
    client.wait(a["batch"], timeout_s=60)
    b = client.submit_batch([dict(SELECT_A, deadline_s=5)])
    assert b["deduped"] == 1
    assert b["requests"][0]["id"] == a["requests"][0]["id"]


def test_journal_dir_is_exclusive_to_one_live_daemon(service, tmp_path):
    _daemon, _client = service(journal_dir=tmp_path / "svc")
    # Forge the lockfile to a live *foreign* pid: a second daemon must
    # refuse the journal.  (Same-pid re-entry is allowed -- that is the
    # in-process restart path tested above.)
    other = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        (tmp_path / "svc" / "daemon.pid").write_text(str(other.pid))
        with pytest.raises(RuntimeError, match="live daemon"):
            StudyService(ServiceConfig(journal_dir=tmp_path / "svc")).start()
    finally:
        other.kill()
        other.wait()

    # A stale pid (process long gone) is reclaimed instead.
    (tmp_path / "svc" / "daemon.pid").write_text(str(other.pid))
    reclaimed = StudyService(ServiceConfig(journal_dir=tmp_path / "svc"))
    host, port = reclaimed.start()
    try:
        assert ServiceClient(host, port).health()["ok"]
    finally:
        reclaimed.stop()


def test_status_reports_the_breaker_ladder(service):
    _daemon, client = service(executor=None)
    stats = client.status()
    assert stats["breaker"]["tiers"] == ["serial"]
    assert stats["breaker"]["current"] == "serial"
    assert stats["queue_cap"] == 16 and stats["workers"] == 2


def test_serial_tier_builds_only_serial_executors(service, monkeypatch):
    """The breaker's last-resort tier must not run the backend that just
    failed: whatever the environment names, a ``serial`` tier builds a
    SerialExecutor and nothing else."""
    from repro.core import executors

    built = []
    for cls in (executors.SerialExecutor, executors.PoolExecutor,
                executors.ClusterExecutor):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    monkeypatch.setenv("REPRO_EXECUTOR", "pool")

    _daemon, client = service(executor=None)
    spec = {"kind": "select", "app": "synthetic", "np": 4,
            "configs": ["configuration-A", "configuration-B"]}
    res = client.submit_and_wait([spec], timeout_s=120)
    assert res["requests"][0]["state"] == "done"
    assert built and set(built) == {"SerialExecutor"}


def test_metrics_op(service, tmp_path):
    _daemon, client = service(journal_dir=tmp_path / "plain")
    assert client.metrics()["error"] == "metrics_disabled"
