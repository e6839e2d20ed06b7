"""The resilient study service daemon.

A long-lived process that serves ``submit_batch`` study requests over
the socket protocol of :mod:`repro.service.protocol`.  The design goal
is that the *service* survives everything the studies model: a
``kill -9`` loses no acknowledged work (write-ahead journal, atomic
result files, per-request replay checkpoints), overload is refused
deterministically instead of queued unboundedly (admission control ->
BUSY + ``retry_after_s``), dying executor infrastructure degrades
cluster -> pool -> serial through a circuit breaker, and SIGTERM
drains gracefully: accepted work finishes, new work is refused.

Lifecycle::

    daemon = StudyService(ServiceConfig(journal_dir="svc"))
    host, port = daemon.start()     # recovery -> workers -> listener
    ...                             # clients connect
    daemon.initiate_drain()         # or SIGTERM via serve_forever()
    daemon.wait_drained()

State machine per request (content-addressed by its spec digest; the
same spec submitted twice -- same batch or not -- is one request)::

    queued -> running -> done      (result file + DONE journal record)
                      -> failed    (FAILED journal record; resubmission
                                    re-queues it)

Durability contract (what the chaos CI leg asserts): SUBMIT is
journaled+fsynced before the client sees the batch id; DONE is
journaled after the result file is atomically in place.  Recovery
replays the journal, adopts every completed result, and re-enqueues
the rest in submission order -- re-runs resume from the study's last
atomic replay checkpoint and produce bit-identical ``output_digest``.

Chaos hook: ``REPRO_SERVICE_KILL_AFTER=N`` hard-exits the process
(code 29) immediately after journaling the N-th DONE record -- i.e.
mid-batch, after some results are durable and others are in flight.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.executors import wire
from repro.core.executors.base import SweepJobError
from repro.faults.resilience import RetryPolicy
from repro.ioutil import atomic_write_text

from .breaker import INFRA_ERRORS, CircuitBreaker, ladder_for
from .journal import Journal, canonical_json
from .protocol import REQUEST, RESPONSE
from .runner import run_request
from .spec import BadRequest, normalize, spec_digest

__all__ = ["ServiceConfig", "StudyService", "serve_forever",
           "KILL_ENV", "SLOW_ENV", "CHAOS_EXIT_CODE"]

#: Chaos hook: hard-exit after journaling the N-th DONE record.
KILL_ENV = "REPRO_SERVICE_KILL_AFTER"
CHAOS_EXIT_CODE = 29

#: Test hook: wall-clock seconds each job is held before running --
#: makes over-capacity (BUSY) tests deterministic.
SLOW_ENV = "REPRO_SERVICE_SLOW_S"

TERMINAL = ("done", "failed")


@dataclass
class ServiceConfig:
    """Everything a daemon needs; plain data so tests can build them."""

    journal_dir: str | Path = ".repro-service"
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    #: Admission cap on queued + running requests; submissions that
    #: would exceed it get a BUSY response instead of queue space.
    queue_cap: int = 16
    #: Starting executor tier (None -> serial; "pool"/"cluster" degrade
    #: through the circuit breaker when their infrastructure dies).
    executor: str | None = None
    retry: RetryPolicy | None = None
    breaker_threshold: int = 2
    breaker_cooldown_s: float = 30.0
    #: Advisory client backoff carried on BUSY responses.
    retry_after_s: float = 1.0
    #: Attach this persistent result store (warm-start dedup across
    #: requests and restarts); None leaves REPRO_CACHE_DIR behaviour.
    cache_dir: str | None = None
    #: Enable repro.obs so the ``metrics`` op serves Prometheus text.
    metrics: bool = False
    slow_s: float = field(
        default_factory=lambda: float(os.environ.get(SLOW_ENV, "0") or 0))


@dataclass
class _Request:
    digest: str
    spec: dict
    state: str = "queued"  # queued | running | done | failed
    result: dict | None = None
    error: str | None = None

    def public(self, with_result: bool = False) -> dict:
        out = {"id": self.digest, "kind": self.spec["kind"],
               "app": self.spec["app"], "state": self.state}
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["output_digest"] = self.result["output_digest"]
            if with_result:
                out["result"] = self.result
        return out


class StudyService:
    """See the module docstring; one instance per daemon process."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.journal_dir = Path(config.journal_dir)
        self.journal = Journal(self.journal_dir)
        self._results_dir = self.journal_dir / "results"
        self._ckpt_root = self.journal_dir / "ckpt"
        self._breaker = CircuitBreaker(
            ladder_for(config.executor),
            threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque[str] = deque()
        self._requests: dict[str, _Request] = {}
        self._batches: dict[str, list[str]] = {}
        self._seq = 1
        self._running = 0
        self._recovered = 0
        self._busy_rejections = 0
        self._completed = 0
        self._started_at = time.monotonic()
        self._ready = threading.Event()
        self._draining = threading.Event()
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._kill_after = int(os.environ.get(KILL_ENV, "0") or "0")

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Recover, start the worker pool and the listener; returns the
        bound (host, port).  Readiness flips true only after recovery
        completed and workers are accepting jobs."""
        self._acquire_lock()
        if self.config.metrics and not obs.ACTIVE:
            obs.enable()
        if self.config.cache_dir is not None:
            from repro import store

            store.attach(self.config.cache_dir)
        self._recover()
        for i in range(max(1, self.config.workers)):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"svc-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        self._listener = socket.create_server(
            (self.config.host, self.config.port))
        self._listener.settimeout(0.2)
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="svc-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        self._ready.set()
        host, port = self._listener.getsockname()[:2]
        return host, port

    def _acquire_lock(self) -> None:
        """One daemon per journal: a pid lockfile, stale after kill -9."""
        lock = self.journal_dir / "daemon.pid"
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        if lock.exists():
            try:
                pid = int(lock.read_text().strip() or "0")
            except ValueError:
                pid = 0
            if pid > 0 and pid != os.getpid():
                try:
                    os.kill(pid, 0)
                except (ProcessLookupError, PermissionError):
                    pass  # stale: the previous daemon is gone
                else:
                    raise RuntimeError(
                        f"journal {self.journal_dir} is owned by a live "
                        f"daemon (pid {pid}); drain it first")
        atomic_write_text(lock, str(os.getpid()))

    def _recover(self) -> None:
        """Rebuild state from the journal; re-enqueue unfinished work."""
        for rec in self.journal.replay():
            kind = rec.get("rec")
            if kind == "submit":
                self._batches[rec["batch"]] = list(rec["digests"])
                num = int(rec["batch"].lstrip("b") or "0")
                self._seq = max(self._seq, num + 1)
                for spec, digest in zip(rec["specs"], rec["digests"]):
                    req = self._requests.get(digest)
                    if req is None:
                        self._requests[digest] = _Request(digest, spec)
                    elif req.state == "failed":
                        # Resubmitted after a failure: eligible again.
                        req.state, req.error = "queued", None
            elif kind == "done":
                req = self._requests.get(rec["id"])
                if req is None:
                    continue
                result = self._load_result(rec["id"])
                if result is not None and \
                        result.get("output_digest") == rec.get("output_digest"):
                    req.state, req.result, req.error = "done", result, None
                # else: the DONE record outlived its result file; the
                # request stays queued and simply runs again.
            elif kind == "failed":
                req = self._requests.get(rec["id"])
                if req is not None and req.state != "done":
                    req.state, req.error = "failed", rec.get("error", "?")
        for batch in self._batches.values():
            for digest in batch:
                req = self._requests[digest]
                if req.state == "queued" and digest not in self._queue:
                    self._queue.append(digest)
        self._recovered = len(self._queue)
        self._completed = sum(1 for r in self._requests.values()
                              if r.state == "done")
        if obs.ACTIVE:
            if self._recovered:
                obs.inc("service_recovered_total", amount=self._recovered)
            obs.set_gauge("service_queue_depth", len(self._queue))

    def initiate_drain(self) -> dict:
        """Refuse new submissions; let accepted work finish.  Idempotent."""
        first = not self._draining.is_set()
        self._draining.set()
        with self._cond:
            pending = len(self._queue) + self._running
            self._cond.notify_all()
        if first and obs.ACTIVE:
            obs.set_gauge("service_draining", 1)
        if pending == 0:
            self._stop.set()
        return {"ok": True, "status": "draining", "pending": pending}

    def wait_drained(self, timeout_s: float | None = None) -> bool:
        """Block until the drain completed (all work settled)."""
        return self._stop.wait(timeout_s)

    def stop(self) -> None:
        """Hard stop for tests: no drain, just shut the machinery down."""
        self._draining.set()
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        self._close_listener()
        for t in self._threads:
            t.join(timeout=5)
        self.journal.close()

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None

    # -- socket plumbing -------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._serve_connection,
                                 args=(conn,), daemon=True)
            t.start()
        self._close_listener()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                frame = wire.recv_frame(conn)
                if frame is None:
                    return
                ftype, payload = frame
                if ftype != REQUEST:
                    wire.send_json(conn, RESPONSE,
                                   {"ok": False, "error": "bad_request",
                                    "detail": f"unexpected frame type {ftype}"})
                    return
                try:
                    request = json.loads(payload.decode("utf-8"))
                except ValueError as exc:
                    wire.send_json(conn, RESPONSE,
                                   {"ok": False, "error": "bad_request",
                                    "detail": f"undecodable request: {exc}"})
                    return
                wire.send_json(conn, RESPONSE, self.handle(request))
        except (OSError, ConnectionError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- request dispatch ------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Execute one API op; always returns a response dict."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) \
            else None
        if handler is None or (isinstance(op, str) and op.startswith("_")):
            return {"ok": False, "error": "bad_request",
                    "detail": f"unknown op {op!r}"}
        try:
            return handler(request)
        except Exception as exc:  # a handler bug must not kill the daemon
            return {"ok": False, "error": "internal",
                    "detail": repr(exc)}

    # -- API ops ---------------------------------------------------------------
    def _op_submit_batch(self, request: dict) -> dict:
        raw = request.get("requests")
        if not isinstance(raw, list) or not raw:
            return {"ok": False, "error": "bad_request",
                    "detail": "'requests' must be a non-empty list"}
        if self._draining.is_set():
            return {"ok": False, "error": "draining",
                    "detail": "service is draining; resubmit elsewhere"}
        try:
            specs = [normalize(s) for s in raw]
        except BadRequest as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        digests = [spec_digest(s) for s in specs]

        with self._cond:
            if self._draining.is_set():
                # Re-checked under the lock: a drain that races this
                # submission must not let work into a queue no worker
                # will ever service again.
                return {"ok": False, "error": "draining",
                        "detail": "service is draining; resubmit elsewhere"}
            admitted = set()
            new = []
            for spec, digest in zip(specs, digests):
                known = self._requests.get(digest)
                needs_slot = (known is None or known.state == "failed") \
                    and digest not in admitted
                if needs_slot:
                    admitted.add(digest)
                    new.append((spec, digest))
            depth = len(self._queue) + self._running
            if len(new) > self.config.queue_cap:
                return {"ok": False, "error": "bad_request",
                        "detail": f"batch needs {len(new)} slots but the "
                                  f"queue capacity is {self.config.queue_cap}"}
            if depth + len(new) > self.config.queue_cap:
                self._busy_rejections += 1
                if obs.ACTIVE:
                    obs.inc("service_busy_total")
                return {"ok": False, "error": "busy",
                        "retry_after_s": self.config.retry_after_s,
                        "queue_depth": depth,
                        "queue_cap": self.config.queue_cap}

            batch_id = f"b{self._seq:06d}"
            self._seq += 1
            # The point of no return: once this fsync completes the
            # batch survives any crash; only then is it acknowledged.
            self.journal.append({"rec": "submit", "batch": batch_id,
                                 "specs": specs, "digests": digests})
            self._batches[batch_id] = list(digests)
            for spec, digest in new:
                req = self._requests.get(digest)
                if req is None:
                    self._requests[digest] = _Request(digest, spec)
                else:  # failed request resubmitted: run it again
                    req.state, req.error = "queued", None
                self._queue.append(digest)
            dedup = len(digests) - len(new)
            self._cond.notify_all()
            depth = len(self._queue) + self._running
            states = [self._requests[d].public() for d in digests]
        if obs.ACTIVE:
            obs.inc("service_batches_total")
            obs.inc("service_requests_total", amount=len(digests))
            if dedup:
                obs.inc("service_dedup_hits_total", amount=dedup)
            obs.set_gauge("service_queue_depth", depth)
        return {"ok": True, "batch": batch_id, "requests": states,
                "deduped": dedup, "queue_depth": depth}

    def _op_status(self, request: dict) -> dict:
        batch = request.get("batch")
        if batch is not None:
            return self._batch_status(batch, with_results=False)
        with self._lock:
            counts: dict[str, int] = {}
            for req in self._requests.values():
                counts[req.state] = counts.get(req.state, 0) + 1
            return {
                "ok": True,
                "status": "draining" if self._draining.is_set() else "serving",
                "ready": self._ready.is_set() and not self._draining.is_set(),
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "queue_depth": len(self._queue) + self._running,
                "running": self._running,
                "queue_cap": self.config.queue_cap,
                "workers": self.config.workers,
                "batches": len(self._batches),
                "requests": counts,
                "completed_total": self._completed,
                "busy_total": self._busy_rejections,
                "recovered": self._recovered,
                "breaker": self._breaker.state(),
            }

    def _op_results(self, request: dict) -> dict:
        batch = request.get("batch")
        if not batch:
            return {"ok": False, "error": "bad_request",
                    "detail": "'results' needs a batch id"}
        return self._batch_status(batch, with_results=True)

    def _batch_status(self, batch: str, with_results: bool) -> dict:
        with self._lock:
            digests = self._batches.get(batch)
            if digests is None:
                return {"ok": False, "error": "not_found",
                        "detail": f"unknown batch {batch!r}"}
            rows = [self._requests[d].public(with_result=with_results)
                    for d in digests]
        complete = all(r["state"] in TERMINAL for r in rows)
        return {"ok": True, "batch": batch, "requests": rows,
                "complete": complete}

    def _op_wait(self, request: dict) -> dict:
        batch = request.get("batch")
        timeout_s = min(float(request.get("timeout_s", 60.0) or 60.0), 3600.0)
        deadline = time.monotonic() + timeout_s
        with self._cond:
            digests = self._batches.get(batch)
            if digests is None:
                return {"ok": False, "error": "not_found",
                        "detail": f"unknown batch {batch!r}"}
            while True:
                if all(self._requests[d].state in TERMINAL for d in digests):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stop.is_set():
                    break
                self._cond.wait(min(remaining, 0.5))
        return self._batch_status(batch, with_results=False)

    def _op_health(self, request: dict) -> dict:
        return {"ok": True, "status": "alive", "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self._started_at, 3)}

    def _op_ready(self, request: dict) -> dict:
        if self._draining.is_set():
            return {"ok": False, "error": "draining"}
        if not self._ready.is_set():
            return {"ok": False, "error": "recovering"}
        return {"ok": True, "status": "ready"}

    def _op_metrics(self, request: dict) -> dict:
        if not obs.ACTIVE:
            return {"ok": False, "error": "metrics_disabled",
                    "detail": "start the daemon with metrics enabled "
                              "(repro-io serve --metrics)"}
        from repro.obs.export import render_prometheus

        return {"ok": True, "prometheus": render_prometheus(obs.registry())}

    def _op_drain(self, request: dict) -> dict:
        return self.initiate_drain()

    # -- the worker pool -------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            req = self._next_job()
            if req is None:
                self._maybe_finish_drain()
                return
            try:
                self._execute(req)
            except BaseException:
                # A worker must survive anything a job throws at it
                # that _execute failed to classify.
                with self._cond:
                    req.state = "failed"
                    req.error = "internal worker error"
                    self._running -= 1
                    self._cond.notify_all()

    def _next_job(self) -> _Request | None:
        with self._cond:
            while True:
                if self._queue:
                    digest = self._queue.popleft()
                    req = self._requests[digest]
                    req.state = "running"
                    self._running += 1
                    if obs.ACTIVE:
                        obs.set_gauge("service_queue_depth",
                                      len(self._queue) + self._running)
                    return req
                if self._stop.is_set() or self._draining.is_set():
                    return None
                self._cond.wait(0.2)

    def _maybe_finish_drain(self) -> None:
        """Last worker out flips the stop event once everything settled."""
        with self._cond:
            if self._draining.is_set() and not self._queue \
                    and self._running == 0:
                self._stop.set()
                self._cond.notify_all()

    def _execute(self, req: _Request) -> None:
        if self.config.slow_s > 0:
            time.sleep(self.config.slow_s)
        last_exc: BaseException | None = None
        for tier in self._breaker.plan():
            try:
                result = run_request(
                    req.spec, tier=tier, retry=self.config.retry,
                    checkpoint_dir=self._ckpt_root / req.digest)
            except (BadRequest, SweepJobError) as exc:
                # The request itself is broken; no tier will save it.
                self._finish_failed(req, exc)
                return
            except INFRA_ERRORS as exc:
                self._breaker.record_failure(tier)
                last_exc = exc
                continue
            except Exception as exc:
                self._finish_failed(req, exc)
                return
            self._breaker.record_success(tier)
            self._finish_done(req, result)
            return
        self._finish_failed(
            req, last_exc or RuntimeError("no executor tier available"))

    def _result_path(self, digest: str) -> Path:
        return self._results_dir / f"{digest}.json"

    def _load_result(self, digest: str) -> dict | None:
        try:
            return json.loads(self._result_path(digest).read_text())
        except (OSError, ValueError):
            return None

    def _finish_done(self, req: _Request, result: dict) -> None:
        # Durability order: result file first (atomic), then the DONE
        # record that references it -- a record on disk always points
        # at a complete result.
        atomic_write_text(self._result_path(req.digest),
                          canonical_json(result))
        self.journal.append({"rec": "done", "id": req.digest,
                             "output_digest": result["output_digest"]})
        self._completed += 1
        if self._kill_after and self._completed >= self._kill_after:
            os._exit(CHAOS_EXIT_CODE)
        shutil.rmtree(self._ckpt_root / req.digest, ignore_errors=True)
        with self._cond:
            req.state, req.result, req.error = "done", result, None
            self._running -= 1
            self._cond.notify_all()
        if obs.ACTIVE:
            obs.inc("service_completed_total", kind=req.spec["kind"])
            obs.set_gauge("service_queue_depth",
                          len(self._queue) + self._running)

    def _finish_failed(self, req: _Request, exc: BaseException) -> None:
        error = repr(exc)
        self.journal.append({"rec": "failed", "id": req.digest,
                             "error": error})
        with self._cond:
            req.state, req.error = "failed", error
            self._running -= 1
            self._cond.notify_all()
        if obs.ACTIVE:
            obs.inc("service_failures_total", kind=req.spec["kind"])
            obs.set_gauge("service_queue_depth",
                          len(self._queue) + self._running)


def serve_forever(config: ServiceConfig) -> int:
    """Run a daemon until drained (op or SIGTERM); the CLI entry point.

    Prints ``LISTENING host port`` once accepting, so launchers can
    scrape the bound port exactly like ``repro-io workers launch``.
    """
    service = StudyService(config)
    host, port = service.start()
    print(f"LISTENING {host} {port}", flush=True)

    if threading.current_thread() is threading.main_thread():
        def _on_sigterm(signum, frame):
            service.initiate_drain()

        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGINT, _on_sigterm)

    while not service.wait_drained(timeout_s=0.5):
        pass
    service.stop()
    print("DRAINED", flush=True)
    return 0
