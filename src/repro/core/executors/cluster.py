"""Socket master/worker sweep backend.

The master (this module) is ephemeral -- one lives inside each
``sweep_map`` call -- and *connects out* to long-lived workers
(:mod:`.worker`) that listen on ``host:port`` endpoints.  Endpoints
come from the ``workers=`` argument, the ``REPRO_CLUSTER_WORKERS``
environment variable (comma-separated ``host:port`` list), or
``spawn=N``, which launches N localhost workers for the duration of
the sweep (the zero-config path used by ``executor="cluster"`` when
nothing else is configured).

Scheduling is a single-threaded readiness loop (:mod:`selectors`):
one outstanding job per worker, results gathered as they arrive.
Determinism does not depend on schedule: jobs are pure functions keyed
by name, so any worker count, completion order, or failure schedule
produces bit-identical result dicts (``sweep_map`` restores the jobs'
insertion order at the end).

Fault model:

* **worker death** (connection drop), **heartbeat silence** longer
  than ``heartbeat_timeout_s``, or a **damaged frame** (a RESULT that
  fails to decode raises :class:`~.wire.WireError`): the worker is
  dropped and its in-flight job is requeued to the remaining workers.
  The requeue budget rides on the executor's
  :class:`~repro.faults.resilience.RetryPolicy` -- ``retry.max_attempts``
  placements per job (default 3) -- after which the job reports a
  :class:`~repro.core.executors.base.JobFailure`.
* **job timeout** (``timeout_s``, timed from dispatch): the job is
  *not* requeued -- it mirrors the pool backend's semantics (a
  timed-out ``JobFailure``) and the stuck worker's connection is
  closed.
* **job exception**: the worker ships ``{name, error, traceback}`` as
  a JSON FAIL frame (post-retry-policy); no requeue, same as serial.
* **all workers gone**: the master finishes the remaining jobs
  serially in-process, so a sweep never dies with its cluster.

Warm starts: ``store_mode="auto"`` shares the master's attached cache
directory with spawned (same-box) workers and falls back to write-back
-- workers capture their store writes in a
:class:`~repro.store.memory.CaptureStore` and return them on RESULT
frames, which the master lands via ``ResultStore.put_encoded`` -- for
explicit endpoints, where a shared filesystem cannot be assumed.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.faults.resilience import RetryPolicy

from . import wire
from .base import Executor, JobFailure, job_failure

__all__ = ["ClusterExecutor", "WORKERS_ENV", "parse_endpoints"]

WORKERS_ENV = "REPRO_CLUSTER_WORKERS"

_DEFAULT_SPAWN_CAP = 4


def parse_endpoints(spec: str) -> list[tuple[str, int]]:
    """``"host:port,host:port"`` -> endpoint list."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port = part.rpartition(":")
        out.append((host or "127.0.0.1", int(port)))
    return out


class _Worker:
    """Master-side view of one connected worker."""

    def __init__(self, sock: socket.socket, endpoint: tuple[str, int]):
        self.sock = sock
        self.endpoint = endpoint
        self.buffer = wire.FrameBuffer()
        self.last_seen = time.monotonic()
        self.job: str | None = None
        self.dispatched_at = 0.0

    @property
    def idle(self) -> bool:
        return self.job is None


class ClusterExecutor(Executor):
    """Master/worker fan-out over sockets."""

    name = "cluster"

    def __init__(self, workers: list[tuple[str, int]] | str | None = None,
                 spawn: int | None = None, store_mode: str = "auto",
                 heartbeat_timeout_s: float = 5.0,
                 connect_timeout_s: float = 10.0, **policy):
        super().__init__(**policy)
        if isinstance(workers, str):
            workers = parse_endpoints(workers)
        self.workers = workers
        self.spawn = spawn
        self.store_mode = store_mode
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s

    # -- worker acquisition ----------------------------------------------------
    def _endpoints(self, njobs: int) -> tuple[list[tuple[str, int]], bool]:
        """Resolve endpoints; second element: spawn localhost workers."""
        if self.workers:
            return list(self.workers), False
        env = os.environ.get(WORKERS_ENV)
        if env and self.spawn is None:
            return parse_endpoints(env), False
        n = self.spawn or min(njobs, os.cpu_count() or 1, _DEFAULT_SPAWN_CAP)
        return [("127.0.0.1", 0)] * max(n, 1), True

    def _spawn_workers(self, n: int) -> tuple[list, list[tuple[str, int]]]:
        env = dict(os.environ)
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_root)
        procs, endpoints = [], []
        for _ in range(n):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.core.executors.worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, env=env, text=True)
            line = (proc.stdout.readline() or "").split()
            if len(line) != 3 or line[0] != "LISTENING":
                proc.kill()
                for p in procs:
                    p.kill()
                raise RuntimeError(
                    "cluster worker failed to start "
                    f"(exit {proc.poll()!r}, said {' '.join(line)!r})")
            procs.append(proc)
            endpoints.append((line[1], int(line[2])))
        return procs, endpoints

    def _store_stanza(self, spawned: bool) -> tuple[str, str | None]:
        from repro import store as result_store

        active = result_store.active()
        mode = self.store_mode
        if mode == "auto":
            if active is None:
                mode = "none"
            elif spawned and active.persistent:
                mode = "shared"
            else:
                mode = "writeback"
        if mode == "shared":
            if active is None or not active.persistent:
                mode = "none"
            else:
                return "shared", str(active.root)
        if mode == "writeback" and active is None:
            mode = "none"
        return mode, None

    def _handshake(self, endpoint: tuple[str, int], store_mode: str,
                   store_root: str | None) -> socket.socket:
        sock = socket.create_connection(endpoint,
                                        timeout=self.connect_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sent = wire.send_json(sock, wire.HELLO,
                              wire.hello_payload(store_mode, store_root))
        frame = wire.recv_frame(sock)
        if frame is None:
            raise ConnectionError(f"worker {endpoint} closed during handshake")
        ftype, payload = frame
        if ftype == wire.ERR:
            detail = json.loads(payload.decode("utf-8")).get("error", "?")
            raise ConnectionError(f"worker {endpoint} refused: {detail}")
        if ftype != wire.WELCOME:
            raise ConnectionError(
                f"worker {endpoint} sent frame type {ftype}, not WELCOME")
        if obs.ACTIVE:
            obs.inc("cluster_bytes_sent_total", amount=sent)
        sock.settimeout(None)
        return sock

    # -- the sweep -------------------------------------------------------------
    def run(self, fn, jobs: Mapping[str, tuple]):
        retry, timeout_s = self.retry, self.timeout_s
        # Encode every payload up front: one encode per job, reused for
        # requeues; anything unpicklable degrades to the serial backend
        # exactly like the pool path.
        try:
            payloads = {
                name: wire.pack_job(name,
                                    wire.encode_payload((fn, args, retry)))
                for name, args in jobs.items()}
        except Exception:
            yield from self.serial().run(fn, jobs)
            return

        endpoints, do_spawn = self._endpoints(len(jobs))
        procs: list = []
        if do_spawn:
            procs, endpoints = self._spawn_workers(len(endpoints))
        budget = (retry or RetryPolicy()).max_attempts

        store_mode, store_root = self._store_stanza(do_spawn)
        sel = selectors.DefaultSelector()
        alive: dict[int, _Worker] = {}
        connect_errors: list[str] = []
        try:
            for endpoint in endpoints:
                try:
                    sock = self._handshake(endpoint, store_mode, store_root)
                except (OSError, ConnectionError) as exc:
                    connect_errors.append(f"{endpoint}: {exc}")
                    continue
                worker = _Worker(sock, endpoint)
                alive[sock.fileno()] = worker
                sel.register(sock, selectors.EVENT_READ, worker)
            if not alive and connect_errors:
                raise ConnectionError(
                    "no cluster worker reachable:\n  "
                    + "\n  ".join(connect_errors))
            if obs.ACTIVE:
                obs.set_gauge("cluster_workers", len(alive))

            pending: deque[str] = deque(jobs)
            attempts: dict[str, int] = {}
            done: set[str] = set()
            total = len(jobs)

            def dispatch(worker: _Worker):
                name = pending.popleft()
                attempts[name] = attempts.get(name, 0) + 1
                worker.job = name
                worker.dispatched_at = time.monotonic()
                try:
                    sent = wire.send_frame(worker.sock, wire.JOB,
                                           payloads[name])
                except OSError:
                    return bury(worker, "died during dispatch")
                if obs.ACTIVE:
                    obs.inc("cluster_bytes_sent_total", amount=sent)
                    obs.set_gauge("cluster_queue_depth", len(pending))
                return None

            def bury(worker: _Worker, reason: str):
                """Drop a dead/stuck worker; requeue or fail its job."""
                sel.unregister(worker.sock)
                del alive[worker.sock.fileno()]
                try:
                    worker.sock.close()
                except OSError:
                    pass
                if obs.ACTIVE:
                    obs.set_gauge("cluster_workers", len(alive))
                name = worker.job
                if name is None or name in done:
                    return None
                if attempts[name] < budget:
                    pending.appendleft(name)
                    if obs.ACTIVE:
                        obs.inc("cluster_requeues_total")
                        obs.set_gauge("cluster_queue_depth", len(pending))
                        obs.event("cluster.requeue", job=name, reason=reason)
                    return None
                done.add(name)
                return job_failure(
                    name, ConnectionError(
                        f"worker {worker.endpoint} {reason} "
                        f"(attempt {attempts[name]}/{budget})"),
                    tb=f"(no traceback: {reason})")

            while len(done) < total:
                if not alive:
                    # Cluster gone: finish what's left in-process.
                    if obs.ACTIVE and (pending or total - len(done)):
                        obs.event("cluster.serial_rescue",
                                  remaining=total - len(done))
                    leftovers = {name: jobs[name] for name in jobs
                                 if name not in done}
                    for name, failure, result in self.serial().run(
                            fn, leftovers):
                        done.add(name)
                        yield name, failure, result
                    return
                for worker in list(alive.values()):
                    if worker.idle and pending:
                        failure = dispatch(worker)
                        if failure is not None:
                            yield failure.name, failure, None

                now = time.monotonic()
                for worker in list(alive.values()):
                    if not worker.idle and timeout_s is not None \
                            and now - worker.dispatched_at > timeout_s:
                        name = worker.job
                        worker.job = None  # not requeued: pool semantics
                        bury(worker, "stuck past timeout")
                        done.add(name)
                        yield name, job_failure(
                            name, TimeoutError(
                                f"job exceeded timeout_s={timeout_s}"),
                            timed_out=True,
                            tb="(no traceback: timed out on a worker)"), None
                    elif not worker.idle and \
                            now - worker.last_seen > self.heartbeat_timeout_s:
                        failure = bury(worker, "heartbeat timeout")
                        if failure is not None:
                            yield failure.name, failure, None

                for key, _ in sel.select(timeout=0.2):
                    worker = key.data
                    if worker.sock.fileno() not in alive:
                        continue
                    try:
                        data = worker.sock.recv(1 << 20)
                    except OSError:
                        data = b""
                    if not data:
                        failure = bury(worker, "died")
                        if failure is not None:
                            yield failure.name, failure, None
                        continue
                    worker.last_seen = time.monotonic()
                    if obs.ACTIVE:
                        obs.inc("cluster_bytes_recv_total", amount=len(data))
                    worker.buffer.feed(data)
                    try:
                        for outcome in self._consume(worker, done):
                            yield outcome
                    except (wire.WireError, ConnectionError) as exc:
                        failure = bury(worker, f"sent a damaged frame ({exc})")
                        if failure is not None:
                            yield failure.name, failure, None
        finally:
            for worker in alive.values():
                try:
                    wire.send_frame(worker.sock,
                                    wire.DRAIN if procs else wire.RELEASE)
                except OSError:
                    pass
                try:
                    worker.sock.close()
                except OSError:
                    pass
            sel.close()
            for proc in procs:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def _consume(self, worker: _Worker, done: set):
        """Yield outcomes for every complete frame buffered on a worker."""
        for ftype, payload in worker.buffer.frames():
            if ftype == wire.HEARTBEAT:
                continue
            if ftype == wire.RESULT:
                name, result, entries = wire.decode_payload(payload)
                self._apply_writebacks(entries)
                if worker.job == name:
                    worker.job = None
                if name in done:
                    continue  # duplicate from a presumed-dead worker
                done.add(name)
                if obs.ACTIVE:
                    obs.observe("cluster_dispatch_latency_seconds",
                                time.monotonic() - worker.dispatched_at)
                yield name, None, result
            elif ftype == wire.FAIL:
                detail = json.loads(payload.decode("utf-8"))
                name = detail["name"]
                if worker.job == name:
                    worker.job = None
                if name in done:
                    continue
                done.add(name)
                if obs.ACTIVE:
                    obs.inc("sweep_job_failures_total", job=name)
                yield name, JobFailure(name=name, error=detail["error"],
                                       traceback=detail["traceback"]), None

    @staticmethod
    def _apply_writebacks(entries) -> None:
        if not entries:
            return
        from repro import store as result_store

        active = result_store.active()
        if active is None:
            return
        for cache, digest, blob in entries:
            active.put_encoded(cache, digest, blob)
