"""Command-line interface: ``repro-io``.

Subcommands mirror the methodology's stages::

    repro-io trace     --app madbench2 --np 16 --out traces/mb2
    repro-io model     --traces traces/mb2 --out mb2.model.json
    repro-io estimate  --model mb2.model.json --config configuration-A
    repro-io usage     --app madbench2 --np 16 --config configuration-A
    repro-io select    --model mb2.model.json --configs configuration-C,finisterrae
    repro-io degraded  --model mb2.model.json --configs configuration-C,finisterrae
    repro-io replay    --model mb2.model.json --config finisterrae
    repro-io signatures --model mb2.model.json
    repro-io profile   --app madbench2 --np 16 --config configuration-A --out prof/
    repro-io cache     stats|clear|warm [--dir .repro-cache]
    repro-io workers   launch|drain [--count 4] [--port-base 7700]
    repro-io serve     --listen 127.0.0.1:7600 --journal svc/
    repro-io submit    --app madbench2 --np 16 --configs configuration-A,... --wait
    repro-io status    [--batch b000001] [--probe health|ready] [--drain]
    repro-io configs

Applications: madbench2, btio-A/B/C/D, synthetic, ior, roms.

``trace``, ``usage`` and ``replay`` accept ``--metrics`` to collect and
print the observability registry; ``profile`` runs the whole usage
pipeline with full instrumentation and writes JSON-lines, Chrome
trace_event and Prometheus artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__, obs
from repro.clusters import ALL_CONFIGURATIONS
from repro.core.estimate import select_configuration
from repro.core.model import IOModel
from repro.core.pipeline import (
    characterize_app,
    characterize_peaks_for,
    estimate_on,
    evaluate,
    measure_on,
)
from repro.core.signatures import classify_model
from repro.core.synthesis import replay_model
from repro.report.tables import configuration_table, phases_table, usage_table
from repro.tracer.columns import numpy_enabled
from repro.tracer.hooks import TraceBundle


def _app_for(name: str, np: int):
    """Resolve an app name to (program, params).

    ``np`` always sets the simulated rank count (the engine runs the
    program on ``np`` ranks); additionally it is threaded into any
    params dataclass that declares an ``np`` field (IOR), so the two
    never disagree.  Process-count constraints (MADbench2 and BT-IO
    need a square count) are validated here, turning what used to be a
    mid-run engine failure into an immediate, readable error.

    The resolution rules live in :func:`repro.service.spec.resolve_app`
    (shared with the study daemon); the CLI converts its
    :class:`~repro.service.spec.BadRequest` into a ``SystemExit``.
    """
    from repro.service.spec import BadRequest, resolve_app

    try:
        return resolve_app(name, np)
    except BadRequest as exc:
        raise SystemExit(str(exc)) from None


def _factory_for(name: str):
    from repro.service.spec import BadRequest, resolve_factories

    try:
        return resolve_factories([name])[name]
    except BadRequest as exc:
        raise SystemExit(str(exc)) from None


def _jobs_type(value: str) -> int:
    """argparse type for ``--jobs``: an integer >= 1, clear error."""
    from repro.tracer.ingest import parse_jobs

    try:
        return parse_jobs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_cli_jobs(args: argparse.Namespace) -> int:
    """Effective ingest fan-out for a CLI command.

    Precedence: ``--jobs`` flag, then a validated ``REPRO_INGEST_JOBS``
    environment variable, then the cpu-count default (capped) -- the
    CLI parallelizes by default; library calls stay serial unless
    asked.
    """
    import os

    from repro.tracer.ingest import ENV_JOBS, default_jobs, parse_jobs

    if getattr(args, "jobs", None) is not None:
        return args.jobs
    env = os.environ.get(ENV_JOBS)
    if env is not None and env.strip():
        try:
            return parse_jobs(env, what=ENV_JOBS)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return default_jobs()


def cmd_trace(args: argparse.Namespace) -> int:
    program, params = _app_for(args.app, args.np)
    model, bundle = characterize_app(program, args.np, params, app_name=args.app)
    out = Path(args.out)
    bundle.save(out, binary=args.binary)
    model.save(out / "model.json")
    print(f"traced {args.app} on {args.np} procs: {bundle.nevents} I/O events")
    if args.binary:
        layout = "columns.npz" if numpy_enabled() else "columns.trc"
    else:
        layout = "trace.<rank>"
    print(f"wrote {out}/{layout}, metadata.json, model.json")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    jobs = _resolve_cli_jobs(args)
    if args.stream:
        if args.quarantine:
            raise SystemExit("--stream cannot salvage corrupt traces; "
                             "drop --quarantine or use the batch loader")
        if args.method != "columnar":
            raise SystemExit("--stream has a single (incremental) "
                             "extraction path; drop --method")
        from repro.core.pipeline import characterize_stream
        model = characterize_stream(args.traces, app_name=args.name,
                                    jobs=jobs)
        if args.out:
            model.save(args.out)
        print(model.describe())
        print()
        print(phases_table(model))
        return 0
    quarantine = None
    if args.quarantine:
        from repro.tracer.quarantine import QuarantineReport
        quarantine = QuarantineReport()
    bundle = TraceBundle.load(args.traces, quarantine=quarantine, jobs=jobs)
    if quarantine:
        print(quarantine.summary())
        print()
    if bundle.nevents == 0:
        raise SystemExit(f"no salvageable I/O events in {args.traces}")
    model = IOModel.from_trace(bundle, app_name=args.name, method=args.method)
    if args.out:
        model.save(args.out)
    print(model.describe())
    print()
    print(phases_table(model))
    return 0


def _load_model(path: str) -> IOModel:
    """``IOModel.load`` for ``--model``: an unreadable file is a usage
    error (argparse's message format, exit 2), not a traceback."""
    try:
        return IOModel.load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"repro-io: error: cannot read model {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2) from None


def cmd_estimate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    factory = _factory_for(args.config)
    report = estimate_on(model, factory, config_name=args.config)
    print(f"I/O time estimation of {model.app_name} on {args.config} (eqs. 1-2):")
    for p in report.phases:
        print(f"  phase {p.phase_id}: BW_CH={p.bw_ch_mb_s:.1f} MB/s  "
              f"Time_io(CH)={p.time_ch:.2f} s")
    print(f"  total Time_io(CH) = {report.total_time_ch:.2f} s")
    return 0


def cmd_usage(args: argparse.Namespace) -> int:
    program, params = _app_for(args.app, args.np)
    factory = _factory_for(args.config)
    model, _ = characterize_app(program, args.np, params, app_name=args.app)
    est = estimate_on(model, factory, config_name=args.config)
    measure, mmodel = measure_on(program, args.np, params,
                                 cluster_factory=factory, app_name=args.app)
    peaks = characterize_peaks_for(factory)
    ev = evaluate(mmodel, est, measure, peaks=peaks)
    print(usage_table(ev))
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    factories = {name: _factory_for(name) for name in args.configs.split(",")}
    executor = args.executor
    if executor == "cluster" and args.workers:
        from repro.core.executors import ClusterExecutor

        executor = ClusterExecutor(workers=args.workers)
    choice = select_configuration(model.phases, factories,
                                  checkpoint_dir=args.checkpoint_dir,
                                  resume=args.resume,
                                  lattice=args.lattice,
                                  executor=executor)
    print(f"estimated total I/O time of {model.app_name} (eq. 1):")
    for name, t in choice.ranking():
        marker = "  <- selected" if name == choice.best else ""
        print(f"  {name}: {t:.2f} s{marker}")
    return 0


def cmd_degraded(args: argparse.Namespace) -> int:
    """Worst-case selection: rank configurations with disks failed."""
    from repro.faults import degraded as deg

    model = _load_model(args.model)
    factories = {name: _factory_for(name) for name in args.configs.split(",")}
    choice = deg.worst_case_selection(model.phases, factories,
                                      rebuild=args.rebuild)
    print(f"degraded-mode study of {model.app_name} "
          f"(one dead disk per I/O node{', rebuild running' if args.rebuild else ''}):")
    for name, nominal, worst in choice.ranking():
        report = choice.reports[name]
        marker = "  <- selected (worst-case)" if name == choice.best else ""
        if name == choice.best_nominal:
            marker += "  <- nominal best"
        worst_s = "DATA LOSS" if worst == float("inf") else f"{worst:.2f} s"
        print(f"  {name}: nominal {nominal:.2f} s, worst-case {worst_s}{marker}")
        for outcome in report.outcomes[1:]:
            if outcome.lost_data:
                print(f"      {outcome.scenario}: DATA LOSS -- {outcome.detail}")
            else:
                print(f"      {outcome.scenario}: {outcome.total_time_ch:.2f} s")
    if choice.best != choice.best_nominal:
        print(f"  note: the nominal ranking would have chosen "
              f"{choice.best_nominal!r}; one disk failure flips the choice "
              f"to {choice.best!r}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    factory = _factory_for(args.config)
    replayed, bundle = replay_model(model, platform=factory())
    print(f"replayed {model.app_name} (synthesized, np={model.np}) "
          f"on {args.config}: {len(bundle.records)} I/O events")
    for ph in replayed.phases:
        bw = ph.weight / (1024 * 1024) / max(ph.duration, 1e-12)
        print(f"  phase {ph.phase_id}: {ph.np} {ph.op_label} rep={ph.rep} "
              f"-> {ph.duration:.3f} s ({bw:.1f} MB/s)")
    total = sum(ph.duration for ph in replayed.phases)
    print(f"  total replayed I/O time = {total:.2f} s")
    return 0


def cmd_signatures(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    sigs = classify_model(model)
    print(f"I/O signatures of {model.app_name} (Byna-style taxonomy):")
    for ph in model.phases:
        sig = sigs[ph.phase_id]
        print(f"  phase {ph.phase_id}: {sig.spatial}, {sig.request_class} "
              f"requests, {sig.repetition}, {sig.parallelism}, "
              f"{sig.sharing} file")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Fully-instrumented usage pipeline + the three export artifacts."""
    from repro.obs.profile import ProfileSession

    program, params = _app_for(args.app, args.np)
    factory = _factory_for(args.config)
    jobs = _resolve_cli_jobs(args)
    with ProfileSession() as prof:
        model, _ = characterize_app(program, args.np, params,
                                    app_name=args.app, jobs=jobs)
        est = estimate_on(model, factory, config_name=args.config)
        measure, mmodel = measure_on(program, args.np, params,
                                     cluster_factory=factory,
                                     app_name=args.app)
        peaks = characterize_peaks_for(factory)
        ev = evaluate(mmodel, est, measure, peaks=peaks)
    paths = prof.write(args.out)
    print(usage_table(ev))
    print()
    print(prof.summary())
    print()
    print(f"profiled {args.app} (np={args.np}) on {args.config}; wrote:")
    for kind, path in paths.items():
        print(f"  {path}  ({kind})")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, clear or pre-populate the persistent result store."""
    from repro import store

    root = Path(args.dir) if args.dir else store.default_root()
    rs = store.ResultStore(root)

    if args.action == "stats":
        stats = rs.stats()
        if not stats:
            print(f"result store {root}: empty")
            return 0
        print(f"result store {root} (schema v{rs.schema}):")
        total_entries = total_bytes = 0
        for cache, st in stats.items():
            print(f"  {cache:<14} {st['entries']:>6} entries  "
                  f"{st['bytes'] / 1024:>10.1f} KiB")
            total_entries += st["entries"]
            total_bytes += st["bytes"]
        print(f"  {'total':<14} {total_entries:>6} entries  "
              f"{total_bytes / 1024:>10.1f} KiB")
        return 0

    if args.action == "clear":
        removed = rs.clear(args.cache)
        what = f"cache {args.cache!r}" if args.cache else "all caches"
        print(f"removed {removed} entries ({what}) from {root}")
        return 0

    # warm: run a study against the store so the next run starts hot
    from repro.core.pipeline import full_study

    store.attach(root)
    try:
        program, params = _app_for(args.app, args.np)
        factories = {name: _factory_for(name)
                     for name in args.configs.split(",")}
        full_study(program, args.np, params, cluster_factories=factories,
                   app_name=args.app)
    finally:
        store.detach()
    stats = rs.stats()
    total = sum(st["entries"] for st in stats.values())
    print(f"warmed {root} with {args.app} (np={args.np}) on "
          f"{len(factories)} configurations: {total} entries in "
          f"{len(stats)} caches")
    return 0


def cmd_workers(args: argparse.Namespace) -> int:
    """Launch or drain socket sweep workers (the cluster executor)."""
    import os
    import socket
    import subprocess

    from repro.core.executors import cluster as cluster_mod
    from repro.core.executors import wire

    if args.action == "drain":
        spec = args.workers or os.environ.get(cluster_mod.WORKERS_ENV, "")
        endpoints = cluster_mod.parse_endpoints(spec)
        if not endpoints:
            print("no workers to drain: pass --workers host:port,... or "
                  f"set {cluster_mod.WORKERS_ENV}", file=sys.stderr)
            return 2
        failed = 0
        for host, port in endpoints:
            try:
                with socket.create_connection((host, port), timeout=5) as s:
                    wire.send_frame(s, wire.DRAIN)
                print(f"drained {host}:{port}")
            except ConnectionRefusedError:
                # Idempotence: nothing listening means the worker is
                # already gone -- a second drain of the same fleet is a
                # success, not an error.
                print(f"{host}:{port} already drained (nothing listening)")
            except OSError as exc:
                print(f"could not drain {host}:{port}: {exc}",
                      file=sys.stderr)
                failed += 1
        return 1 if failed else 0

    # launch: spawn worker processes in the foreground and babysit them.
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src_root)
    procs: list[subprocess.Popen] = []
    endpoints = []
    for i in range(args.count):
        port = args.port_base + i if args.port_base else 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.executors.worker",
             "--listen", f"{args.bind}:{port}"],
            stdout=subprocess.PIPE, env=env, text=True)
        line = (proc.stdout.readline() or "").split()
        if len(line) != 3 or line[0] != "LISTENING":
            for p in procs:
                p.terminate()
            print(f"worker {i} failed to start (exit {proc.poll()!r})",
                  file=sys.stderr)
            return 1
        procs.append(proc)
        endpoints.append(f"{line[1]}:{line[2]}")
        print(f"worker pid={proc.pid} listening on {line[1]}:{line[2]}",
              flush=True)
    print(f"export {cluster_mod.WORKERS_ENV}={','.join(endpoints)}",
          flush=True)
    try:
        for proc in procs:
            proc.wait()
    except KeyboardInterrupt:
        for proc in procs:
            proc.terminate()
    return 0


def _parse_hostport(spec: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    try:
        return host or default_host, int(port)
    except ValueError:
        raise SystemExit(f"expected HOST:PORT, got {spec!r}") from None


def _service_client(args: argparse.Namespace):
    from repro.service.protocol import ServiceClient

    host, port = _parse_hostport(args.server)
    return ServiceClient(host, port, timeout_s=args.timeout)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the study service daemon until drained (SIGTERM or drain op)."""
    from repro.service import ServiceConfig, serve_forever

    from repro.tracer.ingest import ingest_jobs

    host, port = _parse_hostport(args.listen)
    config = ServiceConfig(
        journal_dir=args.journal, host=host, port=port,
        workers=args.workers, queue_cap=args.queue_cap,
        executor=args.executor, cache_dir=args.cache_dir,
        retry_after_s=args.retry_after, metrics=args.metrics)
    # Daemon-wide ingest default; per-request ``jobs`` QoS fields nest
    # inside (the runner re-enters ingest_jobs with the spec's value).
    with ingest_jobs(_resolve_cli_jobs(args)):
        return serve_forever(config)


def _print_batch_rows(rows: list[dict]) -> None:
    for r in rows:
        line = f"  {r['id'][:12]} {r['kind']:<12} {r['app']:<10} {r['state']}"
        if "output_digest" in r:
            line += f"  digest={r['output_digest'][:12]}"
        result = r.get("result")
        if result and "best" in result:
            line += f"  best={result['best']}"
        if "error" in r:
            line += f"  error={r['error']}"
        print(line)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a batch of study requests to a running daemon."""
    import json

    client = _service_client(args)
    if args.batch_file:
        specs = json.loads(Path(args.batch_file).read_text())
        if isinstance(specs, dict):
            specs = specs.get("requests", [specs])
    else:
        if not args.app:
            raise SystemExit("submit needs --app (or --batch-file)")
        spec: dict = {"kind": args.kind, "app": args.app, "np": args.np}
        if args.configs:
            spec["configs"] = args.configs.split(",")
        if args.deadline is not None:
            spec["deadline_s"] = args.deadline
        if args.jobs is not None:
            spec["jobs"] = args.jobs
        specs = [spec]

    resp = client.submit_batch(specs)
    if not resp.get("ok"):
        if resp.get("error") == "busy":
            print(f"BUSY: queue {resp['queue_depth']}/{resp['queue_cap']} "
                  f"full; retry after {resp['retry_after_s']}s",
                  file=sys.stderr)
            return 75  # EX_TEMPFAIL: deterministic backpressure
        print(f"submit refused: {resp.get('error')}: "
              f"{resp.get('detail', '')}", file=sys.stderr)
        return 1
    print(f"batch {resp['batch']}: {len(resp['requests'])} request(s), "
          f"{resp['deduped']} deduped, queue depth {resp['queue_depth']}")
    _print_batch_rows(resp["requests"])
    if not args.wait:
        return 0
    client.wait(resp["batch"], timeout_s=args.timeout)
    res = client.results(resp["batch"])
    if not res.get("ok"):
        print(f"results unavailable: {res.get('error')}", file=sys.stderr)
        return 1
    print(f"batch {resp['batch']} "
          f"{'complete' if res['complete'] else 'still running'}:")
    _print_batch_rows(res["requests"])
    failed = any(r["state"] == "failed" for r in res["requests"])
    return 1 if failed or not res["complete"] else 0


def cmd_status(args: argparse.Namespace) -> int:
    """Probe or inspect a running daemon (health/ready/batch/server)."""
    client = _service_client(args)
    if args.drain:
        resp = client.drain()
        print(f"draining ({resp.get('pending', '?')} request(s) pending)")
        return 0 if resp.get("ok") else 1
    if args.probe:
        try:
            resp = client.health() if args.probe == "health" else client.ready()
        except OSError as exc:
            print(f"{args.probe}: unreachable ({exc})", file=sys.stderr)
            return 1
        ok = bool(resp.get("ok"))
        print(f"{args.probe}: {'ok' if ok else resp.get('error', 'not ok')}")
        return 0 if ok else 1
    if args.batch:
        resp = client.status(args.batch)
        if not resp.get("ok"):
            print(f"status failed: {resp.get('error')}", file=sys.stderr)
            return 1
        print(f"batch {args.batch} "
              f"{'complete' if resp['complete'] else 'in progress'}:")
        _print_batch_rows(resp["requests"])
        return 0
    resp = client.status()
    if not resp.get("ok"):
        print(f"status failed: {resp.get('error')}", file=sys.stderr)
        return 1
    breaker = resp["breaker"]
    print(f"study service on {args.server}: {resp['status']} "
          f"(pid {resp['pid']}, up {resp['uptime_s']:.1f}s)")
    print(f"  queue {resp['queue_depth']}/{resp['queue_cap']} "
          f"({resp['running']} running on {resp['workers']} workers)")
    print(f"  {resp['batches']} batches, {resp['completed_total']} completed, "
          f"{resp['busy_total']} BUSY rejections, "
          f"{resp['recovered']} recovered")
    print(f"  requests by state: {resp['requests'] or '{}'}")
    print(f"  executor tier: {breaker['current']} "
          f"(ladder {'->'.join(breaker['tiers'])}, "
          f"{breaker['trips']} breaker trips"
          + (f", open: {','.join(breaker['open'])}" if breaker["open"] else "")
          + ")")
    return 0


def cmd_configs(args: argparse.Namespace) -> int:
    descs = [f().description for f in ALL_CONFIGURATIONS.values()]
    print(configuration_table(descs, title="Available I/O configurations "
                                            "(paper Tables VI/VII)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-io",
        description="I/O-phase modeling methodology (Mendez et al., CLUSTER 2012)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace an application, extract its model")
    p.add_argument("--app", required=True)
    p.add_argument("--np", type=int, default=16)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", action="store_true",
                   help="collect and print the observability metrics")
    p.add_argument("--binary", action="store_true",
                   help="save the trace as one compact columnar file "
                        "(columns.npz / columns.trc) instead of per-rank "
                        "Fig. 2 text files")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("model", help="rebuild/print a model from saved traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--name", default="app")
    p.add_argument("--out")
    p.add_argument("--method", choices=("columnar", "records"),
                   default="columnar",
                   help="model-extraction path: vectorized columnar "
                        "(default) or the per-record reference")
    p.add_argument("--quarantine", action="store_true",
                   help="salvage a partial model from corrupt/truncated "
                        "traces and print a per-rank report of what was "
                        "dropped")
    p.add_argument("--jobs", type=_jobs_type, metavar="N",
                   help="parallel ingest fan-out: shard the trace files "
                        "across N worker processes (>= 1; default: "
                        "$REPRO_INGEST_JOBS or the cpu count, capped at 8)")
    p.add_argument("--stream", action="store_true",
                   help="fold the trace incrementally (O(open-bursts) "
                        "memory) instead of loading it whole; the model "
                        "is bit-identical")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("estimate", help="estimate I/O time on a configuration")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("usage", help="system-usage study (Tables IX/X)")
    p.add_argument("--app", required=True)
    p.add_argument("--np", type=int, default=16)
    p.add_argument("--config", required=True)
    p.add_argument("--metrics", action="store_true",
                   help="collect and print the observability metrics")
    p.set_defaults(func=cmd_usage)

    p = sub.add_parser("select", help="choose the configuration with least I/O time")
    p.add_argument("--model", required=True)
    p.add_argument("--configs", required=True,
                   help="comma-separated configuration names")
    p.add_argument("--checkpoint-dir",
                   help="persist each configuration's estimate here "
                        "(atomic write-then-rename)")
    p.add_argument("--resume", action="store_true",
                   help="skip configurations already checkpointed in "
                        "--checkpoint-dir")
    p.add_argument("--lattice", action="store_true",
                   help="evaluate all configurations analytically in one "
                        "vectorized pass (eqs. 1-4 as array kernels) "
                        "instead of per-config IOR replays")
    p.add_argument("--executor", choices=("serial", "pool", "cluster"),
                   help="sweep backend for the unique replays "
                        "(default: serial, or $REPRO_EXECUTOR)")
    p.add_argument("--workers",
                   help="cluster worker endpoints host:port,host:port "
                        "(with --executor cluster; default "
                        "$REPRO_CLUSTER_WORKERS or spawned localhost "
                        "workers)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser(
        "degraded",
        help="worst-case selection with failed disks (degraded RAID/JBOD)")
    p.add_argument("--model", required=True)
    p.add_argument("--configs", required=True,
                   help="comma-separated configuration names")
    p.add_argument("--rebuild", action="store_true",
                   help="also run a RAID rebuild on the degraded volumes "
                        "(rebuild traffic competes with foreground I/O)")
    p.set_defaults(func=cmd_degraded)

    p = sub.add_parser("replay", help="synthesize and measure a model's replay")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--metrics", action="store_true",
                   help="collect and print the observability metrics")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("signatures", help="classify a model's access patterns")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_signatures)

    p = sub.add_parser(
        "profile",
        help="instrumented usage pipeline + span/metrics/trace artifacts")
    p.add_argument("--app", required=True)
    p.add_argument("--np", type=int, default=16)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True,
                   help="directory for events.jsonl, trace.chrome.json, "
                        "metrics.prom")
    p.add_argument("--jobs", type=_jobs_type, metavar="N",
                   help="parallel trace-ingest fan-out (>= 1; default: "
                        "$REPRO_INGEST_JOBS or the cpu count, capped at 8)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "cache",
        help="inspect, clear or pre-populate the persistent result store")
    p.add_argument("action", choices=("stats", "clear", "warm"))
    p.add_argument("--dir",
                   help="store directory (default: $REPRO_CACHE_DIR or "
                        ".repro-cache)")
    p.add_argument("--cache",
                   help="(clear) only this named cache, e.g. ior or trace")
    p.add_argument("--app", default="madbench2",
                   help="(warm) application whose study populates the store")
    p.add_argument("--np", type=int, default=16)
    p.add_argument("--configs", default="configuration-A,configuration-B",
                   help="(warm) comma-separated configuration names")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "workers",
        help="launch or drain socket sweep workers (cluster executor)")
    p.add_argument("action", choices=("launch", "drain"))
    p.add_argument("--count", type=int, default=2,
                   help="how many workers to launch (default 2)")
    p.add_argument("--bind", default="127.0.0.1",
                   help="address workers listen on (default 127.0.0.1)")
    p.add_argument("--port-base", type=int, default=0,
                   help="first port; worker i listens on port-base+i "
                        "(default: OS-assigned free ports)")
    p.add_argument("--workers",
                   help="endpoints to drain, host:port,host:port "
                        "(default $REPRO_CLUSTER_WORKERS)")
    p.set_defaults(func=cmd_workers)

    p = sub.add_parser(
        "serve",
        help="run the resilient study service daemon (crash-safe journal, "
             "admission control, graceful drain)")
    p.add_argument("--listen", default="127.0.0.1:7600", metavar="HOST:PORT",
                   help="bind address (port 0 picks a free port; the bound "
                        "address is printed as a 'LISTENING host port' line)")
    p.add_argument("--journal", default=".repro-service",
                   help="journal directory: write-ahead log, result files "
                        "and replay checkpoints live here; restart with the "
                        "same directory to recover in-flight batches")
    p.add_argument("--workers", type=int, default=2,
                   help="worker pool size (default 2)")
    p.add_argument("--queue-cap", type=int, default=16,
                   help="admission cap on queued+running requests; beyond "
                        "it submissions get BUSY (default 16)")
    p.add_argument("--executor", choices=("serial", "pool", "cluster"),
                   help="starting executor tier; the circuit breaker "
                        "degrades cluster -> pool -> serial on "
                        "infrastructure failures")
    p.add_argument("--cache-dir",
                   help="attach this persistent result store "
                        "(default: $REPRO_CACHE_DIR behaviour)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="advisory backoff carried on BUSY responses "
                        "(default 1.0s)")
    p.add_argument("--metrics", action="store_true",
                   help="enable repro.obs so the 'metrics' op serves "
                        "Prometheus text (service_* counters, queue gauge)")
    p.add_argument("--jobs", type=_jobs_type, metavar="N",
                   help="daemon-wide trace-ingest fan-out; per-request "
                        "'jobs' QoS fields override it (>= 1; default: "
                        "$REPRO_INGEST_JOBS or the cpu count, capped at 8)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a batch of study requests to a daemon")
    p.add_argument("--server", default="127.0.0.1:7600", metavar="HOST:PORT")
    p.add_argument("--app", help="application to study")
    p.add_argument("--np", type=int, default=16)
    p.add_argument("--kind", choices=("select", "characterize", "full_study"),
                   default="select")
    p.add_argument("--configs",
                   help="comma-separated configuration names "
                        "(select/full_study)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="per-request deadline, propagated into the study's "
                        "RetryPolicy timeout")
    p.add_argument("--jobs", type=_jobs_type, metavar="N",
                   help="per-request trace-ingest fan-out QoS field "
                        "(outside the spec digest, like --deadline)")
    p.add_argument("--batch-file",
                   help="JSON file with a list of request specs (or "
                        "{\"requests\": [...]}) instead of --app/--configs")
    p.add_argument("--wait", action="store_true",
                   help="block until the batch settles and print results")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="client-side wait timeout (default 300s)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status",
                       help="inspect a daemon: server stats, batch states, "
                            "health/readiness probes")
    p.add_argument("--server", default="127.0.0.1:7600", metavar="HOST:PORT")
    p.add_argument("--batch", help="show this batch instead of server stats")
    p.add_argument("--probe", choices=("health", "ready"),
                   help="liveness/readiness probe: exit 0 when ok "
                        "(for supervisors and container orchestrators)")
    p.add_argument("--drain", action="store_true",
                   help="ask the daemon to drain gracefully (idempotent): "
                        "finish accepted work, refuse new submissions, exit")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("configs", help="list the modeled I/O configurations")
    p.set_defaults(func=cmd_configs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "metrics", False):
        from repro.obs.export import render_prometheus

        obs.enable()
        try:
            rc = args.func(args)
            if rc == 0:
                print()
                print("Collected metrics (Prometheus text format):")
                print(render_prometheus(obs.registry()), end="")
            return rc
        finally:
            obs.disable()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
