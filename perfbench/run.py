#!/usr/bin/env python3
"""End-to-end benchmark of the repro pipeline, with a per-layer ledger.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload paper_study --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(see README.md in this directory).  Earlier lines carry notes: input
properties, problems found by the output checks, unmeasurable layers.

Steadiness self-check -- every workload, N fresh processes, seeds 1..N;
exits 1 when the quartile spread of any end-to-end metric but setup_s
exceeds its bound in BENCHMARK.json::

    python3 perfbench/run.py --steadiness 5 [--workload W] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _result_line(run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_workload(args) -> int:
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.tiny)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        metrics = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    notes = dict(run.notes)
    if run.problems:
        notes["problems"] = run.problems
    print(json.dumps({"notes": notes}))
    print(_result_line(run, metrics), flush=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args) -> int:
    """Run each workload in fresh processes; judge spreads vs bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    worst_ok = True
    report = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.steadiness + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: run failed\n{proc.stdout[-2000:]}"
                      f"\n{proc.stderr[-2000:]}")
                worst_ok = False
                continue
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        for metric, vs in values.items():
            q1, med, q3 = _quartiles(vs)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(abs(v - med) for v in vs) / med if med else float("inf")
            bound = bounds.get(metric)
            # set-up time is judged by its median, not its spread
            ok = bound is None or metric == "setup_s" or spread <= bound
            worst_ok &= ok
            report.setdefault(name, {})[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "worst_dev": worst, "bound": bound, "n": len(vs)}
            print(f"  {name:12s} {metric:18s} median={med:<10.4g} "
                  f"q1={q1:<10.4g} q3={q3:<10.4g} spread={spread:6.3f} "
                  f"worst={worst:6.3f} bound={bound} {'ok' if ok else 'FAIL'}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0 if worst_ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs (smoke test only)")
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run each workload N times and judge the spreads")
    p.add_argument("--probe", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        import repro  # noqa: F401  -- the program must be in the checkout
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads

    if args.probe:
        workloads.probe(args.probe, args.workdir)
        return 0
    if args.steadiness:
        return steadiness(args)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds is None:
        p.error("--seconds is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
