"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

A tiny-size run of each workload, plain and traced, must report exactly
the metric names and units BENCHMARK.json declares, and the benchmark's
input generators must be deterministic for a seed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tree_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_trace_generator_is_deterministic(tmp_path):
    import tracegen

    for shape in tracegen.SHAPES:
        infos = [tracegen.generate(tmp_path / f"{shape}{i}", shape, seed,
                                   nranks=4, events_per_rank=200)
                 for i, seed in enumerate((5, 5, 6))]
        same, again, other = (_tree_bytes(tmp_path / f"{shape}{i}")
                              for i in range(3))
        assert same == again
        assert same != other
        assert infos[0]["events"] == infos[2]["events"] == 800
        rows = [ln for ln in same["trace.0"].decode().splitlines()[1:]]
        assert len(rows) == 200 and all(len(r.split()) == 9 for r in rows)


def test_spec_stream_is_seeded_with_a_fixed_duplicate_share():
    import workloads

    def batches(seed):
        stream = workloads.SpecStream("roms", (1, 2), random.Random(seed))
        out = [stream.next_batch() for _ in range(20)]
        repeats = 0
        seen = [workloads._spec_key(s) for s in stream.warmup]
        for batch in out:
            keys = [workloads._spec_key(s) for s in batch]
            repeats += sum(k in seen for k in keys)
            seen += keys
        return out, repeats

    first, repeats = batches(4)
    assert first == batches(4)[0]
    assert first != batches(5)[0]
    assert repeats == 18  # two cycles of 30 specs, 9 repeats each
