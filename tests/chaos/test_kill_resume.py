"""Kill-and-resume smoke test: the CI chaos job's acceptance criterion.

A checkpointed sweep is hard-killed mid-flight through the
``REPRO_CHAOS_KILL_AFTER`` hook, then resumed; the resumed run must
write a byte-identical result file to an uninterrupted run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.core.sweep import CHAOS_EXIT_CODE, CHAOS_KILL_ENV

SRC = str(Path(__file__).resolve().parents[2] / "src")

# The driven workload: a deterministic 6-job sweep whose result file is
# the canonical JSON of every job's output.  Runs in a subprocess so the
# chaos hook's os._exit() cannot take the test runner down with it.
SCRIPT = """
import json, sys
from pathlib import Path
from repro.core.executors import SerialExecutor
from repro.core.sweep import sweep_map

def job(i):
    acc = 0.0
    for k in range(1, 400):
        acc += (i * k) % 7 / k
    return {"job": i, "acc": acc}

out, ckpt, resume = sys.argv[1], sys.argv[2], sys.argv[3] == "resume"
jobs = {f"cfg{i}": (i,) for i in range(6)}
results = sweep_map(job, jobs,
                    executor=SerialExecutor(checkpoint_dir=ckpt, resume=resume))
Path(out).write_text(json.dumps(results, sort_keys=True, indent=1))
"""


def run_sweep(out: Path, ckpt: Path, *, resume: bool = False,
              kill_after: int | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(CHAOS_KILL_ENV, None)
    if kill_after is not None:
        env[CHAOS_KILL_ENV] = str(kill_after)
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out),
         str(ckpt), "resume" if resume else "fresh"],
        env=env, capture_output=True, text=True, timeout=120)


def test_kill_and_resume_is_bit_identical(tmp_path):
    # 1. the reference: an uninterrupted run
    ref_out = tmp_path / "reference.json"
    proc = run_sweep(ref_out, tmp_path / "ck_ref")
    assert proc.returncode == 0, proc.stderr
    reference = ref_out.read_bytes()

    # 2. chaos: hard-kill after the third checkpoint write
    chaos_out = tmp_path / "chaos.json"
    chaos_ckpt = tmp_path / "ck_chaos"
    proc = run_sweep(chaos_out, chaos_ckpt, kill_after=3)
    assert proc.returncode == CHAOS_EXIT_CODE, proc.stderr
    assert not chaos_out.exists()  # died before writing results
    survivors = list(chaos_ckpt.glob("*.ckpt"))
    assert len(survivors) == 3  # exactly the checkpoints written pre-kill

    # 3. resume from the survivors: must match the reference byte-for-byte
    proc = run_sweep(chaos_out, chaos_ckpt, resume=True)
    assert proc.returncode == 0, proc.stderr
    assert chaos_out.read_bytes() == reference


def test_chaos_hook_inert_without_checkpoint_dir(tmp_path):
    """The kill switch only arms when a checkpoint directory is active,
    so stray environment variables cannot kill un-checkpointed runs."""
    script = """
import sys
from repro.core.sweep import sweep_map
assert sweep_map(abs, {"a": (-1,)}) == {"a": 1}
"""
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env[CHAOS_KILL_ENV] = "1"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_resume_after_kill_skips_completed_jobs(tmp_path):
    """The resumed run must load the surviving checkpoints instead of
    recomputing: poison a checkpoint and watch its value come through."""
    import json
    import pickle

    from repro.core.sweep import checkpoint_path

    ckpt = tmp_path / "ck"
    out = tmp_path / "out.json"
    proc = run_sweep(out, ckpt, kill_after=2)
    assert proc.returncode == CHAOS_EXIT_CODE

    done = sorted(p.name for p in ckpt.glob("*.ckpt"))
    assert len(done) == 2
    # poison the first surviving checkpoint
    first = ckpt / done[0]
    with first.open("wb") as f:
        pickle.dump({"poisoned": True}, f)

    proc = run_sweep(out, ckpt, resume=True)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())
    assert {"poisoned": True} in results.values()  # came from the checkpoint
