"""Cross-process warm start: the store's end-to-end reason to exist.

Two fresh interpreters run the same ``full_study`` against one store
directory.  The first is cold (populates); the second must serve its
trace, characterization and IOR results from disk (``disk_hits > 0``)
without running the simulator once, and produce **bit-identical**
study totals (compared by ``repr``, so float equality is exact).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
from repro import obs, store
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.clusters import configuration_a, configuration_b
from repro.core import cache as simcache
from repro.core.pipeline import full_study

store.attach(sys.argv[1])
_, reg = obs.enable()
study = full_study(
    madbench2_program, 4, MADbench2Params(),
    cluster_factories={"A": configuration_a, "B": configuration_b},
    app_name="madbench2")
print(json.dumps({
    "best": study["selection"]["best"],
    "totals": {k: repr(v) for k, v in study["selection"]["totals"].items()},
    "disk_hits": sum(st["disk_hits"] for st in simcache.stats().values()),
    "engine_runs": sum(c.value for _, c in
                       reg.get("engine_runs_total").samples()),
}))
"""


def _run_study(store_dir: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_CACHE_DIR", None)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(store_dir)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_second_process_warm_starts_bit_identically(tmp_path):
    store_dir = tmp_path / "cache"
    cold = _run_study(store_dir)
    assert cold["disk_hits"] == 0  # nothing to hit yet
    assert cold["engine_runs"] > 0
    assert (store_dir / "trace").is_dir()  # traces persisted

    warm = _run_study(store_dir)
    assert warm["disk_hits"] > 0
    assert warm["engine_runs"] == 0  # trace, IOzone and IOR all from disk
    assert warm["best"] == cold["best"]
    assert warm["totals"] == cold["totals"]  # repr-exact floats
