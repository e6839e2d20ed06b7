"""Shared fixtures: small clusters and apps sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import cache as simcache
from repro.iosim import (
    EXT4,
    GIGABIT_ETHERNET,
    JBOD,
    NFS,
    PVFS2,
    RAID5,
    Cluster,
    ComputeNode,
    Disk,
    DiskSpec,
    IONode,
    LocalFS,
)
from repro.tracer.columns import ALL_COLUMNS, FLOAT_COLUMNS, TraceColumns


def make_nfs_cluster(n_compute: int = 4, n_disks: int = 5,
                     cache_mb: float = 64.0) -> Cluster:
    """A small NFS/RAID5 cluster in the style of configuration A."""
    disks = [Disk(f"d{i}", DiskSpec()) for i in range(n_disks)]
    volume = RAID5("vol", disks)
    fs = LocalFS("fs", volume, EXT4, cache_mb=cache_mb)
    server = IONode.make("ion0", fs)
    nodes = [ComputeNode.make(f"cn{i}") for i in range(n_compute)]
    return Cluster("test-nfs", nodes, NFS(server), GIGABIT_ETHERNET)


def make_pvfs_cluster(n_compute: int = 4, n_ions: int = 3,
                      cache_mb: float = 64.0) -> Cluster:
    """A small PVFS2/JBOD cluster in the style of configuration B."""
    ions = []
    for i in range(n_ions):
        disk = Disk(f"p{i}", DiskSpec())
        fs = LocalFS(f"fs{i}", JBOD(f"jbod{i}", [disk]), EXT4, cache_mb=cache_mb)
        ions.append(IONode.make(f"ion{i}", fs))
    nodes = [ComputeNode.make(f"cn{i}") for i in range(n_compute)]
    return Cluster("test-pvfs", nodes, PVFS2(ions), GIGABIT_ETHERNET)


#: The two shapes of column input the columnar kernels are fed, as test
#: ids: ``numpy`` -- read-only ``ndarray`` views into one shared buffer,
#: so a kernel that wrote to its input would fail here (the kernels
#: must treat columns as immutable: cached and streamed columns are
#: shared between callers); and ``python`` -- columns converted from plain Python lists, as
#: ``TraceColumns.from_records`` and the exact line parser build them.
COLUMN_SOURCES = pytest.mark.parametrize("source", ["numpy", "python"])


def as_source(cols, source: str):
    """``cols`` rebuilt in the *source* input shape (same content)."""
    if source == "python":
        return TraceColumns(op_table=cols.op_table, **cols.column_lists())
    n = len(cols)
    dtypes = ["<f8" if name in FLOAT_COLUMNS else "<i8"
              for name in ALL_COLUMNS]
    buf = b"".join(getattr(cols, name).astype(dt).tobytes()
                   for name, dt in zip(ALL_COLUMNS, dtypes))
    return TraceColumns(op_table=cols.op_table, **{
        name: np.frombuffer(buf, dtype=dt, count=n, offset=8 * n * i)
        for i, (name, dt) in enumerate(zip(ALL_COLUMNS, dtypes))})


def columns_from(records, source: str):
    """Columns of ``records`` (order preserved) in the *source* shape."""
    return as_source(TraceColumns.from_records(records), source)


@pytest.fixture(autouse=True)
def _fresh_sim_caches():
    """Keep tests hermetic: no memoized results leak across tests."""
    simcache.clear_all()
    yield
    simcache.clear_all()


@pytest.fixture(autouse=True)
def _no_persistent_store():
    """Tests run without a persistent store unless they attach one.

    Detaching also suppresses the ``REPRO_CACHE_DIR`` environment
    fallback, so a developer's exported cache dir cannot bleed results
    into (or out of) the suite.  Module state is restored afterwards so
    an outer attachment -- if any -- keeps working.
    """
    from repro import store

    prev_active, prev_detached = store._active, store._detached
    store.detach()
    yield
    store._active, store._detached = prev_active, prev_detached


@pytest.fixture
def launch_workers():
    """Factory launching real socket sweep workers; killed on teardown.

    Returns ``spawn(n, env_overrides...) -> [(host, port), ...]``.
    Workers run ``repro.core.executors.worker`` as subprocesses with
    the repo's ``src`` on PYTHONPATH, so only functions importable from
    installed/SRC modules (``operator.mul``, repro factories, ...) can
    be dispatched to them -- exactly the production constraint.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    procs: list[subprocess.Popen] = []

    def spawn(count: int = 1, **env_overrides: str):
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_root)
        env.update(env_overrides)
        endpoints = []
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.core.executors.worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, env=env, text=True)
            procs.append(proc)
            line = (proc.stdout.readline() or "").split()
            assert len(line) == 3 and line[0] == "LISTENING", line
            endpoints.append((line[1], int(line[2])))
        return endpoints

    spawn.procs = procs  # exposed so tests can wait on worker exit codes
    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@pytest.fixture
def nfs_cluster() -> Cluster:
    return make_nfs_cluster()


@pytest.fixture
def pvfs_cluster() -> Cluster:
    return make_pvfs_cluster()
