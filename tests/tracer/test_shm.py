"""Shared-memory trace publishing: round-trips, lifetime, sweep wiring."""

from __future__ import annotations

import pytest

from repro.apps.synthetic import SyntheticParams, synthetic_program
from repro.core.pipeline import characterize_bundles
from repro.core.model import models_equivalent
from repro.tracer import shm
from repro.tracer.columns import FLOAT_COLUMNS, INT_COLUMNS
from repro.tracer.hooks import trace_run

NP = 4


@pytest.fixture(scope="module")
def bundle():
    return trace_run(synthetic_program, NP, None, SyntheticParams())


def _columns_equal(a, b) -> bool:
    if len(a) != len(b) or list(a.op_table) != list(b.op_table):
        return False
    for name in INT_COLUMNS + FLOAT_COLUMNS:
        if list(getattr(a, name)) != list(getattr(b, name)):
            return False
    return True


class TestRoundTrip:
    def test_share_attach_round_trips(self, bundle):
        cols = bundle.columns
        handle = shm.share_columns(cols)
        try:
            back = shm.attach_columns(handle)
            assert _columns_equal(cols, back)
            assert back.content_digest() == cols.content_digest()
        finally:
            shm.release(handle)

    def test_numpy_attach_is_zero_copy(self, bundle):
        import numpy as np

        handle = shm.share_columns(bundle.columns)
        try:
            back = shm.attach_columns(handle)
            assert isinstance(back.tick, np.ndarray)
            # a view over the shared buffer, not an owning copy
            assert not back.tick.flags.owndata
        finally:
            shm.release(handle)

    def test_release_unlinks_segment(self, bundle):
        handle = shm.share_columns(bundle.columns)
        shm.release(handle)
        with pytest.raises(FileNotFoundError):
            shm._shm_mod.SharedMemory(name=handle.shm_name)

    def test_release_all_sweeps_owned_segments(self, bundle):
        handles = [shm.share_columns(bundle.columns) for _ in range(3)]
        shm.release_all()
        assert not shm._owned
        for handle in handles:
            with pytest.raises(FileNotFoundError):
                shm._shm_mod.SharedMemory(name=handle.shm_name)


class TestSweepIntegration:
    def test_parallel_characterization_matches_serial(self, bundle):
        bundles = {"one": bundle, "two": bundle}
        serial = characterize_bundles(bundles, parallel=False)
        parallel = characterize_bundles(bundles, parallel=True,
                                        max_workers=2)
        for name in bundles:
            assert models_equivalent(serial[name], parallel[name])
        assert not shm._owned  # the sweep released its segments

    def test_serial_fallback_keeps_original_args(self, bundle):
        # unpicklable job functions degrade to serial with the original
        # (non-substituted) arguments -- and still release the segments
        from repro.core.sweep import sweep_map

        cols = bundle.columns
        results = sweep_map(lambda c: len(c), {"a": (cols,), "b": (cols,)},
                            parallel=True)
        assert results == {"a": len(cols), "b": len(cols)}
        assert not shm._owned
