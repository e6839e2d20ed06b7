"""IOModel: construction, aggregates, JSON round trips, describe."""

from __future__ import annotations

import pytest

from repro.core.model import IOModel
from repro.tracer import trace_run


def app(ctx):
    fh = yield from ctx.file_open("data")
    for k in range(3):
        yield from ctx.allreduce(1)
        yield from ctx.allreduce(1)
        yield from fh.write_at_all(ctx.rank * 300 + k * 100, 100)
    for k in range(3):
        yield from fh.read_at_all(ctx.rank * 300 + k * 100, 100)
    yield from fh.close()


@pytest.fixture(scope="module")
def model() -> IOModel:
    return IOModel.from_trace(trace_run(app, 4), app_name="toy")


class TestConstruction:
    def test_phase_structure(self, model):
        # 3 gap-separated writes + 1 read phase of rep 3.
        assert model.nphases == 4
        assert [ph.op_label for ph in model.phases] == ["W", "W", "W", "R"]
        assert model.phases[-1].rep == 3

    def test_total_weight(self, model):
        assert model.total_weight == 4 * 6 * 100

    def test_weight_by_kind(self, model):
        by_kind = model.weight_by_kind()
        assert by_kind == {"write": 1200, "read": 1200}

    def test_file_groups(self, model):
        assert model.file_groups == ["data"]
        assert len(model.phases_for("data")) == 4
        assert model.phases_for("nope") == []

    def test_np_recorded(self, model):
        assert model.np == 4
        assert all(ph.np == 4 for ph in model.phases)


class TestSerialization:
    def test_json_roundtrip(self, model):
        back = IOModel.from_json(model.to_json())
        assert back.app_name == model.app_name
        assert back.np == model.np
        assert back.nphases == model.nphases
        for a, b in zip(back.phases, model.phases):
            assert a.weight == b.weight
            assert a.ranks == b.ranks
            assert a.rep == b.rep
            assert [o.op for o in a.ops] == [o.op for o in b.ops]
            for oa, ob in zip(a.ops, b.ops):
                assert oa.offset_fn(2) == ob.offset_fn(2)
                assert oa.abs_offset_fn(3) == ob.abs_offset_fn(3)

    def test_save_load(self, model, tmp_path):
        path = tmp_path / "m.json"
        model.save(path)
        back = IOModel.load(path)
        assert back.nphases == model.nphases

    def test_table_offsetfn_survives_roundtrip(self):
        """Non-linear offsets serialize via the table fallback."""
        from repro.core.offsetfn import OffsetFunction, fit_offsets
        from repro.core.model import _offsetfn_from_dict, _offsetfn_to_dict

        fn = fit_offsets({0: 0, 1: 10, 2: 25})
        back = _offsetfn_from_dict(_offsetfn_to_dict(fn))
        assert not back.is_linear
        assert back(1) == 10 and back(2) == 25


class TestDescribe:
    def test_describe_mentions_phases_and_metadata(self, model):
        text = model.describe()
        assert "toy" in text
        assert "phase 4" in text
        assert "Collective operations" in text
        assert "weight" in text


class TestModelsEquivalent:
    def test_same_app_different_platform(self):
        from repro.core.model import models_equivalent
        from tests.conftest import make_nfs_cluster

        m1 = IOModel.from_trace(trace_run(app, 4))
        m2 = IOModel.from_trace(trace_run(app, 4, make_nfs_cluster()))
        assert models_equivalent(m1, m2)

    def test_different_np_not_equivalent(self):
        from repro.core.model import models_equivalent

        def app9(ctx):
            fh = yield from ctx.file_open("data")
            yield from fh.write_at_all(ctx.rank * 100, 100)
            yield from fh.close()

        m1 = IOModel.from_trace(trace_run(app9, 4))
        m2 = IOModel.from_trace(trace_run(app9, 9))
        assert not models_equivalent(m1, m2)

    def test_different_request_size_not_equivalent(self):
        from repro.core.model import models_equivalent

        def app_a(ctx):
            fh = yield from ctx.file_open("data")
            yield from fh.write_at_all(ctx.rank * 100, 100)
            yield from fh.close()

        def app_b(ctx):
            fh = yield from ctx.file_open("data")
            yield from fh.write_at_all(ctx.rank * 200, 200)
            yield from fh.close()

        m1 = IOModel.from_trace(trace_run(app_a, 4))
        m2 = IOModel.from_trace(trace_run(app_b, 4))
        assert not models_equivalent(m1, m2)
