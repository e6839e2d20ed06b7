"""Model rescaling across process counts."""

from __future__ import annotations

import pytest

from repro.apps.btio import BTIOParams, btio_program
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.core.model import IOModel, models_equivalent
from repro.core.rescale import RescaleError, rescale_model
from repro.tracer import trace_run

MB = 1024 * 1024


@pytest.fixture(scope="module")
def btio4():
    params = BTIOParams(cls="A", comm_events_per_step=2)
    return IOModel.from_trace(
        trace_run(btio_program, 4, None, params), "btio")


class TestBTIO:
    def test_upscale_matches_real_model(self, btio4):
        params = BTIOParams(cls="A", comm_events_per_step=2)
        real16 = IOModel.from_trace(
            trace_run(btio_program, 16, None, params), "btio")
        predicted = rescale_model(btio4, 16, etype_size=40)
        assert models_equivalent(real16, predicted)

    def test_weight_preserved(self, btio4):
        predicted = rescale_model(btio4, 16, etype_size=40)
        assert predicted.total_weight == btio4.total_weight
        assert predicted.np == 16
        assert all(ph.np == 16 for ph in predicted.phases)

    def test_round_trip(self, btio4):
        back = rescale_model(rescale_model(btio4, 16, etype_size=40), 4,
                             etype_size=40)
        assert models_equivalent(btio4, back)


class TestMADbench:
    def test_both_directions(self):
        p = MADbench2Params(kpix=4)
        m4 = IOModel.from_trace(
            trace_run(madbench2_program, 4, None, p), "mb")
        m16 = IOModel.from_trace(
            trace_run(madbench2_program, 16, None, p), "mb")
        assert models_equivalent(m16, rescale_model(m4, 16, etype_size=1))
        assert models_equivalent(m4, rescale_model(m16, 4, etype_size=1))


class TestValidation:
    def test_nonpositive_np_rejected(self, btio4):
        with pytest.raises(RescaleError):
            rescale_model(btio4, 0)

    def test_vanishing_request_rejected(self):
        def tiny(ctx):
            fh = yield from ctx.file_open("f")
            yield from fh.write_at_all(ctx.rank, 1)
            yield from fh.close()

        model = IOModel.from_trace(trace_run(tiny, 2))
        with pytest.raises(RescaleError):
            rescale_model(model, 1000)

    def test_partial_participation_rejected(self):
        def subset(ctx):
            if ctx.rank < 2:
                fh = yield from ctx.file_open("f", unique=True)
                yield from fh.write_at(0, 1024)
                yield from fh.close()

        model = IOModel.from_trace(trace_run(subset, 4))
        with pytest.raises(RescaleError):
            rescale_model(model, 8)

    def test_app_name_tagged(self, btio4):
        assert rescale_model(btio4, 16, etype_size=40).app_name == "btio@np16"
