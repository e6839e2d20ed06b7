"""Model auditing against its source trace."""

from __future__ import annotations

import pytest

from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.apps.btio import BTIOParams, btio_program
from repro.apps.roms import ROMSParams, roms_program
from repro.core.model import IOModel
from repro.core.pipeline import characterize_app
from repro.core.validate import audit, validate_model
from repro.tracer import trace_run

MB = 1024 * 1024


@pytest.fixture(scope="module")
def traced():
    bundle = trace_run(madbench2_program, 4, None, MADbench2Params(kpix=4))
    return IOModel.from_trace(bundle, "mb"), bundle


class TestCleanModels:
    def test_madbench_validates(self, traced):
        model, bundle = traced
        report = validate_model(model, bundle)
        assert report.ok, report.describe()
        assert "cleanly" in report.describe()

    def test_btio_validates(self):
        bundle = trace_run(btio_program, 4, None,
                           BTIOParams(cls="A", comm_events_per_step=2))
        model = IOModel.from_trace(bundle, "bt")
        assert validate_model(model, bundle).ok

    def test_audit_no_raise_on_clean(self, traced):
        model, bundle = traced
        audit(model, bundle, raise_on_error=True)  # must not raise


class TestDetection:
    def test_dropped_phase_detected(self, traced):
        model, bundle = traced
        broken = IOModel(app_name=model.app_name, np=model.np,
                         metadata=model.metadata, phases=model.phases[:-1])
        report = validate_model(broken, bundle)
        assert not report.ok
        assert any("bytes" in f.message for f in report.errors())

    def test_wrong_np_detected(self, traced):
        model, bundle = traced
        wrong = IOModel(app_name=model.app_name, np=model.np + 1,
                        metadata=model.metadata, phases=model.phases)
        report = validate_model(wrong, bundle)
        assert any("np=" in f.message for f in report.errors())

    def test_corrupted_offsetfn_detected(self, traced):
        from repro.core.offsetfn import OffsetFunction
        from fractions import Fraction
        from dataclasses import replace

        model, bundle = traced
        ph = model.phases[0]
        bad_op = replace(ph.ops[0], abs_offset_fn=OffsetFunction(
            slope=Fraction(1), intercept=Fraction(12345)))
        bad_phase = replace_phase(ph, ops=(bad_op,) + ph.ops[1:])
        broken = IOModel(app_name=model.app_name, np=model.np,
                         metadata=model.metadata,
                         phases=[bad_phase] + model.phases[1:])
        report = validate_model(broken, bundle)
        assert any("f(initOffset)" in f.message for f in report.errors())

    def test_audit_raises_on_error(self, traced):
        model, bundle = traced
        broken = IOModel(app_name=model.app_name, np=model.np,
                         metadata=model.metadata, phases=model.phases[:-1])
        with pytest.raises(ValueError):
            audit(broken, bundle, raise_on_error=True)


#: The paper apps at the scale of the end-to-end studies: MADbench2 and
#: ROMS-like at np 16, BT-IO class D at np 16 (Tables VIII-XII).
PAPER_APPS = {
    "madbench2": (madbench2_program, MADbench2Params()),
    "btio-D": (btio_program, BTIOParams(cls="D", comm_events_per_step=24)),
    "roms": (roms_program, ROMSParams()),
}


@pytest.fixture(scope="module", params=sorted(PAPER_APPS))
def paper_app(request):
    program, params = PAPER_APPS[request.param]
    return characterize_app(program, 16, params, app_name=request.param)


class TestPaperApps:
    """The models the selection studies replay account for every byte,
    operation and initial offset of their traces."""

    def test_model_validates_with_no_finding(self, paper_app):
        model, bundle = paper_app
        assert validate_model(model, bundle).findings == []

    def test_dropped_phase_breaks_byte_coverage(self, paper_app):
        model, bundle = paper_app
        broken = IOModel(app_name=model.app_name, np=model.np,
                         metadata=model.metadata, phases=model.phases[:-1])
        errors = validate_model(broken, bundle).errors()
        assert any("bytes" in f.message for f in errors)


def replace_phase(ph, **kw):
    from repro.core.phases import Phase

    fields = dict(
        phase_id=ph.phase_id, file_group=ph.file_group, rep=ph.rep,
        ops=ph.ops, ranks=ph.ranks, tick=ph.tick, first_time=ph.first_time,
        duration=ph.duration, unique_file=ph.unique_file,
        file_ids=ph.file_ids)
    fields.update(kw)
    return Phase(**fields)
