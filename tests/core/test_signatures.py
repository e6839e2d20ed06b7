"""Byna-style I/O signature classification."""

from __future__ import annotations

import pytest

from repro.core.model import IOModel
from repro.core.signatures import (
    classify_model,
    classify_phase,
    dominant_signature,
    signature_histogram,
    similarity,
)
from repro.tracer import trace_run

MB = 1024 * 1024


def seq_writer(ctx):
    fh = yield from ctx.file_open("data")
    yield from fh.seek(ctx.rank * 64 * MB)
    for _ in range(8):
        yield from fh.write(8 * MB)
    yield from fh.close()


def strided_writer(ctx):
    fh = yield from ctx.file_open("data")
    for k in range(8):
        yield from fh.write_at(ctx.rank * 8 * MB + k * ctx.size * 8 * MB,
                               8 * MB)
    yield from fh.close()


def small_random_writer(ctx):
    fh = yield from ctx.file_open("data", unique=True)
    for k in range(6):
        yield from fh.write_at((k * 7919) % 64 * 1024, 1024)
    yield from fh.close()


def model_of(app, np_=4):
    return IOModel.from_trace(trace_run(app, np_))


class TestClassification:
    def test_sequential_large(self):
        model = model_of(seq_writer)
        sig = classify_phase(model.phases[0])
        assert sig.spatial == "contiguous"
        assert sig.request_class == "large"
        assert sig.repetition == "repeating"
        assert sig.parallelism == "independent"
        assert sig.sharing == "shared"

    def test_strided(self):
        model = model_of(strided_writer)
        sig = classify_phase(model.phases[0])
        assert sig.spatial == "fixed-strided"

    def test_small_unique(self):
        model = model_of(small_random_writer)
        sigs = list(classify_model(model).values())
        assert any(s.request_class == "small" for s in sigs)
        assert all(s.sharing == "unique" for s in sigs)

    def test_single_op_phase(self):
        def one_shot(ctx):
            fh = yield from ctx.file_open("data")
            yield from fh.write_at_all(ctx.rank * MB, MB)
            yield from fh.close()

        model = model_of(one_shot)
        sig = classify_phase(model.phases[0])
        assert sig.spatial == "single"
        assert sig.repetition == "single"
        assert sig.parallelism == "collective"

    def test_mixed_unit_is_interleaved(self):
        def mixed(ctx):
            fh = yield from ctx.file_open("data")
            base = ctx.rank * 64 * MB
            for k in range(4):
                yield from fh.seek(base + k * MB)
                yield from fh.write(MB)
                yield from fh.seek(base + 32 * MB + k * MB)
                yield from fh.read(MB)
            yield from fh.close()

        model = model_of(mixed)
        sig = classify_phase(model.phases[0])
        assert sig.interleaved


class TestAggregates:
    def test_histogram_counts_phases(self):
        model = model_of(seq_writer)
        hist = signature_histogram(model)
        assert sum(hist.values()) == model.nphases

    def test_dominant_by_weight(self):
        def two_patterns(ctx):
            fh = yield from ctx.file_open("data")
            # a big contiguous run ...
            yield from fh.seek(ctx.rank * 128 * MB)
            for _ in range(8):
                yield from fh.write(8 * MB)
            yield from ctx.allreduce(1)
            yield from ctx.allreduce(1)
            # ... and a tiny strided one
            for k in range(4):
                yield from fh.write_at(
                    1024 * MB + ctx.rank * 1024 + k * ctx.size * 4096, 1024)
            yield from fh.close()

        model = model_of(two_patterns)
        dom = dominant_signature(model)
        assert dom.request_class == "large"

    def test_similarity_identity(self):
        m = model_of(seq_writer)
        assert similarity(m, m) == pytest.approx(1.0)

    def test_similarity_related_apps(self):
        m1 = model_of(seq_writer)
        m2 = model_of(seq_writer, np_=9)
        assert similarity(m1, m2) > 0.9

    def test_similarity_unrelated_apps(self):
        m1 = model_of(seq_writer)
        m2 = model_of(small_random_writer)
        assert similarity(m1, m2) < 0.3
