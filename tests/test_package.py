"""Package surface: exports import, __all__ is honest, version set."""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.simmpi",
    "repro.iosim",
    "repro.tracer",
    "repro.core",
    "repro.apps",
    "repro.clusters",
    "repro.report",
    "repro.hdf5lite",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    for symbol in exported:
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_sorted_and_unique(name):
    mod = importlib.import_module(name)
    exported = list(getattr(mod, "__all__", []))
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"


def test_version():
    import repro

    assert repro.__version__
    major = int(repro.__version__.split(".")[0])
    assert major >= 1


def test_cli_entry_point_importable():
    from repro.cli import main

    assert callable(main)


def test_public_docstrings_present():
    """Every public module and export carries a docstring."""
    for name in PACKAGES:
        mod = importlib.import_module(name)
        assert mod.__doc__, f"{name} lacks a module docstring"
        for symbol in getattr(mod, "__all__", []):
            obj = getattr(mod, symbol)
            if symbol == "ClusterFactory":  # typing alias, no docstring slot
                continue
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_lap_reference_oracle_is_test_only():
    """The record-by-record LAP extractor is a test oracle
    (``tests/core/lap_reference.py``), not package surface: the package
    exports only the columnar kernel and its ``extract_laps`` wrapper."""
    import repro.core
    import repro.core.lap as lap

    for name in ("split_bursts", "compress_burst"):
        assert name not in repro.core.__all__
        assert not hasattr(lap, name)
    assert "extract_laps" in repro.core.__all__
    assert not hasattr(lap, "TraceRecord")
