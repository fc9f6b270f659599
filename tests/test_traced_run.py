"""The benchmark's traced run stays well-formed.

bench/tracer.py wraps entmean's public functions and derives per-layer
metrics from the spans; a metric whose spans vanish reads as missing
(None).  This loads the tracer as it is, without writing bytecode next to
it, and traces one small pass over the sweep entry points.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import entmean
import entmean.bipartitions

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("entmean_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_pass_leaves_no_metric_missing(tracer_module, tmp_path):
    with tracer_module.Tracer() as tracer:
        rows = entmean.run_sweep(entmean.SweepSpec(family="a", steps=11))
        entmean.find_peak(rows, "gbc")
        entmean.find_ordering_reversals(rows, rows, "gmc", "gbc")
        entmean.emit_csv(rows, tmp_path / "sweep_a.csv")
    summary = tracer_module.summarize(tracer)
    assert [name for name, value in summary.items() if value is None] == []


def test_enumeration_stays_a_plain_function():
    # wrappers skip a cache object, which would leave bipartitions.cuts missing
    assert inspect.isfunction(entmean.bipartitions.enumerate_bipartitions)
