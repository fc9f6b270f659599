"""The benchmark's traced run stays well-formed.

bench/tracer.py wraps entmean's public functions and derives per-layer
metrics from the spans; a metric whose spans vanish reads as missing
(None).  This loads the tracer as it is, without writing bytecode next to
it, and traces small passes over the sweep entry points and the ordering
command.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import entmean
import entmean.bipartitions
import entmean.cli

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


def test_ordering_command_under_the_tracer(tracer_module, tmp_path):
    out = tmp_path / "ordering.json"
    with tracer_module.Tracer() as tracer:
        # looked up at call time, as the benchmark does, so the CLI layer is traced
        code = entmean.cli.main(
            ["ordering", "--family-x", "a", "--family-y", "b", "--x", "fill", "--y", "gbc",
             "--match-tol", "5e-2", "--sep-min", "2e-2", "--steps", "21", "--out", str(out)]
        )
        # the per-report ratios need a full_report in the pass, as in sweep-cli
        entmean.find_peak(entmean.run_sweep(entmean.SweepSpec(family="c", steps=11)), "gbc")
    assert code == 0
    summary = tracer_module.summarize(tracer)
    assert [name for name, value in summary.items() if value is None] == []
    assert summary["sweep.emit_bytes"] == out.stat().st_size
    assert summary["sweep.findings"] == len(json.loads(out.read_text())["findings"]) > 0


def test_every_emitter_takes_the_path_second(tracer_module):
    # the tracer sizes each emit_* call's output from args[1] or kwargs["path"]
    emitters = {}
    for layer in tracer_module.LAYERS:
        module = importlib.import_module(f"entmean.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("emit_") and inspect.isfunction(obj):
                emitters[name] = list(inspect.signature(obj).parameters)
    assert {"emit_csv", "emit_plotscript", "emit_closed_form_csv", "emit_ordering"} <= set(
        emitters
    )
    assert {name: params[1] for name, params in emitters.items()} == dict.fromkeys(
        emitters, "path"
    )
