"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

import entmean  # noqa: E402
import entmean.cli  # noqa: E402


# --- span arithmetic -----------------------------------------------------


def test_self_times_subtract_child_coverage():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  b > b1 [8, 12]
    # reaches past its parent and is clipped to [8, 9].
    parent = np.array([-1, 0, 1, 0, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 8.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    got = tr.self_times(parent, start, end)
    np.testing.assert_allclose(got, [10 - 3 - 4, 3 - 1, 1, 4 - 1, 4])


def test_has_ancestor_walks_the_whole_chain():
    parent = np.array([-1, 0, 1, 2, -1])
    marked = np.array([True, False, False, False, False])
    assert tr.has_ancestor(parent, marked).tolist() == [False, True, True, True, False]


# --- the tracer ----------------------------------------------------------


def _bindings() -> dict:
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    out = {}
    owners = [np.linalg] + [m for k, m in sys.modules.items() if k.split(".")[0] == "entmean"]
    owners += [obj for m in list(owners) for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__.startswith("entmean")]
    for owner in owners:
        for name, value in vars(owner).items():
            out[(id(owner), name)] = value
    return out


def _small_ops(workdir: Path) -> list[wl.Op]:
    rng = np.random.default_rng(5)
    states = [("ghz3", entmean.make_ghz(3), False),
              ("bisep", wl.biseparable_state((2, 3, 2, 2), 2, rng), True)]
    ops = wl.report_ops(states)
    ops.append(wl.Op("cli", "closed-form", lambda: wl.run_cli(
        ["closed-form", "--n-max", "6", "--out", str(workdir / "cf.csv")]),
        files=(workdir / "cf.csv",)))
    rows = entmean.run_sweep(entmean.SweepSpec(family="c", steps=21))
    ops.append(wl.Op("peak", "peak", lambda: entmean.find_peak(rows, "gmc")))
    ops.append(wl.Op("sweep", "sweep", lambda: entmean.run_sweep(
        entmean.SweepSpec(family="a", steps=11))))
    return ops


def test_tracer_restores_every_original(tmp_path):
    before = _bindings()
    with tr.Tracer() as tracer:
        assert np.linalg.svd is not before[(id(np.linalg), "svd")]
        assert entmean.measures.linear_entropy is entmean.linalg.linear_entropy
        assert entmean.cli.full_report is entmean.full_report
        for op in _small_ops(tmp_path):
            op.call()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert len(tracer.start) > 0


def test_outputs_identical_with_tracing_on_and_off(tmp_path):
    ops = _small_ops(tmp_path)
    plain = [checks.signature(op, op.call()) for op in ops]
    with tr.Tracer() as tracer:
        traced = [checks.signature(op, op.call()) for op in ops]
    assert traced == plain
    summary = tr.summarize(tracer)
    # the biseparable report, and the family-a sweep's end point at theta = pi/2
    assert summary["measures.zero_reports"] == 2
    assert summary["kernel.decomps_per_cut"] > 0
    assert summary["cli.calls"] == 1


def test_traced_counts_on_one_report():
    state = entmean.make_w(4)
    with tr.Tracer() as tracer:
        entmean.full_report(state)
    summary = tr.summarize(tracer)
    # full_report and ggm each enumerate the 7 cuts and decompose every one.
    assert summary["bipartitions.cuts"] == 14
    assert summary["bipartitions.enum_per_report"] == 2.0
    assert summary["kernel.calls"] == summary["kernel.matrices"] == 14
    assert summary["kernel.decomps_per_cut"] == 2.0
    assert summary["kernel.bytes_in"] == 14 * 16 * 16
    assert summary["sweep.calls"] == 0


def test_a_vanished_layer_is_missing_not_zero(monkeypatch):
    monkeypatch.setattr(tr, "LAYERS", tr.LAYERS + ("nosuchlayer",))
    with tr.Tracer() as tracer:
        entmean.full_report(entmean.make_ghz(3))
    summary = tr.summarize(tracer)
    assert "nosuchlayer" in tracer.missing
    assert summary["nosuchlayer.calls"] is None
    assert summary["nosuchlayer.self_s"] is None
    assert summary["measures.calls"] > 0


# --- inputs and checks ---------------------------------------------------


def _amplitudes(states) -> list:
    return [(label, s.dims, s.amplitudes.tobytes(), bisep) for label, s, bisep in states]


def test_seeded_generators_are_deterministic():
    assert _amplitudes(wl.large_states(7)) == _amplitudes(wl.large_states(7))
    assert _amplitudes(wl.mixed_states(7)) == _amplitudes(wl.mixed_states(7))
    assert _amplitudes(wl.mixed_states(7)) != _amplitudes(wl.mixed_states(8))
    # every seed does the same work: the same dims multisets, in the same order
    shapes = [[sorted(s.dims) for _, s, _ in wl.mixed_states(seed)] for seed in (7, 8)]
    assert shapes[0] == shapes[1] == [sorted(d) for d in wl.mixed_shapes()]
    states = wl.mixed_states(7)
    assert len(states) == wl.MIXED_STATES
    assert sum(b for *_, b in states) == wl.MIXED_STATES // wl.MIXED_BISEPARABLE_EVERY


def test_checks_catch_a_wrong_value():
    ref = checks.load_reference()
    rng = np.random.default_rng(3)
    state = entmean.make_custom((2, 3, 2), wl.haar_vector((2, 3, 2), rng))
    (op,) = wl.report_ops([("haar", state, False)])
    report = op.call()
    assert checks.check(op, report, ref) == []
    part, value = report.per_bipartition[0]
    bad = dataclasses.replace(report, per_bipartition=((part, value + 1e-3),)
                              + report.per_bipartition[1:])
    assert any("cut concurrence" in p for p in checks.check(op, bad, ref))
    (bisep_op,) = wl.report_ops([("bisep", state, True)])
    assert any("biseparable" in p for p in checks.check(bisep_op, report, ref))


def test_benchmark_json_matches_the_worker():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == wl.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(worker.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(worker.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(wl.WHY))
def test_every_workload_passes_its_checks(name, tmp_path):
    workload = wl.build(name, 11, tmp_path)
    if name == "report-mixed":
        workload.ops = workload.ops[:40]
    verifier = worker.Verifier()
    result = worker.run_pass(workload, verifier)
    assert [p for p in result.problems if p] == []
