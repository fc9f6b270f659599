"""One benchmark workload in one fresh, single-threaded process.

bench/run.py starts this file once per workload (and a few more times with
--setup-only to sample the set-up time).  It pins the BLAS thread count
before numpy is imported, builds the workload's inputs from the seed, warms
up, then repeats closed-loop passes over the workload's operations for the
requested time, checks every output, and prints one JSON line.

With --trace 1 the passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # set-up time includes importing numpy and entmean

import os  # noqa: E402

PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import entmean  # noqa: E402
import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# (name, unit, better) of every metric; BENCHMARK.json lists the same.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cuts_per_s", "1/s", "higher"),
    ("points_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("kernel.calls", "count", "lower"),
    ("kernel.matrices", "count", "lower"),
    ("kernel.bytes_in", "B", "lower"),
    ("kernel.flops_est", "flop", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.decomps_per_cut", "ratio", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("measures.calls", "count", "lower"),
    ("measures.self_s", "s", "lower"),
    ("measures.zero_reports", "count", "higher"),
    ("bipartitions.calls", "count", "lower"),
    ("bipartitions.self_s", "s", "lower"),
    ("bipartitions.cuts", "count", "lower"),
    ("bipartitions.enum_per_report", "ratio", "lower"),
    ("states.calls", "count", "lower"),
    ("states.self_s", "s", "lower"),
    ("sweep.calls", "count", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.peak_evals", "count", "lower"),
    ("sweep.findings", "count", "higher"),
    ("sweep.emit_s", "s", "lower"),
    ("sweep.emit_bytes", "B", "lower"),
    ("closedform.calls", "count", "lower"),
    ("closedform.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    problems: list[list[str]] = field(default_factory=list)


class Verifier:
    """Checks the first output of each operation in full; later passes,
    traced or not, must reproduce it exactly."""

    def __init__(self) -> None:
        self.reference = checks.load_reference()
        self.first: dict[int, tuple[object, list[str]]] = {}
        self.inexact: dict[str, list[float]] = {"gmc": [], "ggm": []}
        self.biseparable = 0

    def notes(self) -> list[str]:
        return [
            f"{name} is not exactly 0.0 on {len(values)} of {self.biseparable} biseparable "
            f"states (largest {max(values):.3g})"
            for name, values in self.inexact.items() if values
        ]

    def verify(self, index: int, op: wl.Op, output, error: str | None) -> list[str]:
        if error is not None:
            return [f"{op.label}: {error}"]
        sig = checks.signature(op, output)
        if index not in self.first:
            self.first[index] = (sig, checks.check(op, output, self.reference))
            if op.biseparable:
                self.biseparable += 1
                for name, value in checks.inexact_zeros(op, output).items():
                    self.inexact[name].append(value)
        first_sig, problems = self.first[index]
        if sig != first_sig:
            return [f"{op.label}: output differs from the first pass"]
        return problems


def run_pass(workload: wl.Workload, verifier: Verifier, tracer: tr.Tracer | None = None) -> PassResult:
    """Run every operation once, timing each, traced if a tracer is given;
    check the outputs after the pass (and after the tracer has exited)."""
    clock = time.perf_counter
    outputs, latencies = [], []
    with tracer if tracer is not None else contextlib.nullcontext():
        begin = clock()
        for op in workload.ops:
            t0 = clock()
            try:
                outputs.append((op.call(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            latencies.append(clock() - t0)
        result = PassResult(clock() - begin, latencies)
    for index, (op, (output, error)) in enumerate(zip(workload.ops, outputs)):
        result.problems.append(verifier.verify(index, op, output, error))
    return result


def setup(name: str, seed: int, workdir: Path) -> tuple[wl.Workload, float]:
    workload = wl.build(name, seed, workdir)
    wl.warm_up(workload)
    return workload, time.perf_counter() - SETUP_START


def end_to_end(workload: wl.Workload, passes: list[PassResult], setup_s: float) -> dict:
    ops = workload.ops
    cut_ops = [i for i, op in enumerate(ops) if op.cuts]
    point_ops = [i for i, op in enumerate(ops) if op.points]
    cuts = sum(ops[i].cuts for i in cut_ops)
    points = sum(ops[i].points for i in point_ops)
    latencies = [t for p in passes for t in p.latencies]
    deciles = statistics.quantiles(latencies, n=10)
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": setup_s,
        "cuts_per_s": statistics.median(
            cuts / sum(p.latencies[i] for i in cut_ops) for p in passes),
        "points_per_s": statistics.median(
            points / sum(p.latencies[i] for i in point_ops) for p in passes),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(untraced: list[PassResult], traced: list[tuple[PassResult, dict]]) -> dict:
    summaries = [s for _, s in traced]
    values = dict(summaries[0])
    for name, unit, _ in PER_LAYER:
        if unit == "s" and values.get(name) is not None:
            values[name] = statistics.median(s[name] for s in summaries)
    base = statistics.median(p.wall for p in untraced)
    values["trace.overhead_frac"] = (statistics.median(p.wall for p, _ in traced) - base) / base
    out = {}
    for name, unit, _ in PER_LAYER:
        value = values.get(name)
        out[name] = {"value": value, "unit": unit} if value is not None else {
            "value": None, "unit": unit, "missing": True}
    return out


def environment(name: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "why": wl.WHY[name],
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "entmean": entmean.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 caller",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        verifier = Verifier()
        untraced: list[PassResult] = []
        traced: list[tuple[PassResult, dict]] = []
        deadline = time.perf_counter() + args.seconds
        last = None
        while not untraced or time.perf_counter() < deadline:
            untraced.append(run_pass(workload, verifier))
            if args.trace:
                last = tr.Tracer()
                traced.append((run_pass(workload, verifier, last), tr.summarize(last)))
        if last is not None:
            OUT_DIR.mkdir(exist_ok=True)
            last.write(OUT_DIR / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + [p for p, _ in traced]
    problems = [msg for p in passes for op_problems in p.problems for msg in op_problems]
    failed = sum(1 for p in passes for op_problems in p.problems if op_problems)
    attempted = sum(len(p.latencies) for p in passes)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(workload, untraced, setup_s)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {"passes": len(untraced), "traced_passes": len(traced),
                    "ops": sum(len(p.latencies) for p in untraced)},
        "env": environment(args.workload, args.seed),
        "problems": sorted(set(problems))[:20],
        "notes": verifier.notes(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
