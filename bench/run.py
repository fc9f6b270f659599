#!/usr/bin/env python3
"""The entmean benchmark: one command, each workload in its own fresh process.

Run from the repository root:

    python3 bench/run.py --workload report-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads: report-large, report-mixed and sweep-cli (see BENCHMARK.json for
why each was chosen), or "all" to run the three one after another.  Each
workload runs in a fresh single-threaded Python process (bench/worker.py)
with the BLAS thread count pinned to 1, so peak_rss_mb is that workload's
own high-water mark.  set-up time is sampled in SETUP_SAMPLES fresh
processes and reported as the median.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans are written to bench/out/spans-<workload>.npz).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it, starting with "#", give
the metrics in readable form, their sample counts and the environment.
The exit status is 1 when an output check fails and 2 when the entmean
sources are not found next to bench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("report-large", "report-mixed", "sweep-cli")
SETUP_SAMPLES = 11
TIME_LIMIT_S = 175.0


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, started: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    def sample_setup(count: int) -> list[float]:
        return [run_worker(common + ["--setup-only"], remaining())["setup_s"] for _ in range(count)]

    # The extra set-up samples are split around the timed run, so that their
    # median spans the whole run rather than one moment of it.
    before = [] if trace else sample_setup(SETUP_SAMPLES // 2)
    result = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], remaining())
    if not trace:
        setup = before + [result["metrics"]["setup_s"]["value"]]
        setup += sample_setup(SETUP_SAMPLES - len(setup))
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        result["samples"]["setup"] = len(setup)
    return result


def show(result: dict) -> None:
    env = result["env"]
    samples = result["samples"]
    print(f"# workload {env['workload']} (seed {env['seed']}): {env['why']}")
    print(f"# samples: {json.dumps(samples)}")
    for name, metric in result["metrics"].items():
        value = "missing" if metric.get("missing") else f"{metric['value']:.6g}"
        print(f"#   {name:<30} {value:>14} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"#   {'fail_frac':<30} {fail_frac:>14.6g} ({result['failed']}/{result['attempted']} operations)")
    for note in result["notes"]:
        print(f"# note: {note}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entmean benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entmean" / "__init__.py").is_file():
        print(f"error: entmean sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, started)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        show(result)
        results.append(result)
        if len(names) > 1:
            started = time.monotonic()

    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['env']['workload']}/{key}": value
            for r in results for key, value in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
