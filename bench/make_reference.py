"""Regenerate bench/reference.json from the current entmean sources.

    python3 bench/make_reference.py

Only the seed-independent outputs are stored: the W12 and GHZ12 reports
and every sweep-cli output.  Run it only when a change to entmean is meant
to change those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil

import worker  # noqa: F401  (puts the checkout's src/ on sys.path)
import checks
import workloads as wl

SAMPLE_EVERY = {wl.SWEEP_STEPS: 50, wl.PEAK_STEPS: 20}


def main() -> None:
    ref: dict = {"tolerance": checks.TOL, "report-large": {}}
    for label, state, _ in wl.large_states(seed=0)[:2]:
        report = wl.entmean.full_report(state)
        ref["report-large"][label] = {"gbc": report.gbc, "gmc": report.gmc, "ggm": report.ggm}

    workdir = worker.OUT_DIR / "reference"
    workload = wl.build("sweep-cli", 0, workdir)
    sweep: dict = {"csv": {}, "plot_sha256": {}, "run_sweep": {}, "peaks": {}}
    try:
        for op in workload.ops:
            output = op.call()
            if op.kind == "cli" and op.label.startswith("sweep-"):
                family = op.label.split("-")[1]
                table = checks.read_csv(op.files[0])[1:]
                every = SAMPLE_EVERY[wl.SWEEP_STEPS]
                sweep["csv"][family] = {
                    "sample_every": every,
                    "sample": [[float(c) if c else None for c in row[1:]] for row in table[::every]],
                }
                script = op.files[1].read_text(encoding="ascii")
                sweep["plot_sha256"][family] = checks.sha256(
                    script.replace(str(op.files[0]), "{csv}").encode()
                )
            elif op.label.startswith("ordering"):
                found = json.loads(op.files[0].read_text(encoding="ascii"))["findings"]
                sweep["ordering"] = {"count": len(found), "order_sha256": checks.ordering_signature(found)}
            elif op.label == "closed-form":
                table = checks.read_csv(op.files[0])[1:]
                sweep["closed_form"] = [[int(r[0])] + [float(c) for c in r[1:]] for r in table]
            elif op.kind == "sweep":
                every = SAMPLE_EVERY[wl.PEAK_STEPS]
                sweep["run_sweep"][output[0].family] = {
                    "sample_every": every,
                    "sample": [
                        [row.theta] + [row.values.get(c) for c in ("gbc", "gmc", "ggm", "fill")]
                        for row in output[::every]
                    ],
                }
            elif op.kind == "peak":
                sweep["peaks"][op.label] = [output.theta, output.value, output.plateau]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["sweep-cli"] = sweep
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
