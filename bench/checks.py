"""Output checks for the benchmark operations.

Every check returns a list of problems; an operation whose list is not
empty counts as failed.  Values are compared with one tolerance, TOL,
against either stored reference values (reference.json, for the outputs
that do not depend on the seed) or an independent recomputation from the
state vector (for the seeded random states).  The independent path forms
the reduced state rho_A = M M^dagger of each cut and takes its purity and
largest eigenvalue, so it shares no code with entmean's SVD pipeline.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import entmean
import workloads as wl

TOL = 1e-6
# gbc of a biseparable state is exactly 0.0: entmean short-circuits it.
# gmc and ggm are only promised to vanish (README; the acceptance test of
# discriminance allows 1e-10), and entmean leaves them at round-off level,
# up to a few 1e-16, on the product cut.  They are held to the library's
# vanishing-cut threshold, measures.ZERO_CUT_TOL; inexact_zeros() reports
# the ones that are not exactly 0.0 without failing the operation.
ZERO_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def signature(op: wl.Op, output) -> object:
    """A value that is equal for two runs of op exactly when the outputs are."""
    if op.kind == "report":
        return tuple(v for _, v in output.per_bipartition) + (
            output.gbc, output.gmc, output.ggm, output.fill, output.product_p,
        )
    if op.kind == "cli":
        code, stdout = output
        return (code, stdout) + tuple(sha256(p.read_bytes()) for p in op.files)
    if op.kind == "sweep":
        return tuple((row.theta, tuple(sorted(row.values.items()))) for row in output)
    return (output.theta, output.value, output.plateau)


def check(op: wl.Op, output, ref: dict) -> list[str]:
    if op.kind == "report":
        return check_report(op, output, ref.get("report-large", {}))
    if op.kind == "cli":
        return check_cli(op, output, ref["sweep-cli"])
    if op.kind == "sweep":
        return check_rows(output, ref["sweep-cli"]["run_sweep"][output[0].family],
                          wl.PEAK_STEPS)
    return check_peak(op, output, ref["sweep-cli"]["peaks"][op.label])


# --- reports -------------------------------------------------------------


def reference_cuts(state: entmean.PureState) -> dict[int, tuple[float, float]]:
    """Independent (concurrence, largest Schmidt weight) for every cut mask."""
    dims = state.dims
    n = len(dims)
    tensor = np.asarray(state.amplitudes).reshape(dims)
    out = {}
    for mask in range(1, 1 << n, 2):
        if mask == (1 << n) - 1:
            continue
        side_a = [k for k in range(n) if mask >> k & 1]
        side_b = [k for k in range(n) if not mask >> k & 1]
        d_a = math.prod(dims[k] for k in side_a)
        d_b = math.prod(dims[k] for k in side_b)
        m = tensor.transpose(side_a + side_b).reshape(d_a, d_b)
        rho = m @ m.conj().T if d_a <= d_b else m.conj().T @ m
        purity = float(np.vdot(rho, rho).real)
        d_min = min(d_a, d_b)
        conc = min(1.0, math.sqrt(d_min / (d_min - 1.0) * max(0.0, 1.0 - purity)))
        out[mask] = (conc, float(np.linalg.eigvalsh(rho)[-1]))
    return out


def check_report(op: wl.Op, report, stored: dict) -> list[str]:
    problems = []
    state = op.state
    n = len(state.dims)
    masks = [part.subset_a for part, _ in report.per_bipartition]
    if report.cardinality != wl.cardinality(n) or len(masks) != report.cardinality:
        problems.append(f"{op.label}: {len(masks)} cuts, expected {wl.cardinality(n)}")
    values = [v for _, v in report.per_bipartition]
    named = {"gbc": report.gbc, "gmc": report.gmc, "ggm": report.ggm}
    if report.fill is not None:
        named["fill"] = report.fill
    problems += _in_unit_interval(op.label, values + list(named.values()) + [report.product_p])

    if op.biseparable:
        if report.gbc != 0.0 or not (report.gmc <= ZERO_TOL and report.ggm <= ZERO_TOL):
            problems.append(
                f"{op.label}: biseparable but gbc={report.gbc!r} ggm={report.ggm!r} "
                f"gmc={report.gmc!r}"
            )
    if op.label in stored:
        closed = {"w": entmean.gbc_w, "ghz": entmean.gbc_ghz}[op.label.rstrip("0123456789")]
        exact = closed(n).gbc
        if abs(report.gbc - exact) > CLOSED_FORM_TOL:
            problems.append(f"{op.label}: gbc {report.gbc!r} vs closed form {exact!r}")
        problems += _close(op.label, named, stored[op.label])

    ref = reference_cuts(state)
    if set(masks) != set(ref):
        problems.append(f"{op.label}: cut set differs from the 2^(n-1)-1 canonical cuts")
        return problems
    ref_conc = [ref[mask][0] for mask in masks]
    worst = max(abs(a - b) for a, b in zip(values, ref_conc))
    if worst > TOL:
        problems.append(f"{op.label}: cut concurrence off by {worst:.3e} from the reference")
    expected = {
        "gmc": min(ref_conc),
        "ggm": max(0.0, 1.0 - max(lam for _, lam in ref.values())),
        "gbc": 0.0 if op.biseparable else math.exp(math.fsum(map(math.log, ref_conc)) / len(ref_conc)),
    }
    problems += _close(op.label, {k: named[k] for k in expected}, expected)
    return problems


def inexact_zeros(op: wl.Op, report) -> dict[str, float]:
    """gmc and ggm values of a biseparable report that are not exactly 0.0."""
    if not op.biseparable:
        return {}
    return {name: value for name, value in (("gmc", report.gmc), ("ggm", report.ggm)) if value != 0.0}


# --- sweep-cli -----------------------------------------------------------


def check_cli(op: wl.Op, output, ref: dict) -> list[str]:
    code, stdout = output
    if code != 0:
        return [f"{op.label}: exit code {code}"]
    kind = op.label.split("-")[0]
    path = op.files[0]
    if kind == "sweep":
        family = op.label.split("-")[1]
        problems = _expect_stdout(op.label, stdout, f"wrote {wl.SWEEP_STEPS} rows to {path}\n")
        rows = read_csv(path)
        problems += check_csv_rows(op.label, rows, ref["csv"][family], wl.SWEEP_STEPS, family)
        script = op.files[1].read_text(encoding="ascii").replace(str(path), "{csv}")
        if sha256(script.encode()) != ref["plot_sha256"][family]:
            problems.append(f"{op.label}: gnuplot script differs from the reference")
        return problems
    if kind == "ordering":
        doc = json.loads(path.read_text(encoding="ascii"))
        found = doc["findings"]
        problems = _expect_stdout(op.label, stdout, f"wrote {len(found)} findings to {path}\n")
        if len(found) != ref["ordering"]["count"]:
            problems.append(f"{op.label}: {len(found)} findings, reference {ref['ordering']['count']}")
        if ordering_signature(found) != ref["ordering"]["order_sha256"]:
            problems.append(f"{op.label}: findings differ in order or content from the reference")
        problems += _in_unit_interval(op.label, [v for f in found for v in f["values"].values()])
        return problems
    table = read_csv(path)
    problems = _expect_stdout(op.label, stdout, f"wrote {len(table) - 1} rows to {path}\n")
    if table[0] != ["n", "gbc_ghz", "gbc_w", "ratio"] or len(table) - 1 != len(ref["closed_form"]):
        return problems + [f"{op.label}: closed-form table has the wrong header or length"]
    for cells, expected in zip(table[1:], ref["closed_form"]):
        got = [float(c) for c in cells]
        problems += _in_unit_interval(op.label, got[1:])
        if int(cells[0]) != expected[0] or max(abs(a - b) for a, b in zip(got[1:], expected[1:])) > TOL:
            problems.append(f"{op.label}: row n={cells[0]} differs from the reference")
    return problems


def check_csv_rows(label, table, ref: dict, steps: int, family: str) -> list[str]:
    header = ["family", "theta", "gbc", "gmc", "ggm", "fill"]
    if table[0] != header or len(table) - 1 != steps:
        return [f"{label}: CSV has the wrong header or {len(table) - 1} rows"]
    problems = []
    body = table[1:]
    if any(cells[0] != family for cells in body):
        problems.append(f"{label}: CSV rows name the wrong family")
    values = [float(c) for cells in body for c in cells[2:] if c]
    problems += _in_unit_interval(label, values)
    every = ref["sample_every"]
    for got, expected in zip(body[::every], ref["sample"]):
        numbers = [float(c) if c else None for c in got[1:]]
        if not _rows_close(numbers, expected):
            problems.append(f"{label}: row theta={got[1]} differs from the reference")
    return problems


def check_rows(rows, ref: dict, steps: int) -> list[str]:
    label = f"run_sweep-{rows[0].family}"
    if len(rows) != steps:
        return [f"{label}: {len(rows)} rows, expected {steps}"]
    problems = _in_unit_interval(label, [v for row in rows for v in row.values.values()])
    columns = ("gbc", "gmc", "ggm", "fill")
    for row, expected in zip(rows[:: ref["sample_every"]], ref["sample"]):
        numbers = [row.theta] + [row.values.get(c) for c in columns]
        if not _rows_close(numbers, expected):
            problems.append(f"{label}: row theta={row.theta!r} differs from the reference")
    return problems


def check_peak(op: wl.Op, peak, expected: list) -> list[str]:
    theta, value, plateau = expected
    problems = _in_unit_interval(op.label, [peak.value])
    if peak.plateau != plateau or abs(peak.theta - theta) > TOL or abs(peak.value - value) > TOL:
        problems.append(
            f"{op.label}: peak ({peak.theta!r}, {peak.value!r}, {peak.plateau}) "
            f"vs reference ({theta!r}, {value!r}, {plateau})"
        )
    return problems


def ordering_signature(findings: list[dict]) -> str:
    """Digest of the findings' kinds and grid angles, in order."""
    parts = []
    for f in findings:
        thetas = f["theta_pair"] or f["theta_interval"]
        parts.append(f"{f['kind']}:{f['family']}:" + ",".join(format(t, ".12g") for t in thetas))
    return sha256("\n".join(parts).encode())


# --- helpers -------------------------------------------------------------


def _close(label: str, got: dict, expected: dict) -> list[str]:
    return [
        f"{label}: {name} {got[name]!r} vs reference {expected[name]!r}"
        for name in expected
        if abs(got[name] - expected[name]) > TOL
    ]


def _rows_close(got: list, expected: list) -> bool:
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        if (a is None) != (b is None):
            return False
        if a is not None and abs(a - b) > TOL:
            return False
    return True


def _in_unit_interval(label: str, values) -> list[str]:
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    return [f"{label}: {len(bad)} values outside [0, 1], e.g. {bad[0]!r}"] if bad else []


def _expect_stdout(label: str, got: str, expected: str) -> list[str]:
    return [] if got == expected else [f"{label}: stdout {got!r}, expected {expected!r}"]


def read_csv(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="ascii"))))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
