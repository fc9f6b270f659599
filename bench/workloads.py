"""Seeded inputs and the operation list of each benchmark workload.

A workload is a fixed list of operations, one pass.  The runner repeats
passes closed-loop: one caller, and each operation starts when the previous
one has returned.  Every input comes from the run seed; entmean only ever
receives the generated states or a CLI argv.  Library entry points are
looked up on their modules at call time, so the tracer sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import entmean
import entmean.cli

WHY = {
    "report-large": (
        "kernel-bound: full_report on four 12-qubit states, 2047 cuts each with "
        "matrices up to 64x64, so SVD dominates and sweep, validation and cli stay idle"
    ),
    "report-mixed": (
        "300 seeded 3-8 party qudit states, a quarter biseparable: many small "
        "(d_A, d_B) groups, an overhead-bound median and a kernel-bound tail"
    ),
    "sweep-cli": (
        "overhead-bound: in-process CLI sweeps, ordering mining, closed forms and "
        "find_peak over ~8k tiny 3-4 qubit states; the only user of sweep and cli"
    ),
}

LARGE_QUBITS = 12
MIXED_STATES = 300
MIXED_MAX_DIM = 4096
# The party counts and local dimensions of report-mixed are a fixed schedule,
# drawn once from this constant seed, so that every run seed does the same
# amount of work and the per-layer counts repeat exactly between runs.  The
# run seed draws the amplitudes, the party order and the biseparable splits.
MIXED_SHAPE_SEED = 20211220
MIXED_BISEPARABLE_EVERY = 4

SWEEP_STEPS = 1001
ORDERING_STEPS = 2001
ORDERING_ARGS = ("--x", "fill", "--y", "gbc", "--match-tol", "2e-3", "--sep-min", "2e-2")
CLOSED_FORM_N_MAX = 64
PEAK_STEPS = 201
FAMILIES = ("a", "b", "c")
FAMILY_CUTS = {"a": 3, "b": 3, "c": 7}


@dataclass
class Op:
    """One timed operation of a pass.

    cuts counts the cut concurrences the operation delivers and points the
    states it measures (grid points for sweeps, one per report).
    """

    kind: str
    label: str
    call: Callable[[], object]
    cuts: int = 0
    points: int = 0
    state: entmean.PureState | None = None
    biseparable: bool = False
    files: tuple[Path, ...] = ()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    workdir: Path | None = None


def cardinality(n_parties: int) -> int:
    return (1 << (n_parties - 1)) - 1


def haar_vector(dims, rng) -> np.ndarray:
    total = math.prod(dims)
    vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return vec / np.linalg.norm(vec)


def biseparable_state(dims, split: int, rng) -> entmean.PureState:
    """Haar(dims[:split]) x Haar(dims[split:]) with its parties shuffled."""
    product = np.kron(haar_vector(dims[:split], rng), haar_vector(dims[split:], rng))
    state = entmean.make_custom(dims, product, renormalize=True)
    return entmean.permute_parties(state, rng.permutation(len(dims)))


def mixed_shapes() -> list[tuple[int, ...]]:
    """The fixed report-mixed schedule of local dimensions."""
    rng = np.random.default_rng(MIXED_SHAPE_SEED)
    shapes = []
    while len(shapes) < MIXED_STATES:
        n = int(rng.integers(3, 9))
        dims = tuple(int(d) for d in rng.choice((2, 3, 4), size=n))
        if math.prod(dims) <= MIXED_MAX_DIM:
            shapes.append(dims)
    return shapes


def large_states(seed: int) -> list[tuple[str, entmean.PureState, bool]]:
    rng = np.random.default_rng(seed)
    n = LARGE_QUBITS
    half = n // 2
    dims = (2,) * n
    return [
        (f"w{n}", entmean.make_w(n), False),
        (f"ghz{n}", entmean.make_ghz(n), False),
        (f"haar{n}", entmean.make_custom(dims, haar_vector(dims, rng), renormalize=True), False),
        (f"haar{half}xhaar{half}", biseparable_state(dims, half, rng), True),
    ]


def mixed_states(seed: int) -> list[tuple[str, entmean.PureState, bool]]:
    rng = np.random.default_rng(seed)
    out = []
    for i, shape in enumerate(mixed_shapes()):
        dims = tuple(int(d) for d in rng.permutation(shape))
        label = f"{i}:{'x'.join(map(str, dims))}"
        if i % MIXED_BISEPARABLE_EVERY == MIXED_BISEPARABLE_EVERY - 1:
            split = int(rng.integers(1, len(dims)))
            out.append((label + ":bisep", biseparable_state(dims, split, rng), True))
        else:
            state = entmean.make_custom(dims, haar_vector(dims, rng), renormalize=True)
            out.append((label, state, False))
    return out


def report_ops(states) -> list[Op]:
    return [
        Op(
            "report", label, lambda s=state: entmean.full_report(s),
            cuts=cardinality(state.n_parties), points=1,
            state=state, biseparable=bisep,
        )
        for label, state, bisep in states
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """entmean.cli.main in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entmean.cli.main(argv)
    return code, out.getvalue()


def sweep_cli_ops(workdir: Path) -> list[Op]:
    ops = []
    for fam in FAMILIES:
        csv, plot = workdir / f"sweep_{fam}.csv", workdir / f"sweep_{fam}.gp"
        argv = ["sweep", "--family", fam, "--steps", str(SWEEP_STEPS),
                "--out", str(csv), "--plot", str(plot)]
        ops.append(Op("cli", f"sweep-{fam}", lambda a=argv: run_cli(a),
                      cuts=SWEEP_STEPS * FAMILY_CUTS[fam], points=SWEEP_STEPS,
                      files=(csv, plot)))
    out = workdir / "ordering.json"
    argv = ["ordering", "--family-x", "a", "--family-y", "b", *ORDERING_ARGS,
            "--steps", str(ORDERING_STEPS), "--out", str(out)]
    ops.append(Op("cli", "ordering-axb", lambda a=argv: run_cli(a),
                  cuts=2 * ORDERING_STEPS * 3, points=2 * ORDERING_STEPS, files=(out,)))
    out = workdir / "closed_form.csv"
    argv = ["closed-form", "--n-max", str(CLOSED_FORM_N_MAX), "--out", str(out)]
    ops.append(Op("cli", "closed-form", lambda a=argv: run_cli(a), files=(out,)))

    rows: dict[str, list] = {}

    def sweep(fam):
        rows[fam] = entmean.run_sweep(entmean.SweepSpec(family=fam, steps=PEAK_STEPS))
        return rows[fam]

    for fam in FAMILIES:
        ops.append(Op("sweep", f"run_sweep-{fam}", lambda f=fam: sweep(f),
                      cuts=PEAK_STEPS * FAMILY_CUTS[fam], points=PEAK_STEPS))
        for measure in peak_columns(fam):
            ops.append(Op("peak", f"find_peak-{fam}-{measure}",
                          lambda f=fam, m=measure: entmean.find_peak(rows[f], m)))
    return ops


def peak_columns(family: str) -> tuple[str, ...]:
    return ("gbc", "gmc", "ggm", "fill") if family in ("a", "b") else ("gbc", "gmc", "ggm")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload from its seed."""
    if name == "report-large":
        return Workload(name, report_ops(large_states(seed)))
    if name == "report-mixed":
        return Workload(name, report_ops(mixed_states(seed)))
    if name == "sweep-cli":
        workdir.mkdir(parents=True, exist_ok=True)
        return Workload(name, sweep_cli_ops(workdir), workdir)
    raise ValueError(f"unknown workload {name!r}, expected one of {sorted(WHY)}")


def warm_up(workload: Workload) -> None:
    """Touch every code path once on small inputs so lazy set-up is done."""
    entmean.full_report(entmean.make_ghz(3))
    entmean.full_report(entmean.make_w(6))
    if workload.name == "report-mixed":
        entmean.full_report(entmean.make_custom((3, 4, 2), np.ones(24), renormalize=True))
    if workload.name == "sweep-cli":
        wd = workload.workdir
        run_cli(["sweep", "--family", "c", "--steps", "5", "--out", str(wd / "warm.csv"),
                 "--plot", str(wd / "warm.gp")])
        run_cli(["closed-form", "--n-max", "4", "--out", str(wd / "warm_cf.csv")])
        rows = entmean.run_sweep(entmean.SweepSpec(family="a", steps=5))
        entmean.find_peak(rows, "gbc")
