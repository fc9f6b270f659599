"""Genuine-multipartite-entanglement measures on pure states.

Four aggregates over the bipartite cuts of a state:

* gbc  -- geometric mean of all bipartite concurrences,
* gmc  -- minimum bipartite concurrence,
* ggm  -- one minus the largest squared Schmidt coefficient over all cuts,
* concurrence_fill -- triangle-area measure, three qubits only.

All of them vanish exactly on biseparable states and are strictly
positive on genuinely entangled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipartitions import Bipartition
from .linalg import cut_entropies, grid_cut_entropies, linear_entropy, schmidt_weights
from .states import PureState

# The product-cut rule, applied by full_report and grid_columns: a cut whose
# concurrence is below ZERO_CUT_TOL is a product cut, and then gbc, gmc, ggm
# and the fill are exactly 0.0 rather than round-off.
ZERO_CUT_TOL = 1e-12

_FILL_NORMALIZATION = 16.0 / 3.0
_TRIANGLE_TOL = 1e-9


def concurrence(
    state: PureState, part: Bipartition, regularized: bool = True
) -> float:
    """Bipartite concurrence of a pure state across one cut.

    With regularized=True the prefactor d_min/(d_min - 1) is used, so the
    value reaches 1 exactly when the smaller side is maximally mixed and
    stays in [0, 1] for any local dimensions.  regularized=False uses the
    plain prefactor 2; the two agree when the smaller side is a qubit and
    otherwise differ by the constant factor sqrt(d_min / (2 (d_min - 1))).
    """
    weights = schmidt_weights(state, part)
    return _concurrence(len(weights), linear_entropy(weights), regularized)


def gbc(state: PureState, regularized: bool = True) -> float:
    """Geometric mean of the concurrences over every bipartition: full_report's gbc.

    Computed as exp(mean of logs) so the product of up to 2**(n-1) - 1
    factors never under- or overflows; returns exactly 0.0 as soon as any
    cut is a product cut.
    """
    return full_report(state, regularized).gbc


def gmc(state: PureState, regularized: bool = True) -> float:
    """Minimum bipartite concurrence over every bipartition: full_report's gmc."""
    return full_report(state, regularized).gmc


def ggm(state: PureState) -> float:
    """One minus the largest squared Schmidt coefficient over all cuts: full_report's ggm."""
    return full_report(state).ggm


def concurrence_fill(state: PureState) -> float:
    """Triangle-area measure for exactly three qubits: full_report's fill.

    The sides of the triangle are the three squared one-to-other
    concurrences; the value is the fourth root of 16/3 times Heron's
    product, which makes an equilateral unit triangle score exactly 1.
    Degenerate triangles (one vanishing cut, or a saturated triangle
    inequality) score 0.
    """
    if state.dims != (2, 2, 2):
        raise ValueError(
            f"concurrence fill needs exactly 3 qubits, got dims {state.dims}"
        )
    return full_report(state).fill


@dataclass(frozen=True)
class MeasureReport:
    """All measures of one state plus the per-cut concurrences behind them.

    product_p is the plain product of the concurrences; it underflows to
    0.0 for large party counts even when gbc (kept in the log domain) is
    well-defined.  fill is present only for three-qubit states.
    """

    per_bipartition: tuple[tuple[Bipartition, float], ...]
    product_p: float
    cardinality: int
    gbc: float
    gmc: float
    ggm: float
    fill: float | None

    def to_json_dict(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "concurrences": {
                part.label: value for part, value in self.per_bipartition
            },
            "product": self.product_p,
            "gbc": self.gbc,
            "gmc": self.gmc,
            "ggm": self.ggm,
            "fill": self.fill,
        }


def full_report(state: PureState, regularized: bool = True) -> MeasureReport:
    """Evaluate every applicable measure of one state from one pass over the cuts.

    gbc, gmc, ggm and concurrence_fill each return one field of this report.
    """
    parts, d_mins, mixedness, top = cut_entropies(state)
    values = _concurrences(d_mins, mixedness, regularized)
    product_cut = any(v < ZERO_CUT_TOL for v in values)
    mean, product = (0.0, 0.0) if product_cut else _log_mean(values)
    fill = None
    if state.dims == (2, 2, 2):
        # the fill is always regularized
        fill = 0.0 if product_cut else _fill(
            values if regularized else _concurrences(d_mins, mixedness, True))
    return MeasureReport(
        per_bipartition=tuple(zip(parts, values)),
        product_p=product,
        cardinality=len(parts),
        gbc=mean,
        gmc=0.0 if product_cut else min(values),
        # top: the largest Schmidt weight over all cuts
        ggm=0.0 if product_cut else max(0.0, 1.0 - top),
        fill=fill,
    )


def grid_columns(
    dims: tuple[int, ...], grid: np.ndarray, names: tuple[str, ...]
) -> list[dict[str, float]]:
    """The named measures (gbc, gmc, ggm, fill) of each row of a real (k, prod(dims)) grid.

    One stacked pass over the cuts serves every row (linalg.grid_cut_entropies),
    and each row's values equal those of full_report of the row's state on the
    dense path, as Python floats.  The concurrences, gmc and ggm are taken
    column-wise, with the IEEE operations of _concurrence and full_report.  gbc
    and the fill stay per row: numpy's log is not math.log to the last bit,
    and fsum and the fourth root have no bit-equal array form.
    """
    d_mins, mixedness, top = grid_cut_entropies(dims, grid)
    d_min = np.array(d_mins, dtype=float)
    conc = np.minimum(1.0, np.sqrt(d_min / (d_min - 1.0) * mixedness))
    product = (conc < ZERO_CUT_TOL).any(axis=1)
    columns = {}
    if "gmc" in names:
        columns["gmc"] = np.where(product, 0.0, conc.min(axis=1)).tolist()
    if "ggm" in names:
        columns["ggm"] = np.where(product, 0.0, np.maximum(0.0, 1.0 - top)).tolist()

    def rows():
        # one row of Python floats at a time, so the grid is not held twice
        return zip(product.tolist(), map(np.ndarray.tolist, conc))

    if "gbc" in names:
        columns["gbc"] = [0.0 if zero else _log_mean(values)[0] for zero, values in rows()]
    if "fill" in names:
        # full_report has a fill on three qubits only
        three_qubits = dims == (2, 2, 2)
        columns["fill"] = [
            (0.0 if zero else _fill(values)) if three_qubits else None for zero, values in rows()
        ]
    return [dict(zip(names, values)) for values in zip(*(columns[name] for name in names))]


def _concurrence(d_min: int, mixedness: float, regularized: bool) -> float:
    if regularized:
        return min(1.0, math.sqrt(d_min / (d_min - 1.0) * mixedness))
    return math.sqrt(2.0 * mixedness)


def _concurrences(d_mins, mixedness, regularized: bool) -> list[float]:
    return [_concurrence(d, m, regularized) for d, m in zip(d_mins, mixedness)]


def _log_mean(values) -> tuple[float, float]:
    """(geometric mean, product) of concurrences free of product cuts, from one sum of logs."""
    # fsum over the canonical cut order: reproducible bit-for-bit and
    # insensitive to accumulation order.
    log_sum = math.fsum(map(math.log, values))
    return math.exp(log_sum / len(values)), math.exp(log_sum)


def _fill(values) -> float:
    # regularized concurrences, none of them a product cut, in the canonical
    # three-qubit order 0|12, 01|2, 02|1: party k alone is cut 0, 2, 1
    c0, c2, c1 = values
    sides = [c0**2, c1**2, c2**2]
    for i in range(3):
        others = sides[(i + 1) % 3] + sides[(i + 2) % 3]
        if sides[i] > others + _TRIANGLE_TOL:
            raise ArithmeticError(
                f"squared concurrences {sides} violate the triangle inequality"
            )
    q = 0.5 * sum(sides)
    heron = q * (q - sides[0]) * (q - sides[1]) * (q - sides[2])
    return (_FILL_NORMALIZATION * max(0.0, heron)) ** 0.25
