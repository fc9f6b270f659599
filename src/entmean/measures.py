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

# The product-cut rule, applied by every measure through _biseparable: a cut
# whose concurrence is below ZERO_CUT_TOL is a product cut, and then gbc, gmc,
# ggm and the fill are exactly 0.0 rather than round-off.
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
    """Geometric mean of the concurrences over every bipartition.

    Computed as exp(mean of logs) so the product of up to 2**(n-1) - 1
    factors never under- or overflows; returns exactly 0.0 as soon as any
    cut is a product cut.
    """
    return _log_mean(_concurrences(cut_entropies(state)[0], regularized))[0]


def gmc(state: PureState, regularized: bool = True) -> float:
    """Minimum bipartite concurrence over every bipartition."""
    return _gmc(_concurrences(cut_entropies(state)[0], regularized))


def ggm(state: PureState) -> float:
    """One minus the largest squared Schmidt coefficient over all cuts."""
    rows, top = cut_entropies(state)
    return _ggm(top, _concurrences(rows, regularized=True))


def concurrence_fill(state: PureState) -> float:
    """Triangle-area measure for exactly three qubits.

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
    return _fill(_concurrences(cut_entropies(state)[0], regularized=True))


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
    """Evaluate every applicable measure of one state from one pass over the cuts."""
    rows, top = cut_entropies(state)
    return _report(rows, top, state.dims, regularized)


def grid_columns(
    dims: tuple[int, ...], grid: np.ndarray, names: tuple[str, ...]
) -> list[dict[str, float]]:
    """The named measures (gbc, gmc, ggm, fill) of each row of a real (k, prod(dims)) grid.

    One stacked pass over the cuts serves every row (linalg.grid_cut_entropies),
    and each row's values equal those of full_report of the row's state on the
    dense path, as Python floats.  The concurrences, gmc and ggm are taken
    column-wise, with the IEEE operations of _concurrence, _gmc and _ggm.  gbc
    and the fill stay per row: numpy's log is not math.log to the last bit,
    and fsum and the fourth root have no bit-equal array form.
    """
    cuts, mixedness, top = grid_cut_entropies(dims, grid)
    d_min = np.array([d for _, d in cuts], dtype=float)
    conc = np.minimum(1.0, np.sqrt(d_min / (d_min - 1.0) * mixedness))
    product = (conc < ZERO_CUT_TOL).any(axis=1)
    columns = {}
    if "gmc" in names:
        columns["gmc"] = np.where(product, 0.0, conc.min(axis=1)).tolist()
    if "ggm" in names:
        columns["ggm"] = np.where(product, 0.0, np.maximum(0.0, 1.0 - top)).tolist()
    # one row of Python floats at a time, so the grid is not held twice
    if "gbc" in names:
        columns["gbc"] = [_log_mean(values)[0] for values in map(np.ndarray.tolist, conc)]
    if "fill" in names:
        # full_report has a fill on three qubits only
        three_qubits = dims == (2, 2, 2)
        columns["fill"] = [
            _fill(values) if three_qubits else None for values in map(np.ndarray.tolist, conc)
        ]
    return [dict(zip(names, values)) for values in zip(*(columns[name] for name in names))]


def _report(rows, top: float, dims, regularized: bool) -> MeasureReport:
    """Every measure of one state from its (part, d_min, mixedness) rows and largest weight."""
    values = _concurrences(rows, regularized)
    mean, product = _log_mean(values)
    fill = None
    if dims == (2, 2, 2):
        # the fill is always regularized
        fill = _fill(values if regularized else _concurrences(rows, True))
    return MeasureReport(
        per_bipartition=tuple((part, v) for (part, _, _), v in zip(rows, values)),
        product_p=product,
        cardinality=len(rows),
        gbc=mean,
        gmc=_gmc(values),
        ggm=_ggm(top, values),
        fill=fill,
    )


def _concurrence(d_min: int, mixedness: float, regularized: bool) -> float:
    if regularized:
        return min(1.0, math.sqrt(d_min / (d_min - 1.0) * mixedness))
    return math.sqrt(2.0 * mixedness)


def _concurrences(rows, regularized: bool) -> list[float]:
    return [_concurrence(d_min, mixedness, regularized) for _, d_min, mixedness in rows]


def _biseparable(values) -> bool:
    return any(v < ZERO_CUT_TOL for v in values)


def _log_mean(values) -> tuple[float, float]:
    """(geometric mean, product) of the concurrences from one sum of logs."""
    if _biseparable(values):
        return 0.0, 0.0
    # fsum over the canonical cut order: reproducible bit-for-bit and
    # insensitive to accumulation order.
    log_sum = math.fsum(map(math.log, values))
    return math.exp(log_sum / len(values)), math.exp(log_sum)


def _gmc(values) -> float:
    return 0.0 if _biseparable(values) else min(values)


def _ggm(top: float, values) -> float:
    # top: the largest Schmidt weight over all cuts
    if _biseparable(values):
        return 0.0
    return max(0.0, 1.0 - top)


def _fill(values) -> float:
    # regularized concurrences in the canonical three-qubit order 0|12, 01|2,
    # 02|1: party k alone is cut 0, 2, 1
    c0, c2, c1 = values
    if _biseparable(values):
        return 0.0
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
