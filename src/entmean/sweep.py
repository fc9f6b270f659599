"""Theta sweeps over the parameterized families, peak location, ordering
analysis, and CSV/gnuplot/JSON emission.

Grids are deterministic (theta_i = i * (pi/2) / (steps - 1) on [0, pi/2]);
identical specs produce byte-identical CSV files.  A sweep builds its whole
grid as one real amplitude array and measures it with one stacked step per
cut; each row equals full_report of the family's state at that theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import measures
from .states import FAMILIES, PureState, _family_state, family_grid

# the MeasureReport fields a sweep can hold, in CSV column order
MEASURE_COLUMNS = ("gbc", "gmc", "ggm", "fill")

# upper bound on SweepSpec.steps, so the grid, the mined findings and the
# files written stay bounded for every CLI argument
MAX_STEPS = 10_001
# upper bound on the pair findings of one mining run: a tolerance every pair
# meets would otherwise list about MAX_STEPS**2 of them
MAX_FINDINGS = 250_000
# the miner gathers the candidate pairs of rows with narrow x-windows into
# blocks of at most _BLOCK_BUDGET pairs.  A row whose window is wider than
# _WIDE_WINDOW (at most _BLOCK_BUDGET) is tested on its own: numpy compares
# a scalar with a contiguous slice several times faster per element than a
# gathered pair, and that pays for the per-row calls near this width.
_BLOCK_BUDGET = 4096
_WIDE_WINDOW = 256
_THETA_MAX = math.pi / 2.0
# golden-section theta tolerance, far above the float spacing on [0, pi/2]
_PEAK_TOL = 1e-6
_PLATEAU_TOL = 1e-12
_SLOPE_EPS = 1e-15
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _require_known(kind: str, name, known) -> None:
    """Reject a family or measure name outside known, listing the known ones."""
    if name not in known:
        raise ValueError(f"unknown {kind} {name!r}, expected one of {known}") from None


def family_state(family: str, theta: float) -> PureState:
    """State of one parameterized family at a given angle: make_family_<family>(theta)."""
    if family not in FAMILIES:
        _require_known("family", family, sorted(FAMILIES))
    return _family_state(family, theta)


def measure_value(state: PureState, name: str) -> float:
    """Evaluate one measure by column name: that field of the state's full_report."""
    _require_known("measure", name, MEASURE_COLUMNS)
    # looked up on the module at call time, so wrappers installed there
    # (profilers, tracers) also see the evaluations made here
    value = getattr(measures.full_report(state), name)
    if value is None:
        # no fill off three qubits: concurrence_fill raises its ValueError
        return measures.concurrence_fill(state)
    return value


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for one family sweep over theta in [0, pi/2].

    measures defaults to every column applicable to the family; the fill
    column is only defined for the three-qubit families.  steps is capped
    at MAX_STEPS.
    """

    family: str
    steps: int = 201
    measures: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _require_known("family", self.family, sorted(FAMILIES))
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {self.steps}")
        three_qubit = FAMILIES[self.family][0] == (2, 2, 2)
        chosen = self.measures
        if chosen is None:
            chosen = [m for m in MEASURE_COLUMNS if three_qubit or m != "fill"]
        chosen = tuple(chosen)
        if not chosen:
            raise ValueError("at least one measure is required")
        for name in chosen:
            _require_known("measure", name, MEASURE_COLUMNS)
        if "fill" in chosen and not three_qubit:
            raise ValueError(
                f"fill is defined for 3-qubit states only; "
                f"family {self.family!r} is not 3-qubit"
            )
        object.__setattr__(self, "measures", chosen)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: family, angle, and the measure values."""

    family: str
    theta: float
    values: dict[str, float]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every requested measure over the deterministic theta grid.

    The grid is measured as one stack (measures.grid_columns); each row's
    values equal those of full_report(family_state(family, theta)).
    """
    thetas = [i * _THETA_MAX / (spec.steps - 1) for i in range(spec.steps)]
    columns = measures.grid_columns(*family_grid(spec.family, thetas), spec.measures)
    return [SweepRow(spec.family, theta, values) for theta, values in zip(thetas, columns)]


@dataclass(frozen=True)
class PeakResult:
    """Located maximum of one measure column.

    plateau is set when the maximum spreads over more grid points than a
    single bracketing cell; theta is then the plateau midpoint and no
    refinement is attempted.
    """

    theta: float
    value: float
    plateau: bool = False


def find_peak(rows: list[SweepRow], measure: str) -> PeakResult:
    """Locate the maximizing theta of one measure column.

    The grid argmax is refined by golden-section search on the continuous
    measure to 1e-6 in theta (or the float spacing, if coarser); bracketing
    from the grid keeps this robust for the min-based measures' kinked peaks.
    """
    if len(rows) < 3:
        raise ValueError(f"peak search needs at least 3 rows, got {len(rows)}")
    _require_known("measure column", measure, tuple(rows[0].values))
    thetas = [row.theta for row in rows]
    values = [row.values[measure] for row in rows]
    top = max(values)
    best = values.index(top)
    lo_run = best
    while lo_run > 0 and top - values[lo_run - 1] <= _PLATEAU_TOL:
        lo_run -= 1
    hi_run = best
    while hi_run < len(values) - 1 and top - values[hi_run + 1] <= _PLATEAU_TOL:
        hi_run += 1
    if hi_run - lo_run >= 2:
        mid = 0.5 * (thetas[lo_run] + thetas[hi_run])
        return PeakResult(theta=mid, value=top, plateau=True)

    family = rows[0].family

    def objective(theta: float) -> float:
        return measure_value(family_state(family, theta), measure)

    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, len(rows) - 1)]
    theta = _golden_max(objective, lo, hi)
    return PeakResult(theta=theta, value=objective(theta), plateau=False)


def _golden_max(f, lo: float, hi: float) -> float:
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    # probes strictly inside the bracket shrink it every step, so the loop ends
    while hi - lo > _PEAK_TOL and lo < x1 < x2 < hi:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OrderingFinding:
    """One mined ordering fact.

    kind "equal-x-different-y": theta_pair = (theta in first sweep, theta
    in second sweep) where measure x matches within tolerance while
    measure y is separated.  kind "opposite-slope-interval": a maximal
    theta interval of a single sweep where x and y move in opposite
    directions; family names the sweep it was found on.
    """

    kind: str
    measure_x: str
    measure_y: str
    theta_pair: tuple[float, float] | None = None
    theta_interval: tuple[float, float] | None = None
    family: str | None = None
    values: dict[str, float] = field(default_factory=dict)


def find_ordering_reversals(
    rows_a: list[SweepRow],
    rows_b: list[SweepRow],
    x: str,
    y: str,
    match_tol: float = 1e-4,
    sep_min: float = 1e-2,
) -> list[OrderingFinding]:
    """Mine two sweeps for states indistinguishable in x but separated in y.

    Returns every grid pair (theta_a, theta_b) with |x_a - x_b| <=
    match_tol and |y_a - y_b| >= sep_min, followed by the maximal
    opposite-slope intervals of each individual sweep (x rising while y
    falls, or vice versa).  Passing the same list twice scans it once.
    More than MAX_FINDINGS pair findings, or a NaN tolerance (which no
    comparison meets), raise ValueError.
    """
    _require_tolerances(match_tol, sep_min)
    xa, ya = _column(rows_a, x), _column(rows_a, y)
    xb, yb = _column(rows_b, x), _column(rows_b, y)
    # Python floats, converted once: the findings hold these very values
    xa_f, ya_f, xb_f, yb_f = xa.tolist(), ya.tolist(), xb.tolist(), yb.tolist()
    thetas_a = [row.theta for row in rows_a]
    thetas_b = [row.theta for row in rows_b]
    findings = []
    for block_a, block_b in _matched_pairs(xa, ya, xb, yb, match_tol, sep_min):
        # checked before the block's findings are built
        if len(findings) + len(block_a) > MAX_FINDINGS:
            raise ValueError(
                f"more than {MAX_FINDINGS} findings with match_tol={match_tol!r} "
                f"and sep_min={sep_min!r}; tighten the tolerances"
            )
        findings.extend(
            OrderingFinding(
                kind="equal-x-different-y",
                measure_x=x,
                measure_y=y,
                theta_pair=(thetas_a[i], thetas_b[j]),
                values={"x_a": xa_f[i], "x_b": xb_f[j], "y_a": ya_f[i], "y_b": yb_f[j]},
            )
            for i, j in zip(block_a.tolist(), block_b.tolist())
        )
    findings.extend(_opposite_slope_intervals(rows_a, x, y, xa, ya))
    if rows_b is not rows_a:
        findings.extend(_opposite_slope_intervals(rows_b, x, y, xb, yb))
    return findings


def _matched_pairs(xa, ya, xb, yb, match_tol, sep_min):
    """Yield index arrays (i, j) of the pairs with |xa[i] - xb[j]| <=
    match_tol and |ya[i] - yb[j]| >= sep_min, row-major, j ascending within
    a row, a block of rows at a time.

    Float subtraction is monotone, so the j that match one i on x form one
    window of b sorted by x.  Each window is found by binary search on
    bounds widened past the few ulps by which rounding can move its edges,
    and the predicate above decides every candidate in it.
    """
    if not match_tol >= 0.0:
        return  # no |difference| is at most a negative tolerance
    order = np.argsort(xb, kind="stable")
    xs, ys = xb[order], yb[order]
    # a bound that overflows only widens its window; an infinite x makes its
    # bounds NaN, which sorts last: fmax drops it from the lower bound, and
    # as the upper one it already ends the window at the end of b
    with np.errstate(over="ignore", invalid="ignore"):
        pad = (np.abs(xa) + match_tol) * 2.0**-40
        lo = np.searchsorted(xs, np.fmax(xa - match_tol - pad, -np.inf), side="left")
        hi = np.searchsorted(xs, xa + match_tol + pad, side="right")
    width = np.maximum(hi - lo, 0)
    ends = np.cumsum(width)
    start = 0
    for wide in np.flatnonzero(width > _WIDE_WINDOW).tolist() + [len(xa)]:
        # rows with narrow windows: the candidates of as many rows as the
        # budget holds, gathered into one flat test
        while start < wide:
            done = ends[start - 1] if start else 0
            stop = min(int(np.searchsorted(ends, done + _BLOCK_BUDGET, side="right")), wide)
            w = width[start:stop]
            rows = np.repeat(np.arange(start, stop), w)
            # each row's sorted positions lo, lo + 1, ..., hi - 1
            offsets = ends[start:stop] - w - done
            pos = np.arange(len(rows)) + np.repeat(lo[start:stop] - offsets, w)
            hit = (np.abs(xa[rows] - xs[pos]) <= match_tol) & (
                np.abs(ya[rows] - ys[pos]) >= sep_min
            )
            rows, cols = rows[hit], order[pos[hit]]
            ranked = np.lexsort((cols, rows))
            yield rows[ranked], cols[ranked]
            start = stop
        if wide == len(xa):
            return
        # a wide window: the row's own scalar test on its contiguous slice
        # (the mask's own nonzero, without flatnonzero's Python-level calls)
        row_lo, row_hi = int(lo[wide]), int(hi[wide])
        (hit,) = (
            (np.abs(xa[wide] - xs[row_lo:row_hi]) <= match_tol)
            & (np.abs(ya[wide] - ys[row_lo:row_hi]) >= sep_min)
        ).nonzero()
        if len(hit):
            yield np.full(len(hit), wide), np.sort(order[row_lo + hit])
        start = wide + 1


def _require_tolerances(match_tol: float, sep_min: float) -> None:
    """Reject a NaN tolerance, which no comparison meets."""
    for name, tol in (("match_tol", match_tol), ("sep_min", sep_min)):
        if math.isnan(tol):
            raise ValueError(f"{name} must not be NaN")


def _column(rows: list[SweepRow], name: str) -> np.ndarray:
    return np.array([row.values[name] for row in rows])


def _opposite_slope_intervals(
    rows: list[SweepRow], x: str, y: str, xs: np.ndarray, ys: np.ndarray
) -> list[OrderingFinding]:
    dx, dy = np.diff(xs), np.diff(ys)
    opposite = ((dx > _SLOPE_EPS) & (dy < -_SLOPE_EPS)) | (
        (dx < -_SLOPE_EPS) & (dy > _SLOPE_EPS)
    )
    # step k joins rows k and k + 1; the edges of the padded flags alternate
    # run start (first row of a run) and run end (its last row)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], opposite, [False]))))
    return [
        OrderingFinding(
            kind="opposite-slope-interval",
            measure_x=x,
            measure_y=y,
            theta_interval=(rows[start].theta, rows[end].theta),
            family=rows[0].family,
            values={
                "x_start": float(xs[start]),
                "x_end": float(xs[end]),
                "y_start": float(ys[start]),
                "y_end": float(ys[end]),
            },
        )
        for start, end in zip(edges[0::2], edges[1::2])
    ]


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV with the fixed header family,theta,gbc,gmc,ggm,fill.

    Measures absent from a sweep stay as empty fields.  theta is printed
    with 12 significant digits; measure values use the shortest
    representation that round-trips.
    """
    lines = ["family,theta," + ",".join(MEASURE_COLUMNS)]
    for row in rows:
        cells = [row.family, format(row.theta, ".12g")]
        for name in MEASURE_COLUMNS:
            value = row.values.get(name)
            cells.append("" if value is None else repr(float(value)))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def emit_plotscript(rows: list[SweepRow], path, csv_path) -> None:
    """Write a standalone gnuplot script that plots an emitted CSV."""
    present = [name for name in MEASURE_COLUMNS if name in rows[0].values]
    # a quote inside a single-quoted gnuplot string is written twice
    quoted = "'" + str(csv_path).replace("'", "''") + "'"
    plots = ", \\\n  ".join(
        f"{quoted} every ::1 using 2:{3 + MEASURE_COLUMNS.index(name)} "
        f"with lines lw 2 title '{name}'"
        for name in present
    )
    family = rows[0].family
    script = (
        "# gnuplot script generated by entmean; expects the CSV next to it\n"
        "set datafile separator ','\n"
        f"set title 'family {family} sweep'\n"
        "set xlabel 'theta (rad)'\n"
        "set ylabel 'measure value'\n"
        "set yrange [0:1.05]\n"
        "set key left bottom\n"
        "set grid\n"
        f"plot \\\n  {plots}\n"
    )
    _write_text(path, script)


def emit_ordering(doc: dict, path) -> None:
    """Write the ordering command's document as JSON, one finding at a time.

    doc holds family_x, family_y, x, y, match_tol, sep_min and findings
    (the fields of each OrderingFinding, as vars() gives them).  The bytes
    equal json.dump(doc, indent=2, sort_keys=True) followed by a newline;
    each finding kind has one fixed template in sorted key order, and the
    file is written finding by finding, so memory does not grow with it.
    """
    findings = doc["findings"]
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(
            "{\n"
            f'  "family_x": {_quote(doc["family_x"])},\n'
            f'  "family_y": {_quote(doc["family_y"])},\n'
            '  "findings": ['
        )
        separator = "\n"
        # the measure names and (theta_a, x_a, y_a) of the last pair finding,
        # compared by identity (-0.0 == 0.0); nothing is this placeholder
        names = row_a = (object(),) * 3
        # (theta_b, x_b, y_b) and their texts, by id(theta_b), for the b rows
        # of this row-a run and of the one before it
        rows_b, rows_b_before = {}, {}
        for finding in findings:
            handle.write(separator)
            separator = ",\n"
            kind = finding["kind"]
            if kind != "equal-x-different-y":
                _require_known("finding kind", kind, _FINDING_KINDS)
                handle.write(_interval_text(finding))
                continue
            if not (finding["measure_x"] is names[0] and finding["measure_y"] is names[1]):
                names = (finding["measure_x"], finding["measure_y"])
                head = _pair_head(*names)
            values = finding["values"]
            theta_a, theta_b = finding["theta_pair"]
            x_a, y_a = values["x_a"], values["y_a"]
            # the findings of one sweep-a row share these very float objects
            if not (theta_a is row_a[0] and x_a is row_a[1] and y_a is row_a[2]):
                row_a = (theta_a, x_a, y_a)
                row_a_text = tuple(map(_number, row_a))
                rows_b, rows_b_before = {}, rows_b
            # and the findings of one sweep-b row recur from row-a run to run
            x_b, y_b = values["x_b"], values["y_b"]
            row_b = rows_b.get(id(theta_b)) or rows_b_before.get(id(theta_b))
            if not (row_b and row_b[0] is theta_b and row_b[1] is x_b and row_b[2] is y_b):
                row_b = (theta_b, x_b, y_b, _number(theta_b), _number(x_b), _number(y_b))
            rows_b[id(theta_b)] = row_b
            handle.write(_pair_text(head, *row_a_text, *row_b[3:]))
        handle.write(
            ("\n  ]" if findings else "]") + ",\n"
            f'  "match_tol": {_number(doc["match_tol"])},\n'
            f'  "sep_min": {_number(doc["sep_min"])},\n'
            f'  "x": {_quote(doc["x"])},\n'
            f'  "y": {_quote(doc["y"])}\n'
            "}\n"
        )


def _number(value: float) -> str:
    """A float as json writes it, non-finite values included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _pair_head(measure_x: str, measure_y: str) -> str:
    """The text of a pair finding up to its first number."""
    return (
        "    {\n"
        '      "family": null,\n'
        '      "kind": "equal-x-different-y",\n'
        f'      "measure_x": {_quote(measure_x)},\n'
        f'      "measure_y": {_quote(measure_y)},\n'
        '      "theta_interval": null,\n'
        '      "theta_pair": [\n'
        "        "
    )


def _pair_text(
    head: str, theta_a: str, x_a: str, y_a: str, theta_b: str, x_b: str, y_b: str
) -> str:
    """One pair finding from its head and its numbers as text."""
    return (
        f"{head}{theta_a},\n"
        f"        {theta_b}\n"
        "      ],\n"
        '      "values": {\n'
        f'        "x_a": {x_a},\n'
        f'        "x_b": {x_b},\n'
        f'        "y_a": {y_a},\n'
        f'        "y_b": {y_b}\n'
        "      }\n"
        "    }"
    )


def _interval_text(finding: dict) -> str:
    start, end = finding["theta_interval"]
    values = finding["values"]
    return (
        "    {\n"
        f'      "family": {_quote(finding["family"])},\n'
        '      "kind": "opposite-slope-interval",\n'
        f'      "measure_x": {_quote(finding["measure_x"])},\n'
        f'      "measure_y": {_quote(finding["measure_y"])},\n'
        '      "theta_interval": [\n'
        f"        {_number(start)},\n"
        f"        {_number(end)}\n"
        "      ],\n"
        '      "theta_pair": null,\n'
        '      "values": {\n'
        f'        "x_end": {_number(values["x_end"])},\n'
        f'        "x_start": {_number(values["x_start"])},\n'
        f'        "y_end": {_number(values["y_end"])},\n'
        f'        "y_start": {_number(values["y_start"])}\n'
        "      }\n"
        "    }"
    )


_FINDING_KINDS = ("equal-x-different-y", "opposite-slope-interval")


def _write_text(path, text: str) -> None:
    # UTF-8, so a plot script can name any CSV path
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
