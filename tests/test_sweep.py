import dataclasses
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmean import (
    OrderingFinding,
    PureState,
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_ordering,
    emit_plotscript,
    find_ordering_reversals,
    find_peak,
    full_report,
    make_family_a,
    make_family_b,
    make_family_c,
    run_sweep,
)
from entmean.closedform import closed_form_table, emit_closed_form_csv
from entmean import states, sweep
from entmean.states import family_grid
from entmean.sweep import MAX_STEPS, family_state, measure_value

BETA = 3.0 * math.pi / 5.0


# Analytic references, derived from the reduced-state spectra of each family:
# family a: the cut isolating qubit 0 has concurrence cos(t); the other two
#   cuts are maximally entangled (value 1), so gbc = cos(t)^(1/3) and
#   gmc = cos(t); the largest Schmidt weight is (1 + sin t)/2.
# family b: all three cuts share the spectrum {cos^2 t, sin^2 t}, giving
#   concurrence sin(2t) on every cut.
def family_a_expect(theta):
    c = math.cos(theta)
    a = c * c
    return {
        # mirror the exact-zero short circuit once the weak cut drops
        # below the vanishing-cut threshold (cos(pi/2) lands at ~6e-17)
        "gbc": 0.0 if c < 1e-12 else c ** (1.0 / 3.0),
        "gmc": c,
        "ggm": (1.0 - math.sin(theta)) / 2.0,
        "fill": ((4.0 * a * a / 3.0) * (1.0 - a * a / 4.0)) ** 0.25,
    }


def family_b_expect(theta):
    s2 = math.sin(2.0 * theta)
    return {
        "gbc": s2,
        "gmc": s2,
        "ggm": min(math.cos(theta) ** 2, math.sin(theta) ** 2),
        "fill": s2 * s2,
    }


# family c cut values as functions of x = sin(t)cos(beta), y = sin(t)sin(beta),
# z = cos(t); each formula follows from the rank <= 3 reduced spectra.
def family_c_cuts(theta):
    x = math.sin(theta) * math.cos(BETA)
    y = math.sin(theta) * math.sin(BETA)
    z = math.cos(theta)
    two_two = math.sqrt(max(0.0, (4.0 / 3.0) * (1 - x**4 - y**4 - z**4)))
    return [
        2 * abs(y) * math.sqrt(x * x + z * z),
        2 * abs(x) * math.sqrt(y * y + z * z),
        abs(math.sin(2 * theta)),
        abs(math.sin(2 * theta)),
        math.sqrt(2.0 / 3.0) * abs(math.sin(2 * theta)),
        two_two,
        two_two,
    ]


def family_c_expect(theta):
    cuts = family_c_cuts(theta)
    product = math.prod(cuts)
    return {
        "gbc": 0.0 if min(cuts) < 1e-12 else product ** (1.0 / 7.0),
        "gmc": min(cuts),
        "ggm": min(math.cos(BETA) ** 2 * math.sin(theta) ** 2, math.cos(theta) ** 2),
    }


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec(family="b")
        assert [f.name for f in dataclasses.fields(SweepSpec)] == ["family", "steps", "measures"]
        assert spec.steps == 201
        assert spec.measures == ("gbc", "gmc", "ggm", "fill")
        rows = run_sweep(spec)
        assert rows[0].theta == 0.0
        assert abs(rows[-1].theta - math.pi / 2) <= 1e-15

    def test_family_c_drops_fill_by_default(self):
        assert SweepSpec(family="c").measures == ("gbc", "gmc", "ggm")

    def test_fill_for_family_c_rejected(self):
        with pytest.raises(ValueError, match="fill"):
            SweepSpec(family="c", measures=("gbc", "fill"))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(family="z")
        with pytest.raises(ValueError):
            SweepSpec(family="a", steps=1)
        with pytest.raises(ValueError):
            SweepSpec(family="a", measures=("nope",))
        with pytest.raises(ValueError):
            SweepSpec(family="a", measures=())

    @pytest.mark.parametrize("steps", [3.0, 2.5, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        # 3.0 was kept as 3.0, and run_sweep then raised TypeError
        with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
            SweepSpec(family="a", steps=steps)

    def test_numpy_integer_steps(self):
        spec = SweepSpec(family="a", steps=np.int64(5))
        assert type(spec.steps) is int and spec == SweepSpec(family="a", steps=5)
        rows = run_sweep(spec)
        assert rows == run_sweep(SweepSpec(family="a", steps=5))
        assert all(type(row.theta) is float for row in rows)

    def test_steps_capped(self):
        assert SweepSpec(family="a", steps=MAX_STEPS).steps == MAX_STEPS
        with pytest.raises(ValueError, match=f"steps must be <= {MAX_STEPS}"):
            SweepSpec(family="a", steps=MAX_STEPS + 1)

    def test_family_state_rejects_unknown(self):
        with pytest.raises(ValueError):
            family_state("q", 0.1)

    def test_measure_value_rejects_unknown(self):
        with pytest.raises(ValueError):
            measure_value(family_state("a", 0.1), "area")


class TestRunSweep:
    def test_grid_is_inclusive_and_uniform(self):
        rows = run_sweep(SweepSpec(family="b", steps=5))
        thetas = [row.theta for row in rows]
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi / 2, abs=0)
        np.testing.assert_allclose(np.diff(thetas), math.pi / 8, atol=1e-15)

    def test_family_b_endpoints_and_center(self):
        rows = run_sweep(SweepSpec(family="b"))
        assert rows[0].values["gbc"] == 0.0
        assert rows[100].theta == pytest.approx(math.pi / 4, abs=1e-15)
        assert rows[100].values["gbc"] == pytest.approx(1.0, abs=1e-12)

    def test_family_a_zero_matches_ghz(self):
        row = run_sweep(SweepSpec(family="a", steps=3))[0]
        assert row.values["gbc"] == pytest.approx(1.0, abs=1e-12)
        assert row.values["gmc"] == pytest.approx(1.0, abs=1e-12)
        assert row.values["fill"] == pytest.approx(1.0, abs=1e-12)

    def test_family_c_zero_is_product(self):
        row = run_sweep(SweepSpec(family="c", steps=3))[0]
        assert row.values["gbc"] == 0.0

    def test_values_in_unit_interval(self):
        for family in ("a", "b", "c"):
            for row in run_sweep(SweepSpec(family=family, steps=41)):
                for value in row.values.values():
                    assert -1e-12 <= value <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "family,expect", [("a", family_a_expect), ("b", family_b_expect)]
    )
    def test_three_qubit_columns_match_analytics(self, family, expect):
        for row in run_sweep(SweepSpec(family=family, steps=41)):
            reference = expect(row.theta)
            for name, value in reference.items():
                assert row.values[name] == pytest.approx(value, abs=1e-10), (
                    f"{family}/{name} at theta={row.theta}"
                )

    def test_family_c_columns_match_analytics(self):
        for row in run_sweep(SweepSpec(family="c", steps=41)):
            reference = family_c_expect(row.theta)
            for name, value in reference.items():
                assert row.values[name] == pytest.approx(value, abs=1e-10), (
                    f"c/{name} at theta={row.theta}"
                )

    def test_family_b_symmetry(self):
        rows = run_sweep(SweepSpec(family="b"))
        flipped = list(reversed(rows))
        worst = max(
            abs(r.values["gbc"] - f.values["gbc"]) for r, f in zip(rows, flipped)
        )
        assert worst <= 1e-10


def _per_theta_values(family, theta, names):
    report = full_report(family_state(family, theta))
    return {name: getattr(report, name) for name in names}


def _assert_row_is_report(family, row, names):
    """The row's values are the per-theta report's fields bit for bit, as Python floats.

    == would accept -0.0 for 0.0 and an np.float64 for a float.
    """
    expected = _per_theta_values(family, row.theta, names)
    where = f"{family} at theta={row.theta!r}"
    assert list(row.values) == list(expected), where
    for name, value in row.values.items():
        assert type(value) is float, f"{where}: {name} is {type(value).__name__}"
        assert value.hex() == float.hex(expected[name]), f"{where}: {name}"


class TestGridRows:
    """run_sweep measures its grid as one stack; every row is the per-theta report."""

    @pytest.mark.parametrize("steps", [2, 3, 14, 201, 1001])
    @pytest.mark.parametrize("family", ["a", "b", "c"])
    def test_rows_equal_per_theta_reports(self, family, steps):
        spec = SweepSpec(family=family, steps=steps)
        for row in run_sweep(spec):
            _assert_row_is_report(family, row, spec.measures)

    def test_rows_equal_per_theta_reports_at_max_steps(self):
        for family in ("a", "b", "c"):
            spec = SweepSpec(family=family, steps=MAX_STEPS)
            rows = run_sweep(spec)
            assert len(rows) == MAX_STEPS
            for row in rows:
                _assert_row_is_report(family, row, spec.measures)

    @pytest.mark.parametrize("family,index", [("c", 0), ("a", -1), ("c", -1)])
    def test_guard_rows(self, family, index):
        # theta = 0 of c is a product state, theta = pi/2 of a and c biseparable:
        # their vanishing cuts go through the SVD below GRAM_GUARD
        spec = SweepSpec(family=family, steps=201)
        row = run_sweep(spec)[index]
        _assert_row_is_report(family, row, spec.measures)
        for name in ("gbc", "gmc", "ggm"):
            assert row.values[name].hex() == "0x0.0p+0", name

    @pytest.mark.parametrize(
        "family,builder", [("a", make_family_a), ("b", make_family_b), ("c", make_family_c)]
    )
    def test_family_states_are_grid_rows(self, family, builder):
        thetas = [i * (math.pi / 2) / 200 for i in range(201)] + [-0.7, 2.5, 1e-300]
        dims, grid = family_grid(family, thetas)
        assert grid.dtype == np.float64 and grid.shape == (len(thetas), math.prod(dims))
        for theta, row in zip(thetas, grid):
            state = builder(theta)
            assert state.dims == dims
            assert state.amplitudes.real.tobytes() == row.tobytes()
            assert not state.amplitudes.imag.any()

    @pytest.mark.parametrize(
        "bad,scale", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0 + 1e-9), (0.0, 0.5)]
    )
    def test_bad_rows_raise_the_pure_state_message(self, bad, scale):
        _, grid = family_grid("a", [0.1, 0.2, 0.3])
        grid[1, 3] += bad
        grid[1] *= scale
        with pytest.raises(ValueError) as expected:
            PureState((2, 2, 2), grid[1])
        with pytest.raises(ValueError) as raised:
            states._check_rows(grid)
        assert str(raised.value) == str(expected.value)


class TestMeasureDispatch:
    """measure_value reads the field of full_report: one measure dispatch."""

    def test_columns_keep_the_csv_order(self):
        assert sweep.MEASURE_COLUMNS == ("gbc", "gmc", "ggm", "fill")

    @pytest.mark.parametrize("family", ["a", "b", "c"])
    def test_each_column_is_the_report_field(self, family):
        columns = sweep.MEASURE_COLUMNS if family != "c" else ("gbc", "gmc", "ggm")
        for theta in (0.0, 0.3, 0.9, math.pi / 2):
            state = family_state(family, theta)
            report = full_report(state)
            for name in columns:
                assert measure_value(state, name) == getattr(report, name)

    def test_fill_off_three_qubits_raises(self):
        with pytest.raises(ValueError, match="needs exactly 3 qubits"):
            measure_value(family_state("c", 0.3), "fill")

    def test_unknown_measure_raises(self):
        with pytest.raises(ValueError, match="unknown measure 'area'"):
            measure_value(family_state("a", 0.3), "area")


class TestFindPeak:
    def test_family_b_peak_at_quarter_pi(self):
        rows = run_sweep(SweepSpec(family="b"))
        peak = find_peak(rows, "gbc")
        assert not peak.plateau
        assert peak.theta == pytest.approx(math.pi / 4, abs=1e-6)
        assert peak.value == pytest.approx(1.0, abs=1e-10)

    def test_family_c_peaks_against_analytic_crossings(self):
        rows = run_sweep(SweepSpec(family="c"))
        t_gbc = find_peak(rows, "gbc")
        t_gmc = find_peak(rows, "gmc")
        t_ggm = find_peak(rows, "ggm")
        # the min-based measures peak where their binding cuts cross:
        # ggm at tan^2 t = 1/cos^2(beta), gmc at the regularized-concurrence
        # crossing of the same two cuts
        cb2 = math.cos(BETA) ** 2
        ggm_cross = math.atan(math.sqrt(1.0 / cb2))
        u = ((8.0 / 3.0) - 4.0 * cb2) / ((8.0 / 3.0) - 4.0 * cb2 * cb2)
        gmc_cross = math.asin(math.sqrt(u))
        assert t_ggm.theta == pytest.approx(ggm_cross, abs=1e-5)
        assert t_gmc.theta == pytest.approx(gmc_cross, abs=1e-5)
        assert t_gbc.theta < t_gmc.theta
        assert t_gbc.theta < t_ggm.theta
        assert t_gmc.theta < t_ggm.theta

    def test_plateau_reports_midpoint_with_flag(self):
        rows = [
            SweepRow("b", theta, {"gbc": 0.0})
            for theta in np.linspace(0.0, 1.0, 11)
        ]
        peak = find_peak(rows, "gbc")
        assert peak.plateau
        assert peak.theta == pytest.approx(0.5, abs=1e-12)

    def test_plateau_extends_left_of_the_first_maximum(self):
        # the first maximum sits at the right end of the plateau; only the
        # leftward scan finds the two near-equal rows before it
        values = [0.2, 1.0 - 5e-13, 1.0 - 1e-13, 1.0, 0.5, 0.1]
        rows = [
            SweepRow("b", theta, {"gbc": v})
            for theta, v in zip(np.linspace(0.0, 1.0, len(values)), values)
        ]
        peak = find_peak(rows, "gbc")
        assert peak.plateau
        assert peak.value == 1.0
        assert peak.theta == pytest.approx(0.5 * (rows[1].theta + rows[3].theta), abs=1e-15)

    def test_needs_three_rows(self):
        rows = run_sweep(SweepSpec(family="b", steps=2))
        with pytest.raises(ValueError):
            find_peak(rows, "gbc")

    def test_missing_column_named(self):
        rows = run_sweep(SweepSpec(family="c", steps=5))
        with pytest.raises(
            ValueError,
            match=r"unknown measure column 'fill', expected one of \('gbc', 'gmc', 'ggm'\)",
        ):
            find_peak(rows, "fill")

    def test_accepts_every_sweep_grid(self):
        # at 14 steps the last grid point rounds to one ulp above pi/2
        assert run_sweep(SweepSpec(family="a", steps=14))[-1].theta > math.pi / 2
        for steps in (14, 27, 48, MAX_STEPS):
            rows = run_sweep(SweepSpec(family="a", steps=steps, measures=("gbc",)))
            peak = find_peak(rows, "gbc")
            assert 0.0 <= peak.theta <= rows[1].theta
            assert peak.value == pytest.approx(1.0, abs=1e-10)

    def test_hand_built_thetas_end_inside_their_bracket(self, monkeypatch):
        # near 1e12 the float spacing (1.2e-4) exceeds the 1e-6 refinement;
        # the search still ends, well within the evaluation budget below
        calls = []

        def counted(state, name):
            calls.append(name)
            if len(calls) > 500:
                raise AssertionError("golden-section search did not end")
            return measure_value(state, name)

        monkeypatch.setattr(sweep, "measure_value", counted)
        for thetas in ([-0.1, 0.0, 0.1], [1.5, 1.6, 1.7], [1e12, 1e12 + 1e6, 1e12 + 2e6]):
            calls.clear()
            rows = [SweepRow("b", t, {"gbc": v}) for t, v in zip(thetas, [0.1, 0.5, 0.2])]
            peak = find_peak(rows, "gbc")
            assert thetas[0] <= peak.theta <= thetas[2]
            assert 0.0 <= peak.value <= 1.0

    def test_takes_rows_and_measure_only(self):
        assert list(inspect.signature(find_peak).parameters) == ["rows", "measure"]


def synthetic_rows(family, xs, ys):
    """Sweep rows on an evenly spaced theta grid with measures "x" and "y"."""
    thetas = np.linspace(0.0, 1.0, len(xs))
    return [
        SweepRow(family, float(t), {"x": float(x), "y": float(y)})
        for t, x, y in zip(thetas, xs, ys)
    ]


class TestOrderingReversals:
    def test_identical_sweeps_same_measure_empty(self):
        rows = run_sweep(SweepSpec(family="b", steps=51))
        findings = find_ordering_reversals(rows, rows, x="gbc", y="gbc", sep_min=1e-3)
        assert findings == []

    def test_fill_vs_gbc_pairs_found(self):
        # match tolerance must dominate the grid-induced spacing of the
        # matched column (about 2 * h * max|dx/dtheta|)
        rows_a = run_sweep(SweepSpec(family="a", steps=1001))
        rows_b = run_sweep(SweepSpec(family="b", steps=1001))
        findings = find_ordering_reversals(
            rows_a, rows_b, x="fill", y="gbc", match_tol=2e-3, sep_min=2e-2
        )
        pairs = [f for f in findings if f.kind == "equal-x-different-y"]
        assert pairs
        for finding in pairs[:50]:
            assert abs(finding.values["x_a"] - finding.values["x_b"]) <= 2e-3
            assert abs(finding.values["y_a"] - finding.values["y_b"]) >= 2e-2

    def test_gmc_vs_gbc_pairs_found(self):
        rows_a = run_sweep(SweepSpec(family="a", steps=1001))
        rows_b = run_sweep(SweepSpec(family="b", steps=1001))
        findings = find_ordering_reversals(
            rows_a, rows_b, x="gmc", y="gbc", match_tol=2e-3, sep_min=2e-2
        )
        assert any(f.kind == "equal-x-different-y" for f in findings)

    def test_family_c_opposite_slope_interval(self):
        rows = run_sweep(SweepSpec(family="c"))
        findings = find_ordering_reversals(rows, rows, x="gbc", y="gmc")
        intervals = [f for f in findings if f.kind == "opposite-slope-interval"]
        assert len(intervals) == 1
        lo, hi = intervals[0].theta_interval
        assert intervals[0].family == "c"
        # the interval spans the window between the gbc and gmc grid peaks
        assert lo == pytest.approx(0.8482, abs=1e-3)
        assert hi == pytest.approx(1.1938, abs=1e-3)

    def test_pairs_equal_a_double_loop(self):
        rng = np.random.default_rng(67)
        # x clusters near multiples of 0.1, so |x_a - x_b| straddles match_tol
        rows_a = synthetic_rows(
            "a", rng.integers(0, 6, 60) / 10 + rng.uniform(0, 2e-4, 60), rng.uniform(size=60)
        )
        rows_b = synthetic_rows(
            "b", rng.integers(0, 6, 57) / 10 + rng.uniform(0, 2e-4, 57), rng.uniform(size=57)
        )
        findings = find_ordering_reversals(
            rows_a, rows_b, x="x", y="y", match_tol=1e-4, sep_min=0.3
        )
        pairs = [
            (f.theta_pair, f.values) for f in findings if f.kind == "equal-x-different-y"
        ]
        expected = [
            (
                (ra.theta, rb.theta),
                {
                    "x_a": ra.values["x"],
                    "x_b": rb.values["x"],
                    "y_a": ra.values["y"],
                    "y_b": rb.values["y"],
                },
            )
            for ra in rows_a
            for rb in rows_b
            if abs(ra.values["x"] - rb.values["x"]) <= 1e-4
            and abs(ra.values["y"] - rb.values["y"]) >= 0.3
        ]
        assert len(expected) > 20
        assert pairs == expected

    def test_intervals_equal_a_plain_loop(self):
        def plain_intervals(rows):
            xs = [row.values["x"] for row in rows]
            ys = [row.values["y"] for row in rows]
            found, start = [], None
            for i in range(len(rows)):
                opposite = i + 1 < len(rows) and (xs[i + 1] - xs[i]) * (ys[i + 1] - ys[i]) < 0
                if opposite and start is None:
                    start = i
                elif not opposite and start is not None:
                    found.append(
                        (
                            (rows[start].theta, rows[i].theta),
                            {"x_start": xs[start], "x_end": xs[i],
                             "y_start": ys[start], "y_end": ys[i]},
                        )
                    )
                    start = None
            return found

        def walk(family, dx_signs, dy_signs, rng):
            # steps of at least 0.01 or exactly 0, far from the slope threshold
            dx = np.multiply(dx_signs, rng.uniform(0.01, 0.1, len(dx_signs)))
            dy = np.multiply(dy_signs, rng.uniform(0.01, 0.1, len(dy_signs)))
            return synthetic_rows(family, np.cumsum([0.5, *dx]), np.cumsum([0.5, *dy]))

        rng = np.random.default_rng(71)
        sweeps = [
            # runs over steps 0-1, 3 and 6-7: from row 0, one step, to the last row
            walk("a", [1, 1, -1, 1, 1, 0, -1, -1], [-1, -1, -1, -1, 1, 1, 1, 1], rng),
            # no opposite step at all, flat steps included
            walk("b", [1, 1, 0, -1], [1, 0, 1, -1], rng),
        ]
        sweeps += [
            walk("c", rng.integers(-1, 2, 40), rng.integers(-1, 2, 40), rng) for _ in range(30)
        ]
        for rows in sweeps:
            findings = find_ordering_reversals(rows, rows, x="x", y="y", match_tol=-1.0)
            assert all(f.kind == "opposite-slope-interval" for f in findings)
            assert all(f.family == rows[0].family for f in findings)
            got = [(f.theta_interval, f.values) for f in findings]
            assert got == plain_intervals(rows)
        thetas = [row.theta for row in sweeps[0]]
        expected = [(thetas[i], thetas[j]) for i, j in [(0, 2), (3, 4), (6, 8)]]
        assert [interval for interval, _ in plain_intervals(sweeps[0])] == expected
        assert plain_intervals(sweeps[1]) == []

    def test_match_memory_is_linear_in_steps(self):
        # a dense steps x steps temporary alone would take 3000**2 * 8 B = 72 MB
        rng = np.random.default_rng(61)
        xa = np.sort(rng.uniform(size=3000))
        xb = np.sort(rng.uniform(size=3000))
        rows_a = synthetic_rows("a", xa, xa)
        rows_b = synthetic_rows("b", xb, 1.0 - xb)
        tracemalloc.start()
        try:
            findings = find_ordering_reversals(rows_a, rows_b, x="x", y="y", sep_min=0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairs = [f for f in findings if f.kind == "equal-x-different-y"]
        assert 100 <= len(pairs) <= 1000
        assert peak < 16 * 2**20

    def test_match_memory_is_bounded_on_wide_windows(self):
        # 5000 rows of 1000 to 2000 candidates each: 7.5M candidate pairs, whose
        # index arrays alone would take 60 MB each if tested at once
        rng = np.random.default_rng(67)
        xa = rng.uniform(0.2, 0.8, 5000)
        xb = np.sort(rng.uniform(0.0, 1.0, 5000))
        width = np.searchsorted(xb, xa + 0.15, "right") - np.searchsorted(xb, xa - 0.15)
        assert width.min() > 1000 and width.sum() > 7_000_000
        rows_a = synthetic_rows("a", xa, np.zeros(5000))
        rows_b = synthetic_rows("b", xb, rng.uniform(size=5000))
        tracemalloc.start()
        try:
            findings = find_ordering_reversals(
                rows_a, rows_b, x="x", y="y", match_tol=0.15, sep_min=0.9999
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 100 <= len(findings) <= 10_000
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "budget", [sweep._BLOCK_BUDGET, 30], ids=["default_budget", "one_row_per_block"]
    )
    def test_no_finding_built_past_the_cap(self, monkeypatch, budget):
        rows_a = synthetic_rows("a", np.zeros(20), np.zeros(20))
        rows_b = synthetic_rows("b", np.zeros(30), np.ones(30))
        # every one of the 20 x 30 pairs matches
        findings = find_ordering_reversals(rows_a, rows_b, x="x", y="y", sep_min=0.5)
        assert len(findings) == 600
        monkeypatch.setattr(sweep, "MAX_FINDINGS", 600)
        assert find_ordering_reversals(rows_a, rows_b, x="x", y="y", sep_min=0.5) == findings
        built = []
        real_finding = sweep.OrderingFinding

        def counted(*args, **kwargs):
            built.append(None)
            return real_finding(*args, **kwargs)

        monkeypatch.setattr(sweep, "OrderingFinding", counted)
        monkeypatch.setattr(sweep, "MAX_FINDINGS", 100)
        # a budget of 30 makes each row's window its own block
        monkeypatch.setattr(sweep, "_BLOCK_BUDGET", budget)
        with pytest.raises(ValueError, match=r"100 findings with match_tol=1\.0 and sep_min=0\.0"):
            find_ordering_reversals(rows_a, rows_b, x="x", y="y", match_tol=1.0, sep_min=0.0)
        # the count is checked before each block's findings are built
        assert len(built) <= 100

    @pytest.mark.parametrize("name", ["match_tol", "sep_min"])
    def test_nan_tolerance_rejected(self, name):
        # every comparison with NaN is false, so it would mine nothing silently
        rows = synthetic_rows("a", [0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            find_ordering_reversals(rows, rows, x="x", y="y", **{name: math.nan})

    def test_finding_fields(self):
        rows_a = run_sweep(SweepSpec(family="a", steps=201))
        rows_b = run_sweep(SweepSpec(family="b", steps=201))
        findings = find_ordering_reversals(
            rows_a, rows_b, x="gmc", y="gbc", match_tol=5e-3, sep_min=1e-2
        )
        pair = next(f for f in findings if f.kind == "equal-x-different-y")
        assert isinstance(pair, OrderingFinding)
        assert pair.theta_pair is not None and pair.theta_interval is None
        assert pair.measure_x == "gmc" and pair.measure_y == "gbc"


def mask_pairs(rows_a, rows_b, x, y, match_tol, sep_min):
    """Pair findings as (theta_pair, values), from a mask over all of b per row a."""
    xb = np.array([row.values[x] for row in rows_b])
    yb = np.array([row.values[y] for row in rows_b])
    pairs = []
    for row in rows_a:
        x_a, y_a = row.values[x], row.values[y]
        matched = (np.abs(x_a - xb) <= match_tol) & (np.abs(y_a - yb) >= sep_min)
        for j in np.flatnonzero(matched).tolist():
            b = rows_b[j]
            pairs.append(
                (
                    (row.theta, b.theta),
                    {"x_a": x_a, "x_b": b.values[x], "y_a": y_a, "y_b": b.values[y]},
                )
            )
    return pairs


def pair_hexes(pairs):
    """float.hex of every number of the pairs, which tells -0.0 from 0.0."""
    return [
        [float.hex(v) for v in (*theta_pair, *values.values())] for theta_pair, values in pairs
    ]


_TOLERANCES = [0.0, -0.0, 5e-324, 1e-4, 0.1, 0.25, -1.0, -math.inf, math.inf]
_X_VALUES = [0.0, -0.0, 5e-324, 1e-4, 0.1, 0.3, 0.5, 1.0, -0.25, math.inf, -math.inf]


@st.composite
def mining_cases(draw):
    """Two sweeps whose x sit on each other's window edges, and tolerances."""
    match_tol = draw(st.sampled_from(_TOLERANCES))
    sep_min = draw(st.sampled_from([-math.inf, 0.0, -0.0, 0.25, 0.5, math.inf]))
    values = st.sampled_from(_X_VALUES) | st.floats(-1.0, 1.0)
    base = draw(st.lists(values, min_size=1, max_size=6))
    # x_a +- match_tol, and the floats one and two steps either side of it
    edges = []
    for value in base:
        for edge in (value - match_tol, value + match_tol):
            edges += [edge, *(np.nextafter(edge, d) for d in (-math.inf, math.inf))]
            edges += [np.nextafter(np.nextafter(edge, d), d) for d in (-math.inf, math.inf)]
    edges = [float(e) for e in edges if not math.isnan(e)]
    ys = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
    n_a = draw(st.integers(1, 24))
    rows_a = synthetic_rows(
        "a", draw(st.lists(st.sampled_from(base), min_size=n_a, max_size=n_a)),
        draw(st.lists(ys, min_size=n_a, max_size=n_a)),
    )
    if draw(st.booleans()):
        rows_b = rows_a
    else:
        n_b = draw(st.integers(1, 24))
        rows_b = synthetic_rows(
            "b", draw(st.lists(st.sampled_from(base + edges), min_size=n_b, max_size=n_b)),
            draw(st.lists(ys, min_size=n_b, max_size=n_b)),
        )
    # the default block budget, and budgets small enough that blocks end
    # inside runs of rows, or that one row wider than the budget is a block
    budget = draw(st.sampled_from([sweep._BLOCK_BUDGET, 3, 2, 1, 4]))
    return rows_a, rows_b, match_tol, sep_min, budget


class TestOrderingMinerOracle:
    """The x-window miner finds the pairs of a mask over all of b, in its order."""

    @settings(max_examples=400, deadline=None)
    @given(mining_cases())
    def test_pairs_equal_the_full_mask(self, case):
        rows_a, rows_b, match_tol, sep_min, budget = case
        # inf - inf and the largest floats' differences warn in either form
        with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore", over="ignore"):
            patch.setattr(sweep, "_BLOCK_BUDGET", budget)
            findings = find_ordering_reversals(
                rows_a, rows_b, x="x", y="y", match_tol=match_tol, sep_min=sep_min
            )
            expected = mask_pairs(rows_a, rows_b, "x", "y", match_tol, sep_min)
        pairs = [(f.theta_pair, f.values) for f in findings if f.kind == "equal-x-different-y"]
        assert pairs == expected
        assert pair_hexes(pairs) == pair_hexes(expected)

    def test_edges_of_the_tolerance(self):
        # x_b at exactly x_a +- match_tol and at its float neighbours
        tol = 0.1
        xb = []
        for edge in (0.3 - tol, 0.3 + tol):
            xb += [np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)]
        rows_a = synthetic_rows("a", [0.3], [0.0])
        rows_b = synthetic_rows("b", xb, np.ones(len(xb)))
        findings = find_ordering_reversals(
            rows_a, rows_b, x="x", y="y", match_tol=tol, sep_min=0.5
        )
        assert findings
        pairs = [(f.theta_pair, f.values) for f in findings]
        assert pairs == mask_pairs(rows_a, rows_b, "x", "y", tol, 0.5)

    @pytest.mark.parametrize("match_tol", [math.inf, 1.0, 0.0])
    def test_infinite_x(self, match_tol):
        # an infinite tolerance matches an infinite x_a with every finite x_b
        rows_a = synthetic_rows("a", [math.inf, -math.inf, 0.5], [0.0, 0.0, 0.0])
        rows_b = synthetic_rows("b", [math.inf, -math.inf, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        with np.errstate(invalid="ignore"):
            findings = find_ordering_reversals(
                rows_a, rows_b, x="x", y="y", match_tol=match_tol, sep_min=0.5
            )
            expected = mask_pairs(rows_a, rows_b, "x", "y", match_tol, 0.5)
        pairs = [(f.theta_pair, f.values) for f in findings if f.kind == "equal-x-different-y"]
        assert pairs == expected
        assert len(expected) == {math.inf: 10, 1.0: 2, 0.0: 0}[match_tol]

    def test_blocks_cross_runs_of_equal_x(self, monkeypatch):
        # narrow and wide windows alternate, and equal x values run across blocks
        rng = np.random.default_rng(5)
        xa = rng.choice([0.0, -0.0, 0.1, 0.2, 0.5], 200)
        xb = np.concatenate([rng.choice([0.0, -0.0, 0.1], 120), rng.uniform(0.0, 1.0, 180)])
        rows_a = synthetic_rows("a", xa, rng.uniform(size=200))
        rows_b = synthetic_rows("b", xb, rng.uniform(size=300))
        expected = mask_pairs(rows_a, rows_b, "x", "y", 1e-3, 0.2)
        assert len(expected) > 1000
        for budget in [sweep._BLOCK_BUDGET, 50, 7]:
            monkeypatch.setattr(sweep, "_BLOCK_BUDGET", budget)
            findings = find_ordering_reversals(
                rows_a, rows_b, x="x", y="y", match_tol=1e-3, sep_min=0.2
            )
            pairs = [(f.theta_pair, f.values) for f in findings if f.kind == "equal-x-different-y"]
            assert pairs == expected
            assert pair_hexes(pairs) == pair_hexes(expected)

    @pytest.mark.parametrize("budget", [sweep._BLOCK_BUDGET, 1000])
    def test_every_window_wider_than_the_budget(self, monkeypatch, budget):
        # each row's window holds all of b, more candidates than one block
        rng = np.random.default_rng(13)
        n_b = sweep._BLOCK_BUDGET + 4000
        xa = [0.0, -0.0, 0.005, -0.005, 0.01, 0.0]
        xb = np.concatenate([[0.0, -0.0, -0.01, 0.01], rng.uniform(-0.01, 0.01, n_b - 4)])
        rows_a = synthetic_rows("a", xa, [0.0, 1.0, 0.0, 1.0, 0.0, 0.5])
        rows_b = synthetic_rows("b", xb, rng.uniform(size=n_b))
        monkeypatch.setattr(sweep, "_BLOCK_BUDGET", budget)
        findings = find_ordering_reversals(
            rows_a, rows_b, x="x", y="y", match_tol=0.02, sep_min=0.99
        )
        expected = mask_pairs(rows_a, rows_b, "x", "y", 0.02, 0.99)
        pairs = [(f.theta_pair, f.values) for f in findings if f.kind == "equal-x-different-y"]
        assert len(expected) > 500
        assert pairs == expected
        assert pair_hexes(pairs) == pair_hexes(expected)

    def test_findings_share_the_row_floats(self):
        # one float object per row, as the writer's caches expect
        rows_a = synthetic_rows("a", [0.1, 0.1], [0.0, 0.0])
        rows_b = synthetic_rows("b", [0.1, 0.2, 0.1], [1.0, 1.0, 1.0])
        pairs = find_ordering_reversals(rows_a, rows_b, x="x", y="y", match_tol=0.0, sep_min=0.5)
        assert [f.theta_pair for f in pairs] == [
            (ra.theta, rows_b[j].theta) for ra in rows_a for j in (0, 2)
        ]
        assert pairs[0].theta_pair[0] is pairs[1].theta_pair[0] is rows_a[0].theta
        assert pairs[0].values["x_a"] is pairs[1].values["x_a"]
        assert pairs[0].theta_pair[1] is pairs[2].theta_pair[1] is rows_b[0].theta
        assert pairs[0].values["x_b"] is pairs[2].values["x_b"]
        assert pairs[0].values["y_b"] is pairs[2].values["y_b"]


class TestEmission:
    def test_csv_shape_and_header(self, tmp_path):
        rows = run_sweep(SweepSpec(family="b"))
        out = tmp_path / "sweep.csv"
        emit_csv(rows, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 202
        assert lines[0] == "family,theta,gbc,gmc,ggm,fill"
        first = lines[1].split(",")
        assert first[0] == "b"
        assert first[1] == "0"

    def test_csv_empty_fields_for_absent_measures(self, tmp_path):
        rows = run_sweep(SweepSpec(family="c", steps=3, measures=("gbc",)))
        out = tmp_path / "c.csv"
        emit_csv(rows, out)
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[2] != "" and cells[3] == "" and cells[4] == "" and cells[5] == ""

    def test_csv_values_round_trip(self, tmp_path):
        rows = run_sweep(SweepSpec(family="a", steps=11))
        out = tmp_path / "a.csv"
        emit_csv(rows, out)
        for line, row in zip(out.read_text().splitlines()[1:], rows):
            cells = line.split(",")
            assert float(cells[2]) == row.values["gbc"]
            assert float(cells[5]) == row.values["fill"]

    def test_csv_deterministic(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        emit_csv(run_sweep(SweepSpec(family="b")), first)
        emit_csv(run_sweep(SweepSpec(family="b")), second)
        assert first.read_bytes() == second.read_bytes()

    def test_csv_header_only_for_empty_rows(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], out)
        assert out.read_text() == "family,theta,gbc,gmc,ggm,fill\n"

    def test_plotscript_references_csv(self, tmp_path):
        rows = run_sweep(SweepSpec(family="a", steps=5))
        gp = tmp_path / "plot.gp"
        emit_plotscript(rows, gp, csv_path="sweep.csv")
        text = gp.read_text()
        assert "'sweep.csv'" in text
        assert "using 2:3" in text and "title 'gbc'" in text
        assert "using 2:6" in text and "title 'fill'" in text

    def test_plotscript_of_no_rows_is_a_value_error(self, tmp_path):
        gp = tmp_path / "empty.gp"
        with pytest.raises(ValueError, match="at least one sweep row"):
            emit_plotscript([], gp, csv_path="empty.csv")
        assert not gp.exists()

    def test_plotscript_only_present_columns(self, tmp_path):
        rows = run_sweep(SweepSpec(family="c", steps=3, measures=("gmc",)))
        gp = tmp_path / "c.gp"
        emit_plotscript(rows, gp, csv_path="c.csv")
        text = gp.read_text()
        assert "title 'gmc'" in text
        assert "title 'gbc'" not in text

    def test_closed_form_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        emit_closed_form_csv(closed_form_table(20), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,gbc_ghz,gbc_w,ratio"
        assert len(lines) == 20
        assert lines[1].startswith("2,1.0,1.0,1.0")


def ordering_doc(findings, x, y, match_tol, sep_min, family_x="a", family_y="b"):
    """The document the ordering command writes, for the given findings."""
    return {
        "family_x": family_x,
        "family_y": family_y,
        "x": x,
        "y": y,
        "match_tol": match_tol,
        "sep_min": sep_min,
        "findings": [vars(f) for f in findings],
    }


def _pair_finding(theta_a, x_a, y_a, row_b=(1.5, 0.5, 0.1), names=("x", "y")):
    """A pair finding holding the given row-a and row-b objects."""
    theta_b, x_b, y_b = row_b
    return OrderingFinding(
        kind="equal-x-different-y",
        measure_x=names[0],
        measure_y=names[1],
        theta_pair=(theta_a, theta_b),
        values={"x_a": x_a, "x_b": x_b, "y_a": y_a, "y_b": y_b},
    )


class TestOrderingWriter:
    """emit_ordering writes the bytes of json.dump(doc, indent=2, sort_keys=True)."""

    @staticmethod
    def assert_writes_json(doc, path):
        emit_ordering(doc, path)
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("ascii")

    def test_no_findings(self, tmp_path):
        rows = run_sweep(SweepSpec(family="b", steps=51))
        findings = find_ordering_reversals(rows, rows, x="gbc", y="gbc", sep_min=1e-3)
        assert findings == []
        self.assert_writes_json(
            ordering_doc(findings, "gbc", "gbc", 1e-4, 1e-3, "b", "b"), tmp_path / "o.json"
        )

    def test_only_intervals(self, tmp_path):
        rows_a = synthetic_rows("a", [0.1, 0.3, 0.2, 0.4, 0.5], [0.5, 0.2, 0.6, 0.1, 0.2])
        rows_b = synthetic_rows("b", [0.9, 0.8, 0.8, 0.7], [0.1, 0.2, 0.3, 0.4])
        findings = find_ordering_reversals(rows_a, rows_b, x="x", y="y", match_tol=-1.0)
        assert [f.family for f in findings] == ["a", "b", "b"]
        self.assert_writes_json(ordering_doc(findings, "x", "y", -1.0, 1e-2), tmp_path / "o.json")

    def test_same_family_run(self, tmp_path):
        rows = run_sweep(SweepSpec(family="c", steps=201, measures=("gbc", "ggm")))
        findings = find_ordering_reversals(rows, rows, x="gbc", y="ggm")
        assert findings
        self.assert_writes_json(
            ordering_doc(findings, "gbc", "ggm", 1e-4, 1e-2, "c", "c"), tmp_path / "o.json"
        )

    def test_both_kinds_and_tolerances_unlike_their_text(self, tmp_path):
        # 2e-3 prints as 0.002 and 1e-5 as 1e-05
        rows_a = run_sweep(SweepSpec(family="a", steps=201, measures=("gmc", "gbc")))
        rows_c = run_sweep(SweepSpec(family="c", steps=201, measures=("gmc", "gbc")))
        findings = find_ordering_reversals(
            rows_a, rows_c, x="gmc", y="gbc", match_tol=2e-3, sep_min=1e-5
        )
        assert {f.kind for f in findings} == {"equal-x-different-y", "opposite-slope-interval"}
        doc = ordering_doc(findings, "gmc", "gbc", 2e-3, 1e-5, "a", "c")
        self.assert_writes_json(doc, tmp_path / "o.json")
        text = (tmp_path / "o.json").read_text()
        assert '"match_tol": 0.002,' in text and '"sep_min": 1e-05,' in text

    def test_non_finite_tolerances(self, tmp_path):
        rows_a = run_sweep(SweepSpec(family="a", steps=11, measures=("gmc", "gbc")))
        rows_b = run_sweep(SweepSpec(family="b", steps=11, measures=("gmc", "gbc")))
        findings = find_ordering_reversals(
            rows_a, rows_b, x="gmc", y="gbc", match_tol=math.inf, sep_min=-math.inf
        )
        # infinite tolerances are valid: every one of the 11 x 11 pairs matches
        assert len(findings) == 121
        doc = ordering_doc(findings, "gmc", "gbc", math.inf, -math.inf)
        self.assert_writes_json(doc, tmp_path / "o.json")
        text = (tmp_path / "o.json").read_text()
        assert '"match_tol": Infinity,' in text and '"sep_min": -Infinity,' in text

    def test_row_a_text_follows_each_changed_object(self, tmp_path):
        theta, x, y = 0.25, 0.5, 0.75
        interval = OrderingFinding(
            kind="opposite-slope-interval",
            measure_x="x",
            measure_y="y",
            theta_interval=(0.0, 1.0),
            family="a",
            values={"x_start": 0.1, "x_end": 0.2, "y_start": 0.4, "y_end": 0.3},
        )
        findings = [
            _pair_finding(theta, x, y),
            _pair_finding(theta, x, y),
            interval,
            _pair_finding(theta, x, y),
            _pair_finding(theta, 0.125, y),
            _pair_finding(theta, 0.125, 0.875),
            _pair_finding(0.375, 0.125, 0.875),
        ]
        self.assert_writes_json(ordering_doc(findings, "x", "y", 1e-4, 1e-2), tmp_path / "o.json")

    def test_negative_zero_after_an_equal_zero(self, tmp_path):
        zero, negative = 0.0, -0.0
        assert zero == negative and zero is not negative
        findings = [
            _pair_finding(zero, zero, zero),
            _pair_finding(negative, negative, negative),
            _pair_finding(negative, zero, negative),
            _pair_finding(negative, zero, zero),
        ]
        self.assert_writes_json(ordering_doc(findings, "x", "y", 1e-4, 1e-2), tmp_path / "o.json")
        text = (tmp_path / "o.json").read_text()
        # theta_b, x_b and y_b are positive: the six -0.0 are all row-a values
        assert text.count("-0.0") == 6

    def test_negative_zero_b_row_after_an_equal_zero(self, tmp_path):
        zero, negative = 0.0, -0.0
        findings = [
            _pair_finding(0.25, 0.5, 0.75, (zero, zero, zero)),
            _pair_finding(0.25, 0.5, 0.75, (negative, negative, negative)),
            _pair_finding(0.25, 0.5, 0.75, (zero, negative, zero)),
            _pair_finding(0.125, 0.5, 0.75, (zero, zero, negative)),
            _pair_finding(0.125, 0.5, 0.75, (negative, zero, zero)),
            _pair_finding(0.375, 0.5, 0.75, (zero, zero, zero)),
        ]
        self.assert_writes_json(ordering_doc(findings, "x", "y", 1e-4, 1e-2), tmp_path / "o.json")
        # every -0.0 is a row-b value: 3 + 1 + 1 + 1
        assert (tmp_path / "o.json").read_text().count("-0.0") == 6

    def test_one_theta_b_with_two_x_b_objects(self, tmp_path):
        theta_b = 1.25
        findings = [
            _pair_finding(0.25, 0.5, 0.75, (theta_b, 0.5, 0.1)),
            _pair_finding(0.25, 0.5, 0.75, (theta_b, 0.25, 0.1)),
            _pair_finding(0.125, 0.5, 0.75, (theta_b, 0.5, 0.1)),
            _pair_finding(0.125, 0.5, 0.75, (theta_b, 0.25, 0.1)),
            _pair_finding(0.125, 0.5, 0.75, (theta_b, 0.25, 0.2)),
        ]
        self.assert_writes_json(ordering_doc(findings, "x", "y", 1e-4, 1e-2), tmp_path / "o.json")

    def test_b_row_texts_kept_for_two_row_a_runs(self, tmp_path, monkeypatch):
        formatted = []
        real_number = sweep._number

        def counted(value):
            formatted.append(value)
            return real_number(value)

        monkeypatch.setattr(sweep, "_number", counted)
        kept = (1.25, 0.5, 0.1)
        findings = [
            _pair_finding(0.25, 0.5, 0.75, kept),  # run 1 formats row a and row b
            _pair_finding(0.125, 0.5, 0.75, kept),  # run 2 finds it in run 1
            _pair_finding(0.375, 0.5, 0.75, (1.5, 0.25, 0.2)),  # run 3: a new b row
            _pair_finding(0.625, 0.5, 0.75, (1.0, 0.75, 0.3)),  # run 4: another one
            _pair_finding(0.875, 0.5, 0.75, kept),  # run 5: kept is gone, formatted again
        ]
        self.assert_writes_json(ordering_doc(findings, "x", "y", 1e-4, 1e-2), tmp_path / "o.json")
        # three numbers per row-a run and per b-row miss, two more for the tolerances
        assert len(formatted) == 3 * 5 + 3 * 4 + 2

    def test_measure_names_change_mid_document(self, tmp_path):
        # equal names that are other objects, then other names, then back
        gmc, gbc = "gmc", "gbc"
        gmc_again, gbc_again = "".join(["gm", "c"]), "".join(["gb", "c"])
        assert gmc_again == gmc and gmc_again is not gmc
        findings = [
            _pair_finding(0.25, 0.5, 0.75, names=(gmc, gbc)),
            _pair_finding(0.25, 0.5, 0.75, names=(gmc_again, gbc_again)),
            _pair_finding(0.25, 0.5, 0.75),
            _pair_finding(0.125, 0.5, 0.75),
            _pair_finding(0.125, 0.5, 0.75, names=(gmc, "x")),
            _pair_finding(0.125, 0.5, 0.75, names=(gmc, gbc)),
        ]
        self.assert_writes_json(ordering_doc(findings, "x", "y", 1e-4, 1e-2), tmp_path / "o.json")
        text = (tmp_path / "o.json").read_text()
        assert text.count('"measure_x": "gmc"') == 4 and text.count('"measure_y": "gbc"') == 3

    def test_memory_stays_flat_as_the_file_grows(self, tmp_path):
        # a writer that joins the whole document first holds all of it at once
        values = np.random.default_rng(13).uniform(size=(20_000, 6)).tolist()
        findings = [
            OrderingFinding(
                kind="equal-x-different-y",
                measure_x="gmc",
                measure_y="gbc",
                theta_pair=(v[0], v[1]),
                values=dict(zip(("x_a", "x_b", "y_a", "y_b"), v[2:])),
            )
            for v in values
        ]
        doc = ordering_doc(findings, "gmc", "gbc", 1e-4, 1e-2)
        out = tmp_path / "big.json"
        tracemalloc.start()
        try:
            emit_ordering(doc, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 7 * 2**20
        assert peak < 2**20
