import math

import pytest
from conftest import from_parties, symmetric_state

from entmean import (
    closed_form_table,
    concurrence,
    full_report,
    gbc,
    gbc_ghz,
    gbc_w,
    ghz_concurrence_m,
    make_ghz,
    make_w,
    ratio_w_over_ghz,
    w_concurrence_m,
)


class TestGhzFactor:
    def test_m1_is_one(self):
        assert ghz_concurrence_m(4, 1) == pytest.approx(1.0, abs=1e-15)

    def test_m2(self):
        assert ghz_concurrence_m(5, 2) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_m3_cross_checked_numerically(self):
        value = ghz_concurrence_m(6, 3)
        assert value == pytest.approx(math.sqrt(8 / 14), abs=1e-15)
        numeric = concurrence(make_ghz(6), from_parties([0, 1, 2], 6))
        assert value == pytest.approx(numeric, abs=1e-12)

    def test_split_range_enforced(self):
        with pytest.raises(ValueError):
            ghz_concurrence_m(4, 3)
        with pytest.raises(ValueError):
            ghz_concurrence_m(4, 0)
        with pytest.raises(ValueError):
            ghz_concurrence_m(65, 1)


class TestWFactor:
    def test_one_vs_rest(self):
        assert w_concurrence_m(3, 1) == pytest.approx(
            2 * math.sqrt(2) / 3, abs=1e-15
        )

    def test_balanced_four(self):
        value = w_concurrence_m(4, 2)
        assert value == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        numeric = concurrence(make_w(4), from_parties([0, 1], 4))
        assert value == pytest.approx(numeric, abs=1e-12)

    def test_bell_limit(self):
        assert w_concurrence_m(2, 1) == pytest.approx(1.0, abs=1e-15)

    def test_balanced_split_matches_ghz_factor(self):
        # at m = n/2 the W factor collapses to the GHZ form
        for n in (4, 6, 8, 10):
            assert w_concurrence_m(n, n // 2) == pytest.approx(
                ghz_concurrence_m(n, n // 2), abs=1e-15
            )


class TestRows:
    def test_ghz_known_values(self):
        assert gbc_ghz(2).gbc == pytest.approx(1.0, abs=1e-15)
        assert gbc_ghz(3).gbc == pytest.approx(1.0, abs=1e-15)
        assert gbc_ghz(4).gbc == pytest.approx((2 / 3) ** (3 / 14), abs=1e-14)

    def test_w_known_values(self):
        assert gbc_w(2).gbc == pytest.approx(1.0, abs=1e-15)
        assert gbc_w(3).gbc == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-14)
        expected = ((3 / 4) ** 2 * (2 / 3) ** 1.5) ** (1 / 7)
        assert gbc_w(4).gbc == pytest.approx(expected, abs=1e-14)

    def test_w5_exact(self):
        # both split sizes give 0.8, so the mean is 0.8 exactly
        assert gbc_w(5).gbc == pytest.approx(0.8, abs=1e-14)

    def test_multiplicities_sum_to_cut_count(self):
        for n in range(2, 65):
            row = gbc_ghz(n)
            assert sum(mult for mult, _ in row.concurrences_by_m) == 2 ** (n - 1) - 1

    def test_row_consistency(self):
        for n in (3, 8, 17, 40, 64):
            row = gbc_w(n)
            assert row.gbc == pytest.approx(
                math.exp(row.log_product / (2 ** (n - 1) - 1)), abs=1e-14
            )
            assert len(row.concurrences_by_m) == n // 2
            assert math.isfinite(row.log_product)

    def test_arity_errors(self):
        for bad in (1, 65):
            with pytest.raises(ValueError):
                gbc_ghz(bad)
            with pytest.raises(ValueError):
                gbc_w(bad)


class TestOracleEquivalence:
    def test_matches_numeric_pipeline(self):
        for n in range(2, 9):
            assert abs(gbc_ghz(n).gbc - gbc(make_ghz(n))) <= 1e-10
            assert abs(gbc_w(n).gbc - gbc(make_w(n))) <= 1e-10


def _dicke_weights(n, k, m):
    """Hypergeometric Schmidt weights of D(n, k) across an m-party cut."""
    total = math.comb(n, k)
    return [math.comb(m, j) * math.comb(n - m, k - j) / total for j in range(min(m, k) + 1)]


def _concurrence_from(weights, m):
    d = 2.0**m
    return math.sqrt(d / (d - 1.0) * (1.0 - math.fsum(w * w for w in weights)))


def _cut_size(part):
    return min(len(part.parties_a), len(part.parties_b))


class TestDickeOracle:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_full_report(self, n):
        for k in range(n + 1):
            report = full_report(symmetric_state([float(i == k) for i in range(n + 1)]))
            for part, value in report.per_bipartition:
                m = _cut_size(part)
                assert abs(value - _concurrence_from(_dicke_weights(n, k, m), m)) <= 1e-12

    def test_single_excitation_is_w(self):
        for n in range(2, 65):
            for m in range(1, n // 2 + 1):
                value = _concurrence_from(_dicke_weights(n, 1, m), m)
                assert value == pytest.approx(w_concurrence_m(n, m), abs=1e-14)

    def test_extreme_dicke_superposition_is_ghz(self):
        # D(n, 0) and D(n, n) occupy different Dicke states on both sides of
        # every cut, so (D(n,0) + D(n,n))/sqrt2 has their weights halved
        for n in range(2, 65):
            for m in range(1, n // 2 + 1):
                weights = [w / 2 for k in (0, n) for w in _dicke_weights(n, k, m)]
                value = _concurrence_from(weights, m)
                assert value == pytest.approx(ghz_concurrence_m(n, m), abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_w_cuts_match_the_closed_form(self, n):
        for part, value in full_report(make_w(n)).per_bipartition:
            assert abs(value - w_concurrence_m(n, _cut_size(part))) <= 1e-15


class TestRatio:
    def test_endpoints(self):
        assert ratio_w_over_ghz(2) == pytest.approx(1.0, abs=1e-15)
        assert ratio_w_over_ghz(3) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-14)

    def test_below_one_for_all_n(self):
        assert all(ratio_w_over_ghz(n) < 1.0 for n in range(3, 65))

    def test_initial_dip_then_strict_increase(self):
        # the sequence is not monotone from n = 3: it dips to its minimum
        # at n = 5 (where both gbc values are exact thirds/fifths powers)
        # and increases strictly from there, approaching 1
        values = [ratio_w_over_ghz(n) for n in range(3, 65)]
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(0.8 / (2 / 3) ** (1 / 3), abs=1e-13)
        tail = values[2:]
        assert all(b > a for a, b in zip(tail, tail[1:]))
        assert values[-1] > 0.99

    def test_sampled_monotone_increase(self):
        r5, r10, r20 = (ratio_w_over_ghz(n) for n in (5, 10, 20))
        assert r5 < r10 < r20 < 1.0
        assert 1.0 - r20 < 1.0 - r5


class TestTable:
    def test_shape(self):
        table = closed_form_table(20)
        assert len(table) == 19
        assert table[0] == (2, 1.0, 1.0, 1.0)
        ns = [row[0] for row in table]
        assert ns == list(range(2, 21))

    def test_rows_match_components(self):
        for n, g, w, ratio in closed_form_table(10):
            assert g == pytest.approx(gbc_ghz(n).gbc, abs=0)
            assert w == pytest.approx(gbc_w(n).gbc, abs=0)
            assert ratio == pytest.approx(w / g, abs=0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            closed_form_table(1)
        with pytest.raises(ValueError):
            closed_form_table(65)
