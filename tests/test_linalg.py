import math

import numpy as np
import pytest
from conftest import basis_state, embed_product, haar_state, haar_unitary

from entmean import (
    Bipartition,
    apply_local_unitary,
    linear_entropy,
    make_ghz,
    make_w,
    reshape,
    schmidt_weights,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _spectrum_purity(state, part):
    return float(np.sum(schmidt_weights(state, part) ** 2))


def _gram_purity(state, part, side="rows"):
    matrix = reshape(state, part)
    gram = matrix @ matrix.conj().T if side == "rows" else matrix.conj().T @ matrix
    return float(np.trace(gram @ gram).real)


class TestReshape:
    def test_ghz3_one_vs_rest(self):
        block = reshape(make_ghz(3), Bipartition.from_parties([0], 3))
        assert block.shape == (2, 4)
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = expected[1, 3] = INV_SQRT2
        np.testing.assert_allclose(block, expected, atol=0)

    def test_w3_two_vs_one(self):
        block = reshape(make_w(3), Bipartition.from_parties([0, 1], 3))
        assert block.shape == (4, 2)
        expected = np.zeros((4, 2), dtype=complex)
        expected[0, 1] = expected[1, 0] = expected[2, 0] = 1 / math.sqrt(3)
        np.testing.assert_allclose(block, expected, atol=0)

    def test_product_state_rank_one(self):
        block = reshape(basis_state([2, 2], [0, 0]), Bipartition.from_parties([0], 2))
        assert np.linalg.matrix_rank(block) == 1

    def test_frobenius_norm_preserved(self):
        rng = np.random.default_rng(3)
        state = haar_state([2, 3, 2], rng)
        for part in (Bipartition.from_parties([0], 3), Bipartition.from_parties([0, 2], 3)):
            block = reshape(state, part)
            assert np.linalg.norm(block) == pytest.approx(1.0, abs=1e-12)

    def test_party_count_mismatch(self):
        with pytest.raises(ValueError):
            reshape(make_ghz(3), Bipartition.from_parties([0], 4))

    def test_mixed_dims_placement(self):
        # |0,2> over dims (2,3): row 0 / column 2 of the 2x3 block
        state = basis_state([2, 3], [0, 2])
        block = reshape(state, Bipartition.from_parties([0], 2))
        assert block[0, 2] == 1.0


class TestReducedPurity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ghz_any_cut_is_half(self, n):
        state = make_ghz(n)
        for part in (
            Bipartition.from_parties([0], n),
            Bipartition.from_parties(list(range(n // 2)), n),
        ):
            assert _spectrum_purity(state, part) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_is_pure(self):
        state = basis_state([2, 2, 2], [0, 0, 0])
        part = Bipartition.from_parties([0, 1], 3)
        assert _spectrum_purity(state, part) == pytest.approx(1.0, abs=1e-14)

    def test_w3_one_vs_rest(self):
        value = _spectrum_purity(make_w(3), Bipartition.from_parties([0], 3))
        assert value == pytest.approx(5.0 / 9.0, abs=1e-12)


class TestSchmidtSpectrum:
    def test_ghz3(self):
        lam = schmidt_weights(make_ghz(3), Bipartition.from_parties([0], 3))
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)

    def test_w3(self):
        lam = schmidt_weights(make_w(3), Bipartition.from_parties([0], 3))
        np.testing.assert_allclose(lam, [2 / 3, 1 / 3], atol=1e-12)

    def test_basis_state(self):
        lam = schmidt_weights(
            basis_state([2, 2, 2], [0, 0, 0]), Bipartition.from_parties([0], 3)
        )
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-14)

    def test_shape_and_ordering(self):
        rng = np.random.default_rng(11)
        state = haar_state([2, 2, 2, 2], rng)
        for side_a in ([0], [0, 3]):
            lam = schmidt_weights(state, Bipartition.from_parties(side_a, 4))
            d_a = math.prod(state.dims[k] for k in side_a)
            d_b = math.prod(state.dims) // d_a
            assert lam.shape == (min(d_a, d_b),)
            assert np.all(np.diff(lam) <= 0)
            assert np.all(lam >= 0) and np.all(lam <= 1)
            assert float(np.sum(lam)) == pytest.approx(1.0, abs=1e-10)


class TestDualPaths:
    def test_purity_matches_gram_both_sides(self):
        rng = np.random.default_rng(23)
        for dims in [(2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            state = haar_state(list(dims), rng)
            n = len(dims)
            cuts = [Bipartition.from_parties([0], n)]
            if n > 2:
                cuts.append(Bipartition.from_parties([0, n - 1], n))
            for part in cuts:
                fast = _spectrum_purity(state, part)
                assert abs(fast - _gram_purity(state, part, "rows")) <= 1e-10
                assert abs(fast - _gram_purity(state, part, "cols")) <= 1e-10

    def test_purity_matches_spectrum_sum(self):
        rng = np.random.default_rng(29)
        state = haar_state([2, 2, 2, 2, 2], rng)
        for part in (
            Bipartition.from_parties([0], 5),
            Bipartition.from_parties([0, 1], 5),
            Bipartition.from_parties([0, 2, 4], 5),
        ):
            lam = schmidt_weights(state, part)
            assert abs(_gram_purity(state, part) - float(np.sum(lam**2))) <= 1e-10

    def test_linear_entropy_matches_purity_on_mixed_cuts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            state = haar_state([2, 2, 2], rng)
            part = Bipartition.from_parties([0], 3)
            le = linear_entropy(schmidt_weights(state, part))
            assert abs(le - (1.0 - _spectrum_purity(state, part))) <= 1e-12

    def test_linear_entropy_resolves_product_cut(self):
        # the cross-term accumulation must not be limited by the 1e-16
        # cancellation floor of 1 - sum(s^4)
        rng = np.random.default_rng(37)
        part = Bipartition.from_parties([0, 1], 4)
        state = embed_product(haar_state([2, 2], rng), haar_state([2, 2], rng), part)
        assert linear_entropy(schmidt_weights(state, part)) <= 1e-25

    def test_local_unitary_leaves_purity(self):
        rng = np.random.default_rng(41)
        state = haar_state([2, 2, 2], rng)
        part = Bipartition.from_parties([0, 1], 3)
        before = _spectrum_purity(state, part)
        for party in range(3):
            rotated = apply_local_unitary(state, party, haar_unitary(2, rng))
            assert abs(_spectrum_purity(rotated, part) - before) <= 1e-10
