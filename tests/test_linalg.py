import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    apply_local_unitary,
    basis_state,
    embed_product,
    from_parties,
    haar_state,
    haar_unitary,
    symmetric_state,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmean import (
    PureState,
    enumerate_bipartitions,
    full_report,
    gbc,
    ggm,
    gmc,
    linear_entropy,
    make_custom,
    make_ghz,
    make_w,
    permute_parties,
    reshape,
    schmidt_weights,
)
import entmean.linalg
from entmean.linalg import GRAM_GUARD, cut_entropies

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _spy(monkeypatch, owner, name):
    """Let owner.name record the arguments of each call in the returned list."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _spectrum_purity(state, part):
    return float(np.sum(schmidt_weights(state, part) ** 2))


def _gram_purity(state, part, side="rows"):
    matrix = reshape(state, part)
    gram = matrix @ matrix.conj().T if side == "rows" else matrix.conj().T @ matrix
    return float(np.trace(gram @ gram).real)


class TestReshape:
    def test_ghz3_one_vs_rest(self):
        block = reshape(make_ghz(3), from_parties([0], 3))
        assert block.shape == (2, 4)
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = expected[1, 3] = INV_SQRT2
        np.testing.assert_allclose(block, expected, atol=0)

    def test_w3_two_vs_one(self):
        block = reshape(make_w(3), from_parties([0, 1], 3))
        assert block.shape == (4, 2)
        expected = np.zeros((4, 2), dtype=complex)
        expected[0, 1] = expected[1, 0] = expected[2, 0] = 1 / math.sqrt(3)
        np.testing.assert_allclose(block, expected, atol=0)

    def test_product_state_rank_one(self):
        block = reshape(basis_state([2, 2], [0, 0]), from_parties([0], 2))
        assert np.linalg.matrix_rank(block) == 1

    def test_frobenius_norm_preserved(self):
        rng = np.random.default_rng(3)
        state = haar_state([2, 3, 2], rng)
        for part in (from_parties([0], 3), from_parties([0, 2], 3)):
            block = reshape(state, part)
            assert np.linalg.norm(block) == pytest.approx(1.0, abs=1e-12)

    def test_party_count_mismatch(self):
        with pytest.raises(ValueError):
            reshape(make_ghz(3), from_parties([0], 4))

    def test_mixed_dims_placement(self):
        # |0,2> over dims (2,3): row 0 / column 2 of the 2x3 block
        state = basis_state([2, 3], [0, 2])
        block = reshape(state, from_parties([0], 2))
        assert block[0, 2] == 1.0


class TestReducedPurity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ghz_any_cut_is_half(self, n):
        state = make_ghz(n)
        for part in (
            from_parties([0], n),
            from_parties(list(range(n // 2)), n),
        ):
            assert _spectrum_purity(state, part) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_is_pure(self):
        state = basis_state([2, 2, 2], [0, 0, 0])
        part = from_parties([0, 1], 3)
        assert _spectrum_purity(state, part) == pytest.approx(1.0, abs=1e-14)

    def test_w3_one_vs_rest(self):
        value = _spectrum_purity(make_w(3), from_parties([0], 3))
        assert value == pytest.approx(5.0 / 9.0, abs=1e-12)


class TestSchmidtSpectrum:
    def test_ghz3(self):
        lam = schmidt_weights(make_ghz(3), from_parties([0], 3))
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-12)

    def test_w3(self):
        lam = schmidt_weights(make_w(3), from_parties([0], 3))
        np.testing.assert_allclose(lam, [2 / 3, 1 / 3], atol=1e-12)

    def test_basis_state(self):
        lam = schmidt_weights(
            basis_state([2, 2, 2], [0, 0, 0]), from_parties([0], 3)
        )
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-14)

    def test_shape_and_ordering(self):
        rng = np.random.default_rng(11)
        state = haar_state([2, 2, 2, 2], rng)
        for side_a in ([0], [0, 3]):
            lam = schmidt_weights(state, from_parties(side_a, 4))
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
            cuts = [from_parties([0], n)]
            if n > 2:
                cuts.append(from_parties([0, n - 1], n))
            for part in cuts:
                fast = _spectrum_purity(state, part)
                assert abs(fast - _gram_purity(state, part, "rows")) <= 1e-10
                assert abs(fast - _gram_purity(state, part, "cols")) <= 1e-10

    def test_purity_matches_spectrum_sum(self):
        rng = np.random.default_rng(29)
        state = haar_state([2, 2, 2, 2, 2], rng)
        for part in (
            from_parties([0], 5),
            from_parties([0, 1], 5),
            from_parties([0, 2, 4], 5),
        ):
            lam = schmidt_weights(state, part)
            assert abs(_gram_purity(state, part) - float(np.sum(lam**2))) <= 1e-10

    def test_linear_entropy_matches_purity_on_mixed_cuts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            state = haar_state([2, 2, 2], rng)
            part = from_parties([0], 3)
            le = linear_entropy(schmidt_weights(state, part))
            assert abs(le - (1.0 - _spectrum_purity(state, part))) <= 1e-12

    def test_linear_entropy_resolves_product_cut(self):
        # the cross-term accumulation must not be limited by the 1e-16
        # cancellation floor of 1 - sum(s^4)
        rng = np.random.default_rng(37)
        part = from_parties([0, 1], 4)
        state = embed_product(haar_state([2, 2], rng), haar_state([2, 2], rng), part)
        assert linear_entropy(schmidt_weights(state, part)) <= 1e-25

    def test_local_unitary_leaves_purity(self):
        rng = np.random.default_rng(41)
        state = haar_state([2, 2, 2], rng)
        part = from_parties([0, 1], 3)
        before = _spectrum_purity(state, part)
        for party in range(3):
            rotated = apply_local_unitary(state, party, haar_unitary(2, rng))
            assert abs(_spectrum_purity(rotated, part) - before) <= 1e-10


def _svd_path(state):
    """Reference for cut_entropies: every cut's concurrence and the largest weight.

    One SVD per cut; each value is concurrence(state, part) from the same
    weights, the regularized form.
    """
    values, top = [], 0.0
    for part in enumerate_bipartitions(state.n_parties):
        weights = schmidt_weights(state, part)
        d_min = len(weights)
        values.append(min(1.0, math.sqrt(d_min / (d_min - 1.0) * linear_entropy(weights))))
        top = max(top, float(weights[0]))
    return values, top


def _gram_path(state):
    values = [value for _, value in full_report(state).per_bipartition]
    return values, cut_entropies(state)[1]


class TestCutEntropies:
    @pytest.mark.parametrize(
        "dims",
        [[2] * n for n in range(2, 11)]
        + [[3] * n for n in range(2, 7)]
        + [[3, 2, 3, 2, 2, 3, 2], [2, 3, 3, 2, 3]],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_agrees_with_the_svd_path_on_haar_states(self, dims):
        state = haar_state(dims, np.random.default_rng(len(dims) * 10 + dims[0]))
        values, top = _gram_path(state)
        ref_values, ref_top = _svd_path(state)
        assert max(abs(a - b) for a, b in zip(values, ref_values)) <= 1e-12
        assert abs(top - ref_top) <= 1e-12
        assert abs(ggm(state) - (1.0 - ref_top)) <= 1e-12

    def test_rows_follow_the_canonical_cuts(self):
        state = haar_state([3, 2, 2], np.random.default_rng(67))
        rows, _ = cut_entropies(state)
        assert [part for part, _, _ in rows] == list(enumerate_bipartitions(3))
        assert [d_min for _, d_min, _ in rows] == [3, 2, 2]

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("builder", [make_ghz, make_w])
    def test_same_size_cuts_share_one_value(self, builder, n):
        by_size = {}
        for part, value in full_report(builder(n)).per_bipartition:
            size = min(len(part.parties_a), len(part.parties_b))
            by_size.setdefault(size, set()).add(value)
        assert all(len(values) == 1 for values in by_size.values()), by_size


# cos(eps) product + sin(eps) entangled: the product cut 0|123 vanishes at
# eps = 0, and its linear entropy sweeps through GRAM_GUARD as eps grows
_GUARD_CUT = from_parties([0], 4)


def _near_product(eps):
    rng = np.random.default_rng(71)
    product = embed_product(
        haar_state([2], rng), haar_state([2, 2, 2], rng), _GUARD_CUT
    )
    entangled = haar_state([2, 2, 2, 2], rng)
    vec = math.cos(eps) * product.amplitudes + math.sin(eps) * entangled.amplitudes
    return make_custom([2, 2, 2, 2], vec, renormalize=True)


def _guard_cut_entropy(state):
    rows, _ = cut_entropies(state)
    return next(mixedness for part, _, mixedness in rows if part == _GUARD_CUT)


class TestGramGuard:
    def test_the_family_crosses_the_guard(self):
        below = _guard_cut_entropy(_near_product(1e-3))
        above = _guard_cut_entropy(_near_product(3e-2))
        assert below < GRAM_GUARD < above

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 0.1))
    @example(0.0)
    @example(5e-3)
    @example(1e-2)
    def test_near_product_cuts_match_the_svd_path(self, eps):
        state = _near_product(eps)
        values, top = _gram_path(state)
        ref_values, ref_top = _svd_path(state)
        assert max(abs(a - b) for a, b in zip(values, ref_values)) <= 1e-12
        assert abs(top - ref_top) <= 1e-12
        assert all(0.0 <= v <= 1.0 for v in values)
        if eps == 0.0:
            assert gbc(state) == gmc(state) == ggm(state) == 0.0


def _symmetric_states(n):
    """GHZ_n, W_n, every Dicke state D(n, k) and three seeded random complex ones."""
    rng = np.random.default_rng(100 + n)
    states = {"ghz": make_ghz(n), "w": make_w(n)}
    for k in range(n + 1):
        states[f"dicke{k}"] = symmetric_state(np.eye(n + 1)[k])
    for i in range(3):
        states[f"random{i}"] = symmetric_state(
            rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        )
    return states


class TestSymmetricPath:
    """Permutation-symmetric qubit states take n//2 Dicke-basis cut matrices."""

    @pytest.fixture
    def shortcuts(self, monkeypatch):
        """Count the calls that take the symmetric path."""
        return _spy(monkeypatch, entmean.linalg, "_symmetric_cut_entropies")

    @pytest.mark.parametrize("n", range(2, 13))
    def test_agrees_with_the_dense_path(self, n, shortcuts, monkeypatch):
        for name, state in _symmetric_states(n).items():
            with monkeypatch.context() as patch:
                patch.setattr(entmean.linalg, "_symmetric_qubits", lambda tensor: False)
                dense = full_report(state)
            assert not shortcuts
            report = full_report(state)
            assert len(shortcuts) == 1, name
            shortcuts.clear()
            cuts = [part for part, _ in report.per_bipartition]
            assert cuts == [part for part, _ in dense.per_bipartition], name
            diffs = [
                abs(a - b)
                for (_, a), (_, b) in zip(report.per_bipartition, dense.per_bipartition)
            ]
            assert max(diffs) <= 1e-14, name
            for measure in ("gbc", "gmc", "ggm"):
                diff = abs(getattr(report, measure) - getattr(dense, measure))
                assert diff <= 1e-14, (name, measure)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_product_states_stay_exactly_zero(self, n, shortcuts):
        alpha, beta = np.exp(0.3j) * math.cos(0.4), math.sin(0.4)
        products = {
            "zeros": np.eye(n + 1)[0],
            "ones": np.eye(n + 1)[n],
            "plus": np.ones(n + 1),
            "tilted": [alpha ** (n - k) * beta**k for k in range(n + 1)],
        }
        for name, weight_amplitudes in products.items():
            state = symmetric_state(weight_amplitudes)
            report = full_report(state)
            assert report.gbc == report.gmc == report.ggm == 0.0, name
            values = [v for _, v in report.per_bipartition]
            assert all(0.0 <= v <= 1.0 for v in values), name
        assert len(shortcuts) == len(products)

    def test_near_symmetric_states_take_the_dense_path(self, shortcuts):
        w8 = make_w(8).amplitudes.copy()
        w8[1 << 3] += 1e-13
        qutrits = np.zeros(27)
        qutrits[[0, 13, 26]] = 1.0  # |000> + |111> + |222>
        # symmetric in parties 0..2; party 3 differs, so only the last swap fails
        tensor = np.zeros((2, 2, 2, 2))
        tensor[1, 0, 0, 0] = tensor[0, 1, 0, 0] = tensor[0, 0, 1, 0] = 0.6
        tensor[0, 0, 0, 1] = 0.8
        swaps = [np.array_equal(tensor, tensor.swapaxes(k, k + 1)) for k in range(3)]
        assert swaps == [True, True, False]
        asymmetric = make_custom([2] * 4, tensor.reshape(-1), renormalize=True)
        states = {
            "w8-perturbed": make_custom([2] * 8, w8, renormalize=True),
            "qutrit-ghz": make_custom([3] * 3, qutrits, renormalize=True),
            "permuted": permute_parties(asymmetric, (3, 0, 1, 2)),
            "unpermuted": asymmetric,
        }
        for name, state in states.items():
            values, top = _gram_path(state)
            ref_values, ref_top = _svd_path(state)
            assert not shortcuts, name
            assert max(abs(a - b) for a, b in zip(values, ref_values)) <= 1e-12, name
            assert abs(top - ref_top) <= 1e-12, name


def _real_stack(rng, k, d_a, d_b):
    """k seeded real unit-norm d_a x d_b matrices; every third is near rank one."""
    stack = rng.standard_normal((k, d_a, d_b))
    for i in range(0, k, 3):
        eps = 0.0 if i == 0 else 10.0 ** -rng.uniform(0.5, 6.0)
        outer = np.outer(rng.standard_normal(d_a), rng.standard_normal(d_b))
        stack[i] = outer + eps * stack[i]
    return stack / np.linalg.norm(stack.reshape(k, -1), axis=1)[:, None, None]


def _real_grid(rng, dims, k):
    """k seeded real unit rows over dims; every fourth a product across party 0."""
    grid = rng.standard_normal((k, math.prod(dims)))
    for i in range(0, k, 4):
        rest = grid.shape[1] // dims[0]
        grid[i] = np.kron(rng.standard_normal(dims[0]), rng.standard_normal(rest))
    return grid / np.linalg.norm(grid, axis=1)[:, None]


def _gram_step(matrix: np.ndarray, top: float) -> tuple[float, float]:
    """The scalar reference of _gram_steps: (linear entropy, top) after one cut matrix."""
    gram = entmean.linalg._gram(matrix)
    purity = np.vdot(gram, gram).real
    mixedness = 1.0 - purity
    if mixedness < GRAM_GUARD:
        s = np.linalg.svd(matrix, compute_uv=False)
        weights = s * s
        return linear_entropy(weights), max(top, weights[0])
    if math.sqrt(purity) > top:
        top = max(top, np.linalg.eigvalsh(gram)[-1])
    return float(mixedness), top


class TestStackedStep:
    """_gram_steps over a stack is the scalar _gram_step row by row, bit for bit."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 8), (3, 6), (4, 4), (8, 8)])
    def test_equals_the_scalar_step_per_row(self, shape):
        rng = np.random.default_rng(sum(shape))
        k = 60
        stack = _real_stack(rng, k, *shape)
        tops = rng.uniform(0.0, 1.0, k)
        tops[::5] = 0.0
        mixedness, top = entmean.linalg._gram_steps(stack, tops)
        for r in range(k):
            assert (mixedness[r], top[r]) == _gram_step(stack[r], float(tops[r]))
        # the stack exercises the guard, the prune and the eigen solve
        purity = np.array([np.vdot(m @ m.T, m @ m.T) for m in stack])
        guarded = 1.0 - purity < GRAM_GUARD
        skipped = ~guarded & (np.sqrt(purity) <= tops)
        assert guarded.any() and skipped.any() and not (guarded | skipped).all()

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2, 2), (2, 2, 2, 2, 2)],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_grid_rows_equal_cut_entropies(self, dims):
        grid = _real_grid(np.random.default_rng(len(dims) + dims[1]), dims, 41)
        cuts, mixedness, top = entmean.linalg.grid_cut_entropies(dims, grid)
        for r, row in enumerate(grid):
            rows, row_top = cut_entropies(PureState(dims, row))
            assert [(part, d_min) for part, d_min, _ in rows] == cuts
            assert [m for _, _, m in rows] == mixedness[r].tolist()
            assert row_top == top[r]

    def test_one_svd_and_one_eigvalsh_per_cut(self, monkeypatch):
        dims = (2, 3, 2, 2)
        grid = _real_grid(np.random.default_rng(5), dims, 40)
        calls = {"svd": 0, "eigvalsh": 0}
        per_cut = []

        def spy(name):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        step = entmean.linalg._gram_steps

        def counted_step(*args):
            before = dict(calls)
            result = step(*args)
            per_cut.append({name: calls[name] - before[name] for name in calls})
            return result

        for name in calls:
            monkeypatch.setattr(np.linalg, name, spy(name))
        monkeypatch.setattr(entmean.linalg, "_gram_steps", counted_step)
        entmean.linalg.grid_cut_entropies(dims, grid)
        assert len(per_cut) == len(enumerate_bipartitions(len(dims)))
        assert all(c["svd"] <= 1 and c["eigvalsh"] <= 1 for c in per_cut), per_cut
        # the product rows put cut 0|123 below the guard; row 1 solves every cut
        assert calls["svd"] >= 1 and calls["eigvalsh"] >= 1


class TestCutLayouts:
    """Each cut's layout puts the smaller side first and matches reshape."""

    @pytest.mark.parametrize(
        "dims", [(2, 2), (4, 2, 3), (3, 2, 2, 4), (2, 4, 3, 2, 2), (2,) * 7],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_layout_is_the_cut_matrix_smaller_side_first(self, dims):
        state = haar_state(dims, np.random.default_rng(len(dims)))
        layouts = entmean.linalg._cut_layouts(dims)
        assert [part for part, _, _, _ in layouts] == list(enumerate_bipartitions(len(dims)))
        for part, order, d_a, d_b in layouts:
            assert d_a <= d_b and d_a * d_b == math.prod(dims)
            matrix = state.as_tensor().transpose(order).reshape(d_a, d_b)
            cut = reshape(state, part)
            assert np.array_equal(matrix, cut if cut.shape == (d_a, d_b) else cut.T)

    def test_party_orders_cached_once_per_party_count(self):
        orders = entmean.linalg._cut_orders
        assert orders.cache_info().maxsize == entmean.states.MAX_PARTIES
        assert orders(5) is orders(5)


def _real_haar(dims, rng):
    vec = rng.standard_normal(math.prod(dims))
    return make_custom(dims, vec / np.linalg.norm(vec), renormalize=True)


def _shuffled_product(n, split, rng):
    """Haar(split qubits) x Haar(n - split qubits) on shuffled parties, and the product cut."""
    product = np.kron(haar_state([2] * split, rng).amplitudes,
                      haar_state([2] * (n - split), rng).amplitudes)
    perm = rng.permutation(n)
    state = permute_parties(make_custom([2] * n, product, renormalize=True), perm)
    # party i of the shuffled state is party perm[i] of the product
    return state, from_parties(np.flatnonzero(perm < split), n)


TREE_MIN = entmean.linalg._TREE_MIN_QUBITS


class TestTraceTree:
    """Dense qubit states from _TREE_MIN_QUBITS up: one GEMM per balanced side, the rest traced."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Count the calls that take the partial-trace tree."""
        return _spy(monkeypatch, entmean.linalg, "_tree_grams")

    @pytest.mark.parametrize("n", range(TREE_MIN, 14))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_agrees_with_the_svd_path(self, n, field, walks):
        rng = np.random.default_rng(300 + n)
        state = (_real_haar if field == "real" else haar_state)([2] * n, rng)
        rows, top = cut_entropies(state)
        assert len(walks) == 1
        values = [value for _, value in full_report(state).per_bipartition]
        ref_values, ref_top = _svd_path(state)
        assert max(abs(a - b) for a, b in zip(values, ref_values)) <= 1e-12
        assert abs(top - ref_top) <= 1e-12
        parts = enumerate_bipartitions(n)
        assert [part for part, _, _ in rows] == list(parts)
        assert [d_min for _, d_min, _ in rows] == [
            2 ** min(len(p.parties_a), len(p.parties_b)) for p in parts
        ]

    def test_small_symmetric_and_qudit_states_skip_the_tree(self, walks):
        rng = np.random.default_rng(303)
        states = [
            haar_state([2] * (TREE_MIN - 1), rng),
            make_w(12),
            make_ghz(13),
            symmetric_state(rng.standard_normal(13) + 1j * rng.standard_normal(13)),
            haar_state([3] + [2] * (TREE_MIN - 1), rng),
        ]
        for state in states:
            full_report(state)
        assert not walks

    @pytest.mark.parametrize("n", [11, 12])
    def test_product_cuts_on_tree_nodes_stay_exactly_zero(self, n, walks):
        rng = np.random.default_rng(310 + n)
        for split in range(1, n // 2 + 1):
            state, part = _shuffled_product(n, split, rng)
            report = full_report(state)
            assert report.gbc == report.gmc == report.ggm == 0.0, split
            assert dict(report.per_bipartition)[part] < 1e-12, split
            assert all(0.0 <= v <= 1.0 for _, v in report.per_bipartition), split
        assert len(walks) == n // 2

    def test_values_unchanged_by_party_permutations_and_local_unitaries(self):
        rng = np.random.default_rng(312)
        state = haar_state([2] * 12, rng)
        base = dict(full_report(state).per_bipartition)
        perm = rng.permutation(12)
        # party i of the permuted state is party perm[i] of the original
        for part, value in full_report(permute_parties(state, perm)).per_bipartition:
            original = from_parties([perm[i] for i in part.parties_a], 12)
            assert abs(value - base[original]) <= 1e-12
        rotated = state
        for party in range(12):
            rotated = apply_local_unitary(rotated, party, haar_unitary(2, rng))
        for part, value in full_report(rotated).per_bipartition:
            assert abs(value - base[part]) <= 1e-12

    def test_memory_holds_one_reduced_matrix_per_level(self, walks):
        state = haar_state([2] * 13, np.random.default_rng(313))
        cut_entropies(state)  # the per-qubit-count plan and party orders are cached
        tracemalloc.start()
        try:
            cut_entropies(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 1716 64x64 complex matrices of one whole level take about 112 MB
        assert peak < 4 * 2**20
        assert len(walks) == 2

    def test_eigen_solves_no_more_than_the_per_cut_loop(self, monkeypatch, walks):
        rng = np.random.default_rng(314)
        states = {"haar12": (haar_state([2] * 12, rng), 12)}
        states["haar6xhaar6"] = (_shuffled_product(12, 6, rng)[0], 0)
        for name, (state, solves) in states.items():
            with monkeypatch.context() as patch:
                calls = _spy(patch, np.linalg, "eigvalsh")
                cut_entropies(state)
            assert len(calls) == solves, name
            with monkeypatch.context() as patch:
                patch.setattr(entmean.linalg, "_TREE_MIN_QUBITS", 15)
                loop_calls = _spy(patch, np.linalg, "eigvalsh")
                cut_entropies(state)
            assert solves <= len(loop_calls), name
        assert len(walks) == 2
