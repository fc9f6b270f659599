import gc
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
    return values, cut_entropies(state)[3]


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
        parts, d_mins, mixedness, _ = cut_entropies(state)
        assert parts == enumerate_bipartitions(3)
        assert list(d_mins) == [3, 2, 2]
        assert len(mixedness) == 3

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
    parts, _, mixedness, _ = cut_entropies(state)
    return mixedness[parts.index(_GUARD_CUT)]


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
        d_mins, mixedness, top = entmean.linalg.grid_cut_entropies(dims, grid)
        for r, row in enumerate(grid):
            parts, row_d_mins, row_mixedness, row_top = cut_entropies(PureState(dims, row))
            assert row_d_mins == d_mins and len(parts) == len(d_mins)
            assert row_mixedness == mixedness[r].tolist()
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
    """_gram_plan's cut table: each cut's matrix, the smaller side first, read by every path."""

    @pytest.mark.parametrize(
        "dims", [(2, 2), (4, 2, 3), (3, 2, 2, 4), (2, 4, 3, 2, 2), (2,) * 7],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_layout_is_the_cut_matrix_smaller_side_first(self, dims):
        state = haar_state(dims, np.random.default_rng(len(dims)))
        walk, orders, d_mins, d_cols = entmean.linalg._gram_plan(dims)
        parts = enumerate_bipartitions(len(dims))
        assert len(orders) == len(d_mins) == len(d_cols) == len(parts)
        for part, order, d_min, d_col in zip(parts, orders, d_mins, d_cols):
            assert d_min <= d_col and d_min * d_col == math.prod(dims)
            matrix = state.as_tensor().transpose(order).reshape(d_min, d_col)
            cut = reshape(state, part)
            assert np.array_equal(matrix, cut if cut.shape == (d_min, d_col) else cut.T)

    def test_party_orders_cached_once_per_party_count(self):
        orders, plan = entmean.linalg._cut_orders, entmean.linalg._gram_plan
        for cached, key in ((orders, 5), (plan, (3, 2, 2, 4)), (plan, (2,) * 9)):
            assert cached.cache_info().maxsize == entmean.states.MAX_PARTIES
            assert cached(key) is cached(key)
        # the dense pass and the grid read the cached table, not a copy
        rng = np.random.default_rng(9)
        for dims in ((3, 2, 2, 4), (2,) * 9):
            first, second = (cut_entropies(haar_state(dims, rng))[1] for _ in range(2))
            assert first is second is plan(dims)[2]
        grid = _real_grid(rng, (2, 3, 2), 5)
        assert entmean.linalg.grid_cut_entropies((2, 3, 2), grid)[0] is plan((2, 3, 2))[2]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_path_gives_the_same_d_mins(self, n, monkeypatch):
        dims = (2,) * n
        state = make_w(n)
        symmetric = cut_entropies(state)[1]
        with monkeypatch.context() as patch:
            patch.setattr(entmean.linalg, "_symmetric_qubits", lambda tensor: False)
            dense = cut_entropies(state)[1]
        grid = entmean.linalg.grid_cut_entropies(dims, state.amplitudes.real[None, :])[0]
        assert list(symmetric) == list(dense) == list(grid)
        assert dense is grid is entmean.linalg._gram_plan(dims)[2]

    def test_fourteen_qubit_plan_memory(self):
        dims = (2,) * 14
        entmean.linalg._cut_orders(14)  # the party orders are a cache of their own
        gc.collect()
        tracemalloc.start()
        try:
            # built apart from the cache, so no later test loses a cached plan
            plan = entmean.linalg._gram_plan.__wrapped__(dims)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan[2]) == 8191
        # one tuple per walk entry and per cut layout took 1.57 MiB
        assert held < 2**20, held


def _real_haar(dims, rng):
    vec = rng.standard_normal(math.prod(dims))
    return make_custom(dims, vec / np.linalg.norm(vec), renormalize=True)


def _shuffled_product(dims, split, rng):
    """Haar(dims[:split]) x Haar(dims[split:]) on shuffled parties, and the product cut."""
    n = len(dims)
    product = np.kron(haar_state(dims[:split], rng).amplitudes,
                      haar_state(dims[split:], rng).amplitudes)
    perm = rng.permutation(n)
    state = permute_parties(make_custom(dims, product, renormalize=True), perm)
    # party i of the shuffled state is party perm[i] of the product
    return state, from_parties(np.flatnonzero(perm < split), n)


def _row_side(dims, order, d_min):
    """The parties, as a mask, that a cut of this axis order and row dim puts on the rows."""
    side, d = 0, 1
    for k in order:
        if d == d_min:
            break
        side, d = side | 1 << k, d * dims[k]
    return side


def _traces(plan):
    return any(shape is not None for shape in plan[0][2])


# the fewest qubits whose states trace
TREE_MIN = int(math.log2(entmean.linalg._TREE_MIN_SIZE))

# local dims 2-4 over 3-8 parties, at most 8192 amplitudes
_DIMS = st.lists(st.integers(2, 4), min_size=3, max_size=8).filter(
    lambda dims: math.prod(dims) <= 8192
)


class TestTraceTree:
    """The Gram walk: dense states of _TREE_MIN_SIZE or more amplitudes trace their sides."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """Count the calls that take the partial-trace tree."""
        return _spy(monkeypatch, entmean.linalg, "_tree_grams")

    @pytest.mark.parametrize("n", range(TREE_MIN, 14))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_agrees_with_the_svd_path(self, n, field, walks):
        rng = np.random.default_rng(300 + n)
        state = (_real_haar if field == "real" else haar_state)([2] * n, rng)
        parts, d_mins, _, top = cut_entropies(state)
        assert len(walks) == 1
        values = [value for _, value in full_report(state).per_bipartition]
        ref_values, ref_top = _svd_path(state)
        assert max(abs(a - b) for a, b in zip(values, ref_values)) <= 1e-12
        assert abs(top - ref_top) <= 1e-12
        assert parts == enumerate_bipartitions(n)
        assert list(d_mins) == [2 ** min(len(p.parties_a), len(p.parties_b)) for p in parts]

    def test_symmetric_states_skip_the_walk_and_small_states_walk_roots(self, walks):
        rng = np.random.default_rng(303)
        for state in (
            make_w(12),
            make_ghz(13),
            symmetric_state(rng.standard_normal(13) + 1j * rng.standard_normal(13)),
        ):
            full_report(state)
        assert not walks
        # 128 and 192 amplitudes take a GEMM per cut; 384 trace
        for dims in ([2] * (TREE_MIN - 1), [3, 2, 4, 2, 2, 2], [3] + [2] * (TREE_MIN - 1)):
            full_report(haar_state(dims, rng))
        assert [_traces(plan) for _, plan in walks] == [False, False, True]

    @pytest.mark.parametrize("n", range(3, 15))
    def test_qubit_walk_roots_and_parents(self, n):
        dims = (2,) * n
        walk, orders, d_mins, _ = entmean.linalg._gram_plan(dims)
        assert len(set(map(len, walk))) == 1
        assert sorted(walk[0]) == list(range(len(orders)))
        roots = [c for c, _, shape in zip(*walk) if shape is None]
        assert roots == sorted(roots)
        if n < TREE_MIN:
            assert len(roots) == len(walk[0])
        else:
            balanced = math.comb(n - 1, n // 2 - 1) if n % 2 == 0 else math.comb(n, n // 2)
            assert len(roots) == balanced
        # each traced entry's parent is the last entry walked one level up
        last = {}
        for c, depth, shape in zip(*walk):
            side = _row_side(dims, orders[c], d_mins[c])
            if shape is not None:
                assert side | (~side & (side + 1)) == last[depth - 1]
                # the parent's Gram matrix traced over k leaves d_min x d_min
                assert shape[0] * shape[2] == d_mins[c]
            last[depth] = side

    @settings(max_examples=40, deadline=None)
    @given(_DIMS, st.booleans(), st.integers(0, 2**32 - 1))
    # the row side {0..4} holds more than n//2 parties, and its walk five levels
    @example([2, 2, 2, 2, 2, 64], False, 0)
    @example([2, 2, 2, 2, 2, 64], True, 1)
    def test_every_cut_matches_schmidt_weights_on_random_dims(self, dims, real, seed):
        state = (_real_haar if real else haar_state)(dims, np.random.default_rng(seed))
        parts, d_mins, mixedness_of, top = cut_entropies(state)
        ref_top = 0.0
        for part, d_min, mixedness in zip(parts, d_mins, mixedness_of, strict=True):
            weights = schmidt_weights(state, part)
            assert d_min == len(weights)
            assert abs(mixedness - linear_entropy(weights)) <= 1e-12
            ref_top = max(ref_top, float(weights[0]))
        assert abs(top - ref_top) <= 1e-12

    def test_product_cuts_on_traced_qudit_nodes_stay_exactly_zero(self, walks):
        dims = [3, 4, 2, 3, 2, 2]
        rng = np.random.default_rng(320)
        on_traced = 0
        for split in range(1, len(dims)):
            for _ in range(3):
                state, part = _shuffled_product(dims, split, rng)
                report = full_report(state)
                assert report.gbc == report.gmc == report.ggm == 0.0, split
                assert dict(report.per_bipartition)[part] < 1e-12, split
                assert all(0.0 <= v <= 1.0 for _, v in report.per_bipartition), split
                cuts, _, shapes = walks[-1][1][0]
                c = enumerate_bipartitions(len(dims)).index(part)
                on_traced += shapes[cuts.index(c)] is not None
        assert on_traced >= 5, on_traced

    def test_every_sweep_family_stays_below_the_trace_gate(self):
        # a traced family state would no longer equal its stacked grid row bit for bit
        for dims, _ in entmean.states.FAMILIES.values():
            assert math.prod(dims) < entmean.linalg._TREE_MIN_SIZE

    @pytest.mark.parametrize("n", [11, 12])
    def test_product_cuts_on_tree_nodes_stay_exactly_zero(self, n, walks):
        rng = np.random.default_rng(310 + n)
        for split in range(1, n // 2 + 1):
            state, part = _shuffled_product([2] * n, split, rng)
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
        cut_entropies(state)  # the per-dims plan and party orders are cached
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
        states["haar6xhaar6"] = (_shuffled_product([2] * 12, 6, rng)[0], 0)
        plan = entmean.linalg._gram_plan
        for name, (state, solves) in states.items():
            with monkeypatch.context() as patch:
                calls = _spy(patch, np.linalg, "eigvalsh")
                cut_entropies(state)
            assert len(calls) == solves, name
            # an all-roots plan is the per-cut loop; no later test may inherit it
            plan.cache_clear()
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(entmean.linalg, "_TREE_MIN_SIZE", 2**14 + 1)
                    loop_calls = _spy(patch, np.linalg, "eigvalsh")
                    cut_entropies(state)
            finally:
                plan.cache_clear()
            assert solves <= len(loop_calls), name
        assert [_traces(plan) for _, plan in walks] == [True, False, True, False]
