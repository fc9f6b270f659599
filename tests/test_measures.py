import math
from collections import Counter

import numpy as np
import pytest
from conftest import (
    apply_local_unitary,
    basis_state,
    embed_product,
    from_parties,
    haar_state,
    haar_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from entmean import (
    concurrence,
    concurrence_fill,
    enumerate_bipartitions,
    family_state,
    full_report,
    gbc,
    ggm,
    gmc,
    make_custom,
    make_family_a,
    make_family_b,
    make_ghz,
    make_w,
    permute_parties,
)
import entmean
from entmean.closedform import gbc_ghz, gbc_w
from entmean.linalg import GRAM_GUARD

W3_CUT = 2.0 * math.sqrt(2.0) / 3.0


def qutrit_bell():
    amps = np.zeros(9)
    amps[[0, 4, 8]] = 1 / math.sqrt(3)
    return make_custom([3, 3], amps)


class TestConcurrence:
    def test_ghz4_balanced_cut(self):
        value = concurrence(make_ghz(4), from_parties([0, 1], 4))
        assert value == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_w3_one_vs_rest(self):
        value = concurrence(make_w(3), from_parties([0], 3))
        assert value == pytest.approx(W3_CUT, abs=1e-12)

    def test_qutrit_bell_reaches_one(self):
        value = concurrence(qutrit_bell(), from_parties([0], 2))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_unregularized_variant(self):
        # plain normalization exceeds 1 once d_min > 2
        value = concurrence(
            qutrit_bell(), from_parties([0], 2), regularized=False
        )
        assert value == pytest.approx(math.sqrt(4 / 3), abs=1e-12)

    def test_regularization_is_a_constant_factor(self):
        rng = np.random.default_rng(5)
        for dims in [(2, 2, 2), (3, 3), (2, 3, 2), (4, 4)]:
            state = haar_state(list(dims), rng)
            part = from_parties([0], len(dims))
            d_min = min(dims[0], math.prod(dims[1:]))
            reg = concurrence(state, part)
            plain = concurrence(state, part, regularized=False)
            assert reg == pytest.approx(
                plain * math.sqrt(d_min / (2.0 * (d_min - 1))), abs=1e-12
            )

    def test_product_cut_vanishes(self):
        state = basis_state([2, 2], [0, 0])
        assert concurrence(state, from_parties([0], 2)) <= 1e-12

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            gbc(make_custom([3], [1, 0, 0]))


class TestGbc:
    def test_ghz3_is_one(self):
        assert gbc(make_ghz(3)) == pytest.approx(1.0, abs=1e-12)

    def test_w3(self):
        assert gbc(make_w(3)) == pytest.approx(W3_CUT, abs=1e-12)

    def test_biseparable_is_exact_zero(self):
        state = embed_product(
            basis_state([2], [0]), make_ghz(2), from_parties([0], 3)
        )
        assert gbc(state) == 0.0

    def test_ghz4_frozen_value(self):
        # product of three sqrt(2/3) factors over 7 cuts
        assert gbc(make_ghz(4)) == pytest.approx((2 / 3) ** (3 / 14), abs=1e-12)

    def test_w4_frozen_value(self):
        # four one-vs-rest factors sqrt(3)/2, three balanced sqrt(2/3)
        expected = ((3 / 4) ** 2 * (2 / 3) ** 1.5) ** (1 / 7)
        assert gbc(make_w(4)) == pytest.approx(expected, abs=1e-12)


class TestGmc:
    def test_ghz4_minimum_is_balanced_cut(self):
        assert gmc(make_ghz(4)) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_ghz3(self):
        assert gmc(make_ghz(3)) == pytest.approx(1.0, abs=1e-12)

    def test_biseparable(self):
        rng = np.random.default_rng(13)
        part = from_parties([0, 2], 4)
        state = embed_product(haar_state([2, 2], rng), haar_state([2, 2], rng), part)
        assert gmc(state) <= 1e-10


class TestGgm:
    def test_ghz3(self):
        assert ggm(make_ghz(3)) == pytest.approx(0.5, abs=1e-12)

    def test_w3(self):
        assert ggm(make_w(3)) == pytest.approx(1 / 3, abs=1e-12)

    def test_product(self):
        assert ggm(basis_state([2, 2, 2], [0, 0, 0])) <= 1e-12


class TestConcurrenceFill:
    def test_ghz3_is_one(self):
        assert concurrence_fill(make_ghz(3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_tensor_bell_degenerate(self):
        state = embed_product(
            basis_state([2], [0]), make_ghz(2), from_parties([0], 3)
        )
        assert concurrence_fill(state) <= 1e-6

    def test_w3_equilateral(self):
        # sides all (2 sqrt2 / 3)^2 = 8/9; Heron: q = 4/3,
        # Q = (4/3)(4/9)^3 = 256/2187, (16/3 * Q)^(1/4) = 8/9 exactly
        side = W3_CUT**2
        q = 1.5 * side
        heron = q * (q - side) ** 3
        expected = (16 / 3 * heron) ** 0.25
        assert expected == pytest.approx(8 / 9, abs=1e-15)
        assert concurrence_fill(make_w(3)) == pytest.approx(8 / 9, abs=1e-12)

    def test_rejects_non_three_qubit(self):
        with pytest.raises(ValueError, match="3 qubits"):
            concurrence_fill(make_ghz(4))
        with pytest.raises(ValueError, match="3 qubits"):
            concurrence_fill(qutrit_bell())


class TestFullReport:
    def test_ghz3_report(self):
        report = full_report(make_ghz(3))
        assert report.gbc == pytest.approx(1.0, abs=1e-12)
        assert report.gmc == pytest.approx(1.0, abs=1e-12)
        assert report.ggm == pytest.approx(0.5, abs=1e-12)
        assert report.fill == pytest.approx(1.0, abs=1e-12)
        assert report.cardinality == 3

    def test_family_b_zero_all_vanish(self):
        report = full_report(make_family_b(0.0))
        assert report.gbc == 0.0
        assert report.gmc <= 1e-12
        assert report.ggm <= 1e-12
        assert report.fill <= 1e-12

    def test_family_a_zero_equals_ghz3(self):
        lhs = full_report(make_family_a(0.0))
        rhs = full_report(make_ghz(3))
        for (pl, vl), (pr, vr) in zip(lhs.per_bipartition, rhs.per_bipartition):
            assert pl == pr
            assert vl == pytest.approx(vr, abs=1e-12)
        assert lhs.gbc == pytest.approx(rhs.gbc, abs=1e-12)
        assert lhs.fill == pytest.approx(rhs.fill, abs=1e-12)

    def test_fill_present_only_for_three_qubits(self):
        assert full_report(make_ghz(4)).fill is None
        assert full_report(make_ghz(2)).fill is None
        assert full_report(make_w(3)).fill is not None

    def test_report_internal_consistency(self):
        rng = np.random.default_rng(17)
        for dims in [(2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2, 2)]:
            report = full_report(haar_state(list(dims), rng))
            values = [v for _, v in report.per_bipartition]
            assert report.gmc == min(values)
            assert report.gbc == pytest.approx(
                report.product_p ** (1.0 / report.cardinality), abs=1e-12
            )
            assert all(0.0 <= v <= 1.0 for v in values)
            for field in (report.gbc, report.gmc, report.ggm):
                assert 0.0 <= field <= 1.0

    def test_json_dict_keys(self):
        doc = full_report(make_ghz(3)).to_json_dict()
        assert set(doc["concurrences"]) == {"0|12", "01|2", "02|1"}
        assert doc["cardinality"] == 3
        assert doc["fill"] == pytest.approx(1.0)

    def test_regularized_flag_threads_through(self):
        state = haar_state([2, 2, 2, 2], np.random.default_rng(19))
        plain = full_report(state, regularized=False)
        reg = full_report(state)
        # the 2-vs-2 cuts differ by the constant sqrt(4/6) under Eq-style scaling
        assert plain.gbc > reg.gbc


class TestProductCutRule:
    @pytest.mark.parametrize(
        "dims", [(2, 2, 2), (2, 2, 2, 2), (3, 2, 2), (2, 3, 2, 2), (3, 3, 2, 2, 2)]
    )
    def test_biseparable_scores_exact_zero(self, dims):
        # one product cut at every placement, parties shuffled afterwards
        rng = np.random.default_rng(59)
        n = len(dims)
        for part in enumerate_bipartitions(n):
            side_a = haar_state([dims[k] for k in part.parties_a], rng)
            side_b = haar_state([dims[k] for k in part.parties_b], rng)
            state = permute_parties(
                embed_product(side_a, side_b, part), rng.permutation(n)
            )
            report = full_report(state)
            assert gbc(state) == gmc(state) == ggm(state) == 0.0
            assert (report.gbc, report.gmc, report.ggm) == (0.0, 0.0, 0.0)
            if dims == (2, 2, 2):
                assert concurrence_fill(state) == report.fill == 0.0

    def test_round_off_product_cut_scores_exact_zero(self):
        # cos(pi/2) = 6e-17 leaves every cut at round-off, not at exactly 0
        report = full_report(make_family_b(math.pi / 2))
        assert (report.gbc, report.gmc, report.ggm, report.fill) == (0.0,) * 4


class TestOnePass:
    """Each measure enumerates the cuts once and takes one Gram purity per cut.

    No entangled cut is decomposed by SVD: only a cut below the Gram guard
    is, together with its cross-term linear entropy.  An eigen solve runs
    only on a cut whose purity bound can still hold ggm's largest weight.
    A permutation-symmetric qubit state has one matrix per cut size.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(
            entmean.linalg,
            "linear_entropy",
            counting("entropy", entmean.linalg.linear_entropy),
        )
        enumerate_ = entmean.bipartitions.enumerate_bipartitions
        counted = counting("enumerate", enumerate_)
        for module in (entmean, entmean.bipartitions, entmean.linalg, entmean.measures):
            if vars(module).get("enumerate_bipartitions") is enumerate_:
                monkeypatch.setattr(module, "enumerate_bipartitions", counted)
        return counts

    @staticmethod
    def _measures(state):
        functions = [full_report, gbc, gmc, ggm]
        if state.dims == (2, 2, 2):
            functions.append(concurrence_fill)
        return functions

    @pytest.mark.parametrize(
        "state, eigen_solves",
        [
            # the solves run in descending purity and stop at the first cut
            # whose sqrt(P) cannot exceed the largest weight found
            (haar_state([2, 2, 2], np.random.default_rng(47)), 1),
            # symmetric: one matrix per cut size; the 1|3 size solves to 3/4,
            # and the 2|2 size has sqrt(P) < 3/4
            (make_w(4), 1),
            (haar_state([3, 2, 2, 2], np.random.default_rng(53)), 3),
            # every cut ties at 1/2, so no bound prunes: one solve per cut size
            (make_ghz(12), 6),
            # the 1|11 size, the purest, solves first and prunes the rest
            (make_w(12), 1),
            # symmetric at every theta: its one cut size takes one solve
            (family_state("b", 0.7), 1),
        ],
        ids=["haar-222", "w4", "haar-3222", "ghz12", "w12", "b-0.7"],
    )
    def test_entangled_cuts_take_no_svd(self, state, eigen_solves, calls):
        # the first pass over a party count caches its cut orders, enumerating once more
        full_report(state)
        for function in self._measures(state):
            calls.clear()
            function(state)
            assert calls == Counter(enumerate=1, eigvalsh=eigen_solves), function.__name__

    def test_guarded_cuts_take_one_svd_each(self, calls):
        # parties 0 and 1 are each a product factor: the cuts 0|123, 1|023
        # and 01|23 are product cuts, the other four are entangled
        rng = np.random.default_rng(61)
        pair = make_custom(
            [2, 2],
            np.kron(haar_state([2], rng).amplitudes, haar_state([2], rng).amplitudes),
        )
        state = embed_product(
            pair, haar_state([2, 2], rng), from_parties([0, 1], 4)
        )
        rows, _ = entmean.linalg.cut_entropies(state)
        guarded = [part.label for part, _, mixedness in rows if mixedness < GRAM_GUARD]
        assert guarded == ["0|123", "01|23", "023|1"]
        for function in self._measures(state):
            calls.clear()
            function(state)
            # a product cut's weight 1 bounds every other cut: no eigen solve
            assert calls == Counter(enumerate=1, svd=3, entropy=3), function.__name__


class TestMeasureProperties:
    def test_ghz_beats_w_numeric(self):
        for n in range(3, 13):
            assert gbc(make_ghz(n)) > gbc(make_w(n))

    def test_ghz_beats_w_closed_form_tail(self):
        # 13..14 via the oracle proven equivalent to the pipeline on 2..12
        for n in (13, 14):
            assert gbc_ghz(n).gbc > gbc_w(n).gbc

    def test_lu_invariance(self):
        rng = np.random.default_rng(43)
        dims_pool = [(2, 2), (2, 2, 2), (2, 3), (2, 2, 2, 2), (3, 2, 2)]
        for trial in range(25):
            dims = dims_pool[trial % len(dims_pool)]
            state = haar_state(list(dims), rng)
            party = int(rng.integers(len(dims)))
            rotated = apply_local_unitary(
                state, party, haar_unitary(dims[party], rng)
            )
            assert abs(gbc(rotated) - gbc(state)) <= 1e-9
            assert abs(gmc(rotated) - gmc(state)) <= 1e-9
            assert abs(ggm(rotated) - ggm(state)) <= 1e-9
            if dims == (2, 2, 2):
                assert abs(
                    concurrence_fill(rotated) - concurrence_fill(state)
                ) <= 1e-9

    @pytest.mark.parametrize("builder", [make_ghz, make_w])
    def test_permutation_invariance(self, builder):
        state = builder(4)
        base = full_report(state)
        for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)]:
            report = full_report(permute_parties(state, perm))
            assert abs(report.gbc - base.gbc) <= 1e-12
            assert abs(report.gmc - base.gmc) <= 1e-12
            assert abs(report.ggm - base.ggm) <= 1e-12


@st.composite
def random_states(draw):
    shapes = [(2, 2), (2, 2, 2), (2, 3), (2, 2, 2, 2), (3, 3), (2, 3, 2), (3, 2, 2), (2, 2, 3)]
    dims = draw(st.sampled_from(shapes))
    total = math.prod(dims)
    re = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False), min_size=total, max_size=total
        )
    )
    im = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False), min_size=total, max_size=total
        )
    )
    vec = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.zeros(total, dtype=complex)
        vec[0] = 1.0
        norm = 1.0
    return make_custom(dims, vec / norm, renormalize=True)


@settings(max_examples=30, deadline=None)
@given(random_states())
def test_geometric_mean_dominance(state):
    # min <= geometric mean <= max; the 1e-12 slack covers the exact-zero
    # short circuit of gbc against the ~1e-16 floor of the minimum cut
    values = [concurrence(state, part) for part in enumerate_bipartitions(state.n_parties)]
    g = gbc(state)
    assert gmc(state) <= g + 1e-12
    assert g <= max(values) + 1e-12


@settings(max_examples=30, deadline=None)
@given(random_states(), st.booleans())
def test_report_equals_standalone_measures(state, regularized):
    report = full_report(state, regularized)
    assert report.gbc == gbc(state, regularized)
    assert report.gmc == gmc(state, regularized)
    if state.dims == (2, 2, 2):
        # the fill is regularized under either setting
        assert report.fill == concurrence_fill(state)
    if regularized:
        assert report.ggm == ggm(state)
