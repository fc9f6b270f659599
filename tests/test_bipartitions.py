import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmean import Bipartition, cardinality_formula, enumerate_bipartitions


class TestBipartition:
    def test_canonical_keeps_party_zero_in_a(self):
        part = Bipartition.from_parties([1, 2], 3)
        assert part.subset_a == 0b001
        assert part.parties_a == (0,)
        assert part.parties_b == (1, 2)

    def test_complement_and_size(self):
        part = Bipartition.from_parties([0, 2], 4)
        assert part.subset_a ^ 0b1111 == 0b1010
        assert part.subset_a.bit_count() == 2

    def test_label(self):
        assert Bipartition.from_parties([0, 2], 4).label == "02|13"
        assert Bipartition.from_parties([0], 3).label == "0|12"

    def test_label_commas_past_ten_parties(self):
        part = Bipartition.from_parties([0, 11], 12)
        assert part.label == "0,11|1,2,3,4,5,6,7,8,9,10"

    def test_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            Bipartition(0, 3)
        with pytest.raises(ValueError):
            Bipartition(0b111, 3)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Bipartition(0b1001, 3)

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            Bipartition(1, 1)
        with pytest.raises(ValueError):
            Bipartition(1, 21)


class TestEnumeration:
    def test_n3_exact(self):
        parts = enumerate_bipartitions(3)
        assert len(parts) == 3
        assert [p.label for p in parts] == ["0|12", "01|2", "02|1"]

    def test_n4_count(self):
        assert len(enumerate_bipartitions(4)) == 7

    def test_n2_single_cut(self):
        parts = enumerate_bipartitions(2)
        assert len(parts) == 1
        assert parts[0].label == "0|1"

    def test_no_complement_appears(self):
        for n in (3, 4, 5, 6):
            masks = {p.subset_a for p in enumerate_bipartitions(n)}
            full = (1 << n) - 1
            assert all((full ^ m) not in masks for m in masks)

    def test_deterministic(self):
        assert enumerate_bipartitions(5) == enumerate_bipartitions(5)

    def test_sorted_by_size_then_mask(self):
        parts = enumerate_bipartitions(5)
        keys = [(p.subset_a.bit_count(), p.subset_a) for p in parts]
        assert keys == sorted(keys)

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            enumerate_bipartitions(1)
        with pytest.raises(ValueError):
            enumerate_bipartitions(21)


class TestCardinalityFormula:
    @pytest.mark.parametrize("n,expected", [(2, 1), (5, 15), (6, 31)])
    def test_known_values(self, n, expected):
        assert cardinality_formula(n) == expected

    def test_full_range_matches_power_of_two(self):
        for n in range(2, 21):
            count = cardinality_formula(n)
            assert count == 2 ** (n - 1) - 1
            assert len(enumerate_bipartitions(n)) == count

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cardinality_formula(1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_enumeration_properties(n):
    parts = enumerate_bipartitions(n)
    assert len(parts) == cardinality_formula(n) == 2 ** (n - 1) - 1
    seen = set()
    for p in parts:
        assert p.subset_a & 1, "canonical side must contain party 0"
        assert 0 < p.subset_a < (1 << n) - 1
        assert p.subset_a not in seen
        seen.add(p.subset_a)
        subset_b = sum(1 << k for k in p.parties_b)
        assert (p.subset_a | subset_b) == (1 << n) - 1
        assert (p.subset_a & subset_b) == 0
