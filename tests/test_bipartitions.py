import numpy as np
import pytest
from conftest import from_parties
from hypothesis import given, settings
from hypothesis import strategies as st

from entmean import Bipartition, enumerate_bipartitions
from entmean.bipartitions import cut_multiplicity


class TestBipartition:
    def test_canonical_keeps_party_zero_in_a(self):
        part = from_parties([1, 2], 3)
        assert part.subset_a == 0b001
        assert part.parties_a == (0,)
        assert part.parties_b == (1, 2)

    def test_complement_and_size(self):
        part = from_parties([0, 2], 4)
        assert part.subset_a ^ 0b1111 == 0b1010
        assert part.subset_a.bit_count() == 2

    def test_label(self):
        assert from_parties([0, 2], 4).label == "02|13"
        assert from_parties([0], 3).label == "0|12"

    def test_label_commas_past_ten_parties(self):
        part = from_parties([0, 11], 12)
        assert part.label == "0,11|1,2,3,4,5,6,7,8,9,10"

    def test_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            Bipartition(0, 3)
        with pytest.raises(ValueError):
            Bipartition(0b111, 3)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Bipartition(0b1001, 3)

    @pytest.mark.parametrize("party", [-1, 3])
    def test_from_parties_rejects_out_of_range(self, party):
        with pytest.raises(ValueError, match="out of range"):
            from_parties([0, party], 3)

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

    @pytest.mark.parametrize("n", [4.0, 3.5, "4", None])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            enumerate_bipartitions(n)

    def test_numpy_integer_count_accepted(self):
        assert enumerate_bipartitions(np.int64(4)) is enumerate_bipartitions(4)


def _cut_count(n: int) -> int:
    """The cut count as a sum of cut multiplicities over the smaller side."""
    return sum(cut_multiplicity(n, m) for m in range(1, n // 2 + 1))


class TestCardinalityFormula:
    @pytest.mark.parametrize("n,expected", [(2, 1), (5, 15), (6, 31)])
    def test_known_values(self, n, expected):
        assert _cut_count(n) == expected

    def test_full_range_matches_power_of_two(self):
        for n in range(2, 21):
            count = _cut_count(n)
            assert count == 2 ** (n - 1) - 1
            assert len(enumerate_bipartitions(n)) == count

    def test_rejects_small_n(self):
        # a single party has no cut; the enumeration rejects it
        with pytest.raises(ValueError, match="party count must be in 2..20, got 1"):
            enumerate_bipartitions(1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cut_multiplicity_counts_enumerated_cuts(self, n):
        smaller = [
            min(len(p.parties_a), len(p.parties_b)) for p in enumerate_bipartitions(n)
        ]
        for m in range(1, n // 2 + 1):
            assert cut_multiplicity(n, m) == smaller.count(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_enumeration_properties(n):
    parts = enumerate_bipartitions(n)
    assert len(parts) == _cut_count(n) == 2 ** (n - 1) - 1
    seen = set()
    for p in parts:
        assert p.subset_a & 1, "canonical side must contain party 0"
        assert 0 < p.subset_a < (1 << n) - 1
        assert p.subset_a not in seen
        seen.add(p.subset_a)
        subset_b = sum(1 << k for k in p.parties_b)
        assert (p.subset_a | subset_b) == (1 << n) - 1
        assert (p.subset_a & subset_b) == 0
