"""Enumeration of the unordered bipartitions {A|B} of n parties.

Subsets are bitmasks with party k on bit k.  Each unordered split has a
unique canonical representative: the side containing party 0 is A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_N = 20  # bitmask enumeration cap; dense states stop at states.MAX_PARTIES


@dataclass(frozen=True, slots=True)
class Bipartition:
    """One unordered split of range(n_parties), canonicalized so 0 is in A."""

    subset_a: int
    n_parties: int

    def __post_init__(self) -> None:
        n = self.n_parties
        if not 2 <= n <= MAX_N:
            raise ValueError(f"party count must be in 2..{MAX_N}, got {n}")
        full = (1 << n) - 1
        a = self.subset_a
        if not 0 < a < full:
            raise ValueError(
                f"subset {a:#b} is not a nonempty proper subset of {n} parties"
            )
        if a & ~full:
            raise ValueError(f"subset {a:#b} has bits beyond party {n - 1}")
        if not a & 1:
            object.__setattr__(self, "subset_a", full ^ a)

    @property
    def parties_a(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_parties) if self.subset_a >> k & 1)

    @property
    def parties_b(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_parties) if not self.subset_a >> k & 1)

    @classmethod
    def from_parties(cls, parties, n_parties: int) -> "Bipartition":
        """Build from an iterable of party indices for one side of the cut."""
        mask = 0
        for p in parties:
            p = int(p)
            if not 0 <= p < n_parties:
                raise ValueError(f"party {p} out of range for {n_parties} parties")
            mask |= 1 << p
        return cls(mask, n_parties)

    @property
    def label(self) -> str:
        """Text form like "02|1"; indices are comma-separated past party 9."""
        sep = "" if self.n_parties <= 10 else ","
        return f"{sep.join(map(str, self.parties_a))}|{sep.join(map(str, self.parties_b))}"


def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All unordered splits of n parties, sorted by (size of A, mask value).

    Masks containing party 0 enumerate each unordered pair exactly once,
    which gives 2**(n-1) - 1 entries.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"party count must be in 2..{MAX_N}, got {n}")
    full = (1 << n) - 1
    masks = sorted(
        (m for m in range(1, full) if m & 1),
        key=lambda m: (m.bit_count(), m),
    )
    return tuple(Bipartition(m, n) for m in masks)


def cardinality_formula(n: int) -> int:
    """Bipartition count as a sum of binomials over the size of side A.

    Balanced splits of even n are counted at half multiplicity because A
    and B of equal size describe the same unordered cut.  Equals
    2**(n-1) - 1 for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"party count must be >= 2, got {n}")
    if n % 2:
        return sum(math.comb(n, m) for m in range(1, (n - 1) // 2 + 1))
    return (
        sum(math.comb(n, m) for m in range(1, (n - 2) // 2 + 1))
        + math.comb(n, n // 2) // 2
    )
