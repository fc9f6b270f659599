"""Enumeration of the unordered bipartitions {A|B} of n parties.

Subsets are bitmasks with party k on bit k.  Each unordered split has a
unique canonical representative: the side containing party 0 is A.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .states import MAX_PARTIES, _integer

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
        if not a & 1:
            object.__setattr__(self, "subset_a", full ^ a)

    @property
    def parties_a(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_parties) if self.subset_a >> k & 1)

    @property
    def parties_b(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n_parties) if not self.subset_a >> k & 1)

    @property
    def label(self) -> str:
        """Text form like "02|1"; indices are comma-separated past party 9."""
        sep = "" if self.n_parties <= 10 else ","
        return f"{sep.join(map(str, self.parties_a))}|{sep.join(map(str, self.parties_b))}"


def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All unordered splits of n parties, sorted by (size of A, mask value).

    Masks containing party 0, which are exactly the odd ones, enumerate
    each unordered pair once, which gives 2**(n-1) - 1 entries.  The
    enumerations of up to MAX_PARTIES parties, the counts a dense state
    can have, are built once and shared.
    """
    n = _integer("n", n)
    if not 2 <= n <= MAX_N:
        raise ValueError(f"party count must be in 2..{MAX_N}, got {n}")
    if n <= MAX_PARTIES:
        return _enumerated(n)
    return _enumerated.__wrapped__(n)


# enumerate_bipartitions stays a plain function, so that wrappers installed
# on the module (profilers, tracers) see its calls; the cache sits behind it
@functools.lru_cache(maxsize=MAX_PARTIES)
def _enumerated(n: int) -> tuple[Bipartition, ...]:
    masks = sorted(range(1, (1 << n) - 1, 2), key=lambda m: (m.bit_count(), m))
    return tuple(Bipartition(m, n) for m in masks)


def cut_multiplicity(n: int, m: int) -> int:
    """Number of unordered cuts of n parties whose smaller side has m parties.

    C(n, m), halved at a balanced split, where A and B of equal size name
    the same unordered cut.
    """
    count = math.comb(n, m)
    return count // 2 if 2 * m == n else count

