"""Closed-form aggregate concurrences for GHZ-type and W-type states.

The per-cut concurrence of either family depends only on the size m of
the smaller side, so the product over all cuts collapses to a sum of
binomial multiplicities times log factors.  Everything is evaluated in
the log domain with exact integer binomials, which keeps the results
finite far beyond the dense-state cap (n up to 64 here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bipartitions import cut_multiplicity
from .states import _integer

MAX_N = 64


def ghz_concurrence_m(n: int, m: int) -> float:
    """GHZ concurrence across any m-vs-rest qubit cut: sqrt(d/(2(d-1))), d = 2**m."""
    n, m = _check_split(n, m)
    d = 2.0**m
    return math.sqrt(d / (2.0 * (d - 1.0)))


def w_concurrence_m(n: int, m: int) -> float:
    """W concurrence across any m-vs-rest qubit cut.

    sqrt((m n - m^2) 2^(m+1) / ((2^m - 1) n^2)); at m = 1 this reduces to
    2 sqrt((n-1)/n^2), and at a balanced cut it coincides with the GHZ
    value.
    """
    n, m = _check_split(n, m)
    return math.sqrt((m * n - m * m) * 2.0 ** (m + 1) / ((2.0**m - 1.0) * n * n))


@dataclass(frozen=True)
class ClosedFormRow:
    """Aggregate for one n: per-split-size factors, log product, and gbc.

    concurrences_by_m lists (multiplicity, value) for m = 1..n//2, with
    the balanced split of even n at half binomial multiplicity.  The
    multiplicities always sum to 2**(n-1) - 1.
    """

    n: int
    concurrences_by_m: tuple[tuple[int, float], ...]
    log_product: float
    gbc: float


def gbc_ghz(n: int) -> ClosedFormRow:
    """Closed-form gbc of the n-qubit GHZ state."""
    return _row(n, ghz_concurrence_m)


def gbc_w(n: int) -> ClosedFormRow:
    """Closed-form gbc of the n-qubit W state."""
    return _row(n, w_concurrence_m)


def ratio_w_over_ghz(n: int) -> float:
    """gbc of the W state divided by gbc of the GHZ state at the same n."""
    return gbc_w(n).gbc / gbc_ghz(n).gbc


def closed_form_table(n_max: int) -> list[tuple[int, float, float, float]]:
    """Rows (n, gbc_ghz, gbc_w, ratio) for n = 2..n_max."""
    n_max = _integer("n_max", n_max)
    if not 2 <= n_max <= MAX_N:
        raise ValueError(f"n_max must be in 2..{MAX_N}, got {n_max}")
    table = []
    for n in range(2, n_max + 1):
        g = gbc_ghz(n).gbc
        w = gbc_w(n).gbc
        table.append((n, g, w, w / g))
    return table


def emit_closed_form_csv(table, path) -> None:
    """Write (n, gbc_ghz, gbc_w, ratio) rows as CSV."""
    lines = ["n,gbc_ghz,gbc_w,ratio"]
    lines += [f"{n},{g!r},{w!r},{ratio!r}" for n, g, w, ratio in table]
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _row(n: int, factor) -> ClosedFormRow:
    n = _integer("n", n)
    if not 2 <= n <= MAX_N:
        raise ValueError(f"party count must be in 2..{MAX_N}, got {n}")
    terms = tuple(
        (cut_multiplicity(n, m), factor(n, m)) for m in range(1, n // 2 + 1)
    )
    log_product = math.fsum(mult * math.log(value) for mult, value in terms)
    cardinality = sum(mult for mult, _ in terms)
    return ClosedFormRow(n, terms, log_product, math.exp(log_product / cardinality))


def _check_split(n: int, m: int) -> tuple[int, int]:
    """n and m as ints, with 2 <= n <= MAX_N and 1 <= m <= n // 2."""
    n, m = _integer("n", n), _integer("m", m)
    if not 2 <= n <= MAX_N:
        raise ValueError(f"party count must be in 2..{MAX_N}, got {n}")
    if not 1 <= m <= n // 2:
        raise ValueError(f"split size must be in 1..{n // 2}, got {m}")
    return n, m
