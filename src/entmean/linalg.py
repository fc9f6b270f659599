"""Bipartite reshaping, Schmidt spectra and the purity pass over a state's cuts.

Reshaping the amplitude vector across a cut gives a d_A x d_B matrix M whose
squared singular values are the Schmidt weights (schmidt_weights: one SVD,
the single-cut reference).  The measures need less than a spectrum:
cut_entropies takes each cut's purity tr rho_A^2 as ||G||_F^2 of the Gram
matrix G = M M^dagger of the smaller side, and decomposes only the cuts
where that purity cannot serve.

A permutation-symmetric qubit state (every party a qubit, the amplitude
tensor exactly unchanged by each swap of neighbouring parties) has one
amplitude a_k per Hamming weight k.  In the Dicke bases of the two sides
its matrix across any cut whose smaller side has m parties is the
(m+1) x (n-m+1) matrix a_{j+l} sqrt(C(m, j) C(n-m, l)), so cut_entropies
takes n//2 of those small matrices instead of one dense matrix per cut.
"""

from __future__ import annotations

import math

import numpy as np

from .bipartitions import Bipartition, enumerate_bipartitions
from .states import PureState

# A cut whose Gram linear entropy 1 - ||G||_F^2 is below this is recomputed
# by SVD.  The Gram value carries ~1e-16 absolute error, so past the guard
# a concurrence sqrt(k L) is off by at most ~3e-15 / (2 sqrt(GRAM_GUARD)),
# about 2e-13, inside the 1e-12 the tests hold it to.
GRAM_GUARD = 1e-4


def reshape(state: PureState, part: Bipartition) -> np.ndarray:
    """Reshape a state across a bipartition into a read-only d_A x d_B matrix.

    Entry [a, b] is the amplitude of the basis state whose A-side digits
    encode a and B-side digits encode b, each side in ascending party
    order with the lowest index most significant.
    """
    if part.n_parties != state.n_parties:
        raise ValueError(
            f"bipartition is over {part.n_parties} parties, "
            f"state has {state.n_parties}"
        )
    parties_a = part.parties_a
    d_a = math.prod(state.dims[k] for k in parties_a)
    order = parties_a + part.parties_b
    matrix = np.transpose(state.as_tensor(), order).reshape(d_a, -1)
    matrix.setflags(write=False)
    return matrix


def schmidt_weights(state: PureState, part: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients across one cut: read-only, descending.

    One singular value decomposition; there are min(d_A, d_B) weights.
    """
    s = np.linalg.svd(reshape(state, part), compute_uv=False)
    weights = s * s
    weights.setflags(write=False)
    return weights


def cut_entropies(
    state: PureState,
) -> tuple[tuple[tuple[Bipartition, int, float], ...], float]:
    """One pass over the cuts: ((part, d_min, linear entropy), ...) and max weight.

    The cuts come in canonical order, enumerated once.  Each cut's linear
    entropy is 1 - P from its Gram purity P, unless that is below
    GRAM_GUARD: then it is recomputed by SVD as cross terms, so a product
    cut stays at round-off far below the product-cut threshold.  The
    largest Schmidt weight over all cuts is exact to round-off: since
    P <= lambda_max <= sqrt(P), a cut whose sqrt(P) does not exceed the
    largest weight found so far cannot hold the maximum and is not solved.
    A permutation-symmetric qubit state takes one small Dicke-basis matrix
    per cut size instead (see the module docstring).
    """
    amplitudes = state.amplitudes
    if not amplitudes.imag.any():
        # real states (GHZ, W, the sweep families) take real GEMMs and solves;
        # a contiguous copy, so every cut matrix has the same memory layout
        amplitudes = amplitudes.real.copy()
    tensor = amplitudes.reshape(state.dims)
    parts = enumerate_bipartitions(state.n_parties)
    if _symmetric_qubits(tensor):
        return _symmetric_cut_entropies(tensor, parts)
    dims = state.dims
    rows = []
    top = 0.0
    for part in parts:
        side_a, side_b = part.parties_a, part.parties_b
        d_a = math.prod(dims[k] for k in side_a)
        d_b = tensor.size // d_a
        if d_a > d_b:
            side_a, side_b, d_a, d_b = side_b, side_a, d_b, d_a
        # the smaller side indexes the rows
        matrix = tensor.transpose(side_a + side_b).reshape(d_a, d_b)
        mixedness, top = _gram_step(matrix, top)
        rows.append((part, d_a, mixedness))
    return tuple(rows), float(top)


def _gram_step(matrix: np.ndarray, top: float) -> tuple[float, float]:
    """(linear entropy, largest weight so far) after one cut matrix, rows the smaller side."""
    gram = matrix @ matrix.conj().T
    purity = np.vdot(gram, gram).real
    mixedness = 1.0 - purity
    if mixedness < GRAM_GUARD:
        s = np.linalg.svd(matrix, compute_uv=False)
        weights = s * s
        return linear_entropy(weights), max(top, weights[0])
    if math.sqrt(purity) > top:
        top = max(top, np.linalg.eigvalsh(gram)[-1])
    return float(mixedness), top


def _symmetric_qubits(tensor: np.ndarray) -> bool:
    """True when every party is a qubit and every swap of two parties leaves the tensor equal."""
    if any(d != 2 for d in tensor.shape):
        return False
    # the first entries of the first swap's blocks, |010..0> and |100..0>:
    # two Python scalars turn most asymmetric states away before any array call
    n = tensor.ndim
    if tensor.item(1 << (n - 2)) != tensor.item(1 << (n - 1)):
        return False
    # swapping parties k and k+1 fixes the tensor iff its |..01..> and |..10..>
    # blocks are equal, half the data of comparing the swapped tensor;
    # neighbouring swaps generate every permutation, and a Haar state fails
    # the first
    for k in range(tensor.ndim - 1):
        head = (slice(None),) * k
        if not np.array_equal(tensor[head + (0, 1)], tensor[head + (1, 0)]):
            return False
    return True


def _symmetric_cut_entropies(tensor: np.ndarray, parts):
    """cut_entropies of a permutation-symmetric qubit state, one Gram step per cut size."""
    n = tensor.ndim
    # a[k]: the amplitude every basis state of Hamming weight k shares
    a = np.array([tensor[(1,) * k + (0,) * (n - k)] for k in range(n + 1)])
    by_size = [0.0]
    top = 0.0
    for m in range(1, n // 2 + 1):
        binom_a = [math.comb(m, j) for j in range(m + 1)]
        binom_b = [math.comb(n - m, l) for l in range(n - m + 1)]
        # a_{j+l} sqrt(C(m, j) C(n-m, l)) in this direct form, one rounding in
        # the root: the Bell state keeps its exact concurrence 1.0
        matrix = a[np.add.outer(range(m + 1), range(n - m + 1))] * np.sqrt(
            np.outer(binom_a, binom_b)
        )
        mixedness, top = _gram_step(matrix, top)
        by_size.append(mixedness)
    rows = []
    for part in parts:
        size = part.subset_a.bit_count()
        m = min(size, n - size)
        rows.append((part, 2**m, by_size[m]))
    return tuple(rows), float(top)


def linear_entropy(weights: np.ndarray) -> float:
    """1 - sum(w^2) of descending Schmidt weights, as cross terms 2 sum_{i<j} w_i w_j.

    Algebraically identical to 1 - tr(rho_A^2) for a normalized state, but
    free of the cancellation that formula suffers when the reduced state is
    nearly pure: a product cut comes out at the 1e-30 level here instead of
    the 1e-16 floor of the subtraction.
    """
    # ascending order: prefix sums stay exact while the terms are tiny
    lam = weights[::-1]
    prefix = np.concatenate(([0.0], np.cumsum(lam[:-1])))
    return float(2.0 * np.sum(lam * prefix))

