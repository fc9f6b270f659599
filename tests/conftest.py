"""Shared test helpers: random states, Haar unitaries, product embeddings,
symmetric qubit states."""

from __future__ import annotations

import math

import numpy as np

from entmean import Bipartition, PureState, make_custom


def haar_state(dims, rng) -> PureState:
    """Random pure state with Haar-distributed direction."""
    total = math.prod(dims)
    vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return make_custom(dims, vec / np.linalg.norm(vec), renormalize=True)


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed d x d unitary via QR with phase fixing."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def embed_product(side_a: PureState, side_b: PureState, part: Bipartition) -> PureState:
    """Tensor two states together, placing them on the parties of a cut.

    side_a lands on part.parties_a (in ascending order) and side_b on
    part.parties_b; the result is a product state across exactly that cut.
    """
    order = part.parties_a + part.parties_b
    dims = tuple(side_a.dims) + tuple(side_b.dims)
    tensor = np.kron(side_a.amplitudes, side_b.amplitudes).reshape(dims)
    inverse = [order.index(i) for i in range(len(order))]
    out_dims = tuple(dims[p] for p in inverse)
    return PureState(out_dims, np.transpose(tensor, inverse).reshape(-1))


def basis_state(dims, digits) -> PureState:
    """Computational basis state |digits> for the given dims."""
    index = 0
    for d, b in zip(dims, digits):
        index = index * d + b
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[index] = 1.0
    return PureState(tuple(dims), amps)


def symmetric_state(weight_amplitudes) -> PureState:
    """Permutation-symmetric qubit state, renormalized, from one amplitude per weight.

    weight_amplitudes[k] is the amplitude of every basis state with k ones,
    so n = len(weight_amplitudes) - 1 parties and the amplitude tensor is
    exactly unchanged by any party permutation.  The Dicke state D(n, k) is
    the k-th unit vector.
    """
    n = len(weight_amplitudes) - 1
    weights = [index.bit_count() for index in range(2**n)]
    vec = np.asarray(weight_amplitudes, dtype=np.complex128)[weights]
    return make_custom([2] * n, vec, renormalize=True)
