"""Bipartite reshaping and the Schmidt spectra of a state's cuts.

The partial trace never materializes a density matrix here: reshaping the
amplitude vector across a cut and taking singular values yields the
Schmidt spectrum directly, which is cheaper and numerically stabler when
the two sides have very different sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .bipartitions import Bipartition, enumerate_bipartitions
from .states import PureState


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


def cut_spectra(state: PureState) -> tuple[tuple[Bipartition, np.ndarray], ...]:
    """Every cut of the state, in canonical order, with its Schmidt weights.

    The cuts are enumerated once and each one is decomposed once; every
    measure is an aggregate over this tuple.
    """
    return tuple(
        (part, schmidt_weights(state, part))
        for part in enumerate_bipartitions(state.n_parties)
    )


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

