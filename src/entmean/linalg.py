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

Every other dense state reads one plan per dims (_gram_plan): a cut table of
axis orders, row dims d_min and column dims, and the walk of the row sides S.
In a state of _TREE_MIN_SIZE or more amplitudes, S is traced over party k
from its parent P = S | {k}, k the lowest party not in S, when P is itself
a row side: O(d_S^2 d_k) additions in place of a GEMM.  Every other side is
a root and takes its Gram product; in a qubit state these are the sides of
n//2 parties.  A cut below GRAM_GUARD still takes the SVD of its cut matrix,
built from the tensor, so product cuts on traced nodes keep their exact
zeros.  The walk is depth first and holds one reduced matrix per level, none
above prod(dims) entries; a whole level would take about 112 MB at 13 qubits.

The Gram walk and the Dicke path share one eigen-solve queue
(_queued_cut_entropies).  The solves wait for every cut's purity; the cuts
are then taken in descending purity while sqrt(P) exceeds the top, each
Gram matrix rebuilt by the GEMM of its cut matrix, so on every path the
top comes from that GEMM and its solve.

grid_cut_entropies reads the same table to run the dense pass on a whole real
grid at once, one stacked step per cut, with the bits of the pass on each row.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bipartitions import Bipartition, enumerate_bipartitions
from .states import MAX_PARTIES, PureState

# A cut whose Gram linear entropy 1 - ||G||_F^2 is below this is recomputed
# by SVD.  The Gram value carries ~1e-16 absolute error, so past the guard
# a concurrence sqrt(k L) is off by at most ~3e-15 / (2 sqrt(GRAM_GUARD)),
# about 2e-13, inside the 1e-12 the tests hold it to.
GRAM_GUARD = 1e-4

# Dense states of at least this many amplitudes trace their Gram walk.  On
# Haar qubit states, BLAS at one thread, the trace ran 0.90-0.94x the per-cut
# GEMMs at 5 qubits, 0.98-1.06x at 7, 1.09-1.26x at 8 and 1.36-1.58x at 10.
# Below it every cut takes a GEMM, so the golden qudit states keep their bytes
# and each sweep family row, whose grid takes a GEMM per cut, equals full_report.
_TREE_MIN_SIZE = 256


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
) -> tuple[tuple[Bipartition, ...], tuple[int, ...], list[float], float]:
    """One pass over the cuts: (parts, d_mins, linear entropies, max weight).

    Cut c, in canonical order, is parts[c] and d_mins[c] its smaller side's
    dimension.  Its linear entropy is 1 - P from its Gram purity P, unless
    that is below GRAM_GUARD: then it is recomputed by SVD as cross terms,
    so a product cut stays at round-off far below the product-cut
    threshold.  The largest Schmidt weight over all cuts is exact to
    round-off: since P <= lambda_max <= sqrt(P), a cut whose sqrt(P) does
    not exceed the largest weight found so far cannot hold the maximum, so
    the cuts are solved in descending P until the first such cut.
    A permutation-symmetric qubit state takes one small Dicke-basis matrix
    per cut size instead, and any other state the Gram walk and the cut
    table of its dims (see the module docstring).
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
    plan = _gram_plan(state.dims)
    mixedness, top = _queued_cut_entropies(
        lambda c: _cut_matrix(tensor, plan, c), len(parts), _tree_grams(tensor, plan)
    )
    return parts, plan[2], mixedness, top


def grid_cut_entropies(
    dims: tuple[int, ...], grid: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """cut_entropies of every row of a real (k, prod(dims)) amplitude grid.

    Returns the d_min of each canonical cut, the (k, cuts) linear
    entropies and the k largest weights.  Each cut takes one stacked step
    over all rows (_gram_steps), in the canonical cut order, so every row
    runs the decompositions, and gets the bits, that cut_entropies gives
    its state on the dense path.
    """
    k = len(grid)
    stack = grid.reshape((k,) + dims)
    _, orders, d_mins, d_cols = _gram_plan(dims)
    mixedness = np.empty((k, len(orders)))
    top = np.zeros(k)
    for c, (order, d_a, d_b) in enumerate(zip(orders, d_mins, d_cols)):
        axes = (0,) + tuple(axis + 1 for axis in order)
        mixedness[:, c], top = _gram_steps(stack.transpose(axes).reshape(k, d_a, d_b), top)
    return d_mins, mixedness, top


# one entry per party count a dense state can have, like the enumeration
@functools.lru_cache(maxsize=MAX_PARTIES)
def _cut_orders(n: int) -> tuple[tuple[Bipartition, tuple, tuple, tuple], ...]:
    """(part, A-side parties, A-then-B axis order, B-then-A axis order) of each canonical cut."""
    return tuple(
        (part, part.parties_a, part.parties_a + part.parties_b, part.parties_b + part.parties_a)
        for part in enumerate_bipartitions(n)
    )


def _tree_grams(tensor: np.ndarray, plan):
    """(cut index, Gram matrix) of each cut along the walk of a _gram_plan."""
    d_mins = plan[2]
    # a row side can hold more than n//2 parties, so levels go to ndim
    levels = [None] * tensor.ndim
    for c, depth, shape in zip(*plan[0]):
        if shape is None:
            rho = _gram(_cut_matrix(tensor, plan, c))
        else:
            r = levels[depth - 1].reshape(shape)
            rho = r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]
            for j in range(2, shape[1]):
                rho += r[:, j, :, :, j, :]
            rho = rho.reshape(d_mins[c], d_mins[c])
        levels[depth] = rho
        yield c, rho


def _queued_cut_entropies(cut_matrix, count: int, grams) -> tuple[list[float], float]:
    """(linear entropies, largest weight) of count cuts from their (cut index, Gram matrix) pairs.

    cut_matrix(c) is cut c's matrix, rows the smaller side.  Each cut's
    purity P decides: below GRAM_GUARD its linear entropy and largest weight
    come from the SVD of its cut matrix; otherwise it waits in the
    eigen-solve queue.  P <= lambda_max <= sqrt(P), so the queue is taken in
    descending P and the first cut whose sqrt(P) does not exceed the top
    ends the solves.  Each solve rebuilds its cut's Gram matrix by the GEMM
    of the cut matrix.
    """
    mixedness = [0.0] * count
    pending = []
    top = 0.0
    for c, gram in grams:
        purity = float(np.vdot(gram, gram).real)
        if 1.0 - purity < GRAM_GUARD:
            s = np.linalg.svd(cut_matrix(c), compute_uv=False)
            weights = s * s
            mixedness[c] = linear_entropy(weights)
            top = max(top, weights[0])
        else:
            mixedness[c] = 1.0 - purity
            pending.append((purity, c))
    pending.sort(reverse=True)
    for purity, c in pending:
        if math.sqrt(purity) <= top:
            break
        top = max(top, np.linalg.eigvalsh(_gram(cut_matrix(c)))[-1])
    return mixedness, float(top)


def _cut_matrix(tensor: np.ndarray, plan, c: int) -> np.ndarray:
    """The matrix of cut c of a _gram_plan, rows the smaller side."""
    _, orders, d_mins, d_cols = plan
    return tensor.transpose(orders[c]).reshape(d_mins[c], d_cols[c])


def _gram(matrix: np.ndarray) -> np.ndarray:
    return matrix @ matrix.conj().T


# one plan per dims, like the party orders
@functools.lru_cache(maxsize=MAX_PARTIES)
def _gram_plan(dims: tuple[int, ...]) -> tuple[tuple, tuple, tuple[int, ...], tuple[int, ...]]:
    """(walk, orders, d_mins, d_cols): the cut table and Gram walk of a dense state of these dims.

    Cut c in canonical order has the matrix tensor.transpose(orders[c]) as
    d_mins[c] x d_cols[c], the smaller side (party 0's on a tie) on the rows.
    The walk is three parallel tuples (cut index, depth, parent shape),
    depth first, the roots (depth 0, shape None: one GEMM each) in cut
    order.  Any other cut's row side S is traced from its parent S | {k},
    k the lowest party not in S, the last side walked at depth - 1: the
    parent's Gram matrix reshaped to shape = (prod(dims[:k]), dims[k], b) * 2
    and summed over k's two axes.  S is traced when its parent is itself a
    row side and the state has at least _TREE_MIN_SIZE amplitudes.
    """
    size = math.prod(dims)
    full = (1 << len(dims)) - 1
    orders, d_mins, index = [], [], {}  # index: row side -> cut index, in cut order
    for c, (part, side_a, order_ab, order_ba) in enumerate(_cut_orders(len(dims))):
        d_a = math.prod([dims[k] for k in side_a])
        if d_a > size // d_a:
            orders.append(order_ba)
            d_mins.append(size // d_a)
            index[full ^ part.subset_a] = c
        else:
            orders.append(order_ab)
            d_mins.append(d_a)
            index[part.subset_a] = c
    table = tuple(orders), tuple(d_mins), tuple(size // d for d in d_mins)
    if size < _TREE_MIN_SIZE:
        count = len(d_mins)
        return (tuple(range(count)), (0,) * count, (None,) * count), *table
    prefix = [math.prod(dims[:k]) for k in range(len(dims))]
    shapes = {}  # one tuple per (k, d), shared by every walk entry
    walk = []
    # (side, cut index, depth, parent shape), popped last in first: the roots in cut order
    stack = [(side, c, 0, None) for side, c in reversed(index.items())
             if side | (~side & (side + 1)) not in index]
    while stack:
        side, c, depth, _ = entry = stack.pop()
        walk.append(entry)
        d = d_mins[c]
        # each child drops a party k below the lowest party missing from side
        for k in reversed(range((~side & (side + 1)).bit_length() - 1)):
            child = index.get(side & ~(1 << k))
            if child is not None:
                a, d_k = prefix[k], dims[k]
                shape = shapes.setdefault((k, d), (a, d_k, d // (a * d_k)) * 2)
                stack.append((side & ~(1 << k), child, depth + 1, shape))
    return tuple(zip(*walk))[1:], *table


def _gram_steps(matrices: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(linear entropies, tops) of one cut of a real (k, d_a, d_b) stack, one top per row.

    Each row is one state's cut matrix, rows the smaller side.  Its Gram
    purity P decides: below GRAM_GUARD its linear entropy and weight come
    from an SVD; otherwise its linear entropy is 1 - P, and an eigen solve
    of its Gram matrix raises its top only when sqrt(P) exceeds it.  The
    purity is a row-times-column matmul, which numpy evaluates with the dot
    product np.vdot uses, and the decompositions run the same LAPACK routine
    per matrix, one stacked svd and one stacked eigvalsh, so each row gets
    the bits of that step taken on its matrix alone.  The single-state
    queue (_queued_cut_entropies) solves fewer cuts, in descending purity,
    but every cut that can hold a row's largest weight is solved on both,
    so the tops agree.  A single state keeps the queue: as a stack of one
    (made complex-capable) this gives the same reports, but the stack
    bookkeeping cut full_report's cuts per second by 20-30% on the
    benchmark's 12-qubit and mixed qudit states (BENCH_15.json).
    """
    k = len(matrices)
    grams = matrices @ matrices.transpose(0, 2, 1)
    flat = grams.reshape(k, 1, -1)
    purity = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    mixedness = 1.0 - purity
    top = top.copy()
    guard = mixedness < GRAM_GUARD
    if guard.any():
        s = np.linalg.svd(matrices[guard], compute_uv=False)
        weights = s * s
        mixedness[guard] = [linear_entropy(w) for w in weights]
        top[guard] = np.maximum(top[guard], weights[:, 0])
    solve = ~guard & (np.sqrt(purity) > top)
    if solve.any():
        top[solve] = np.maximum(top[solve], np.linalg.eigvalsh(grams[solve])[:, -1])
    return mixedness, top


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
    """cut_entropies of a permutation-symmetric qubit state, one Dicke matrix per cut size."""
    n = tensor.ndim
    # a[k]: the amplitude every basis state of Hamming weight k shares
    a = np.array([tensor[(1,) * k + (0,) * (n - k)] for k in range(n + 1)])
    matrices = []
    for m in range(1, n // 2 + 1):
        binom_a = [math.comb(m, j) for j in range(m + 1)]
        binom_b = [math.comb(n - m, l) for l in range(n - m + 1)]
        # a_{j+l} sqrt(C(m, j) C(n-m, l)) in this direct form, one rounding in
        # the root: the Bell state keeps its exact concurrence 1.0
        matrices.append(
            a[np.add.outer(range(m + 1), range(n - m + 1))] * np.sqrt(np.outer(binom_a, binom_b))
        )
    grams = ((i, _gram(matrix)) for i, matrix in enumerate(matrices))
    by_size, top = _queued_cut_entropies(matrices.__getitem__, len(matrices), grams)
    d_mins, mixedness = [], []
    for part in parts:
        size = part.subset_a.bit_count()
        m = min(size, n - size)
        d_mins.append(2**m)
        mixedness.append(by_size[m - 1])
    return parts, d_mins, mixedness, top


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

