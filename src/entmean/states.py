"""Construction and validation of multi-qudit pure states.

Basis convention used throughout the package: party 0 is the most
significant digit of the basis index, so the label |b0 b1 ... b_{n-1}>
maps to index sum_k b_k * prod_{j>k} dims[j].  This is the index order a
C-contiguous reshape to one axis per party produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
CUSTOM_NORM_TOL = 1e-9
MAX_PARTIES = 14


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a fixed tuple of local dimensions.

    Instances are immutable: the amplitude array is copied on construction
    and write-protected, so states can be shared freely between threads.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims, amps = _checked_layout(self.dims, self.amplitudes)
        _require_unit_norm(_finite_norm(amps))
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amplitudes.reshape(self.dims)

    def to_json_dict(self) -> dict:
        """JSON document {"dims": [...], "re": [...], "im": [...]}."""
        return {
            "dims": list(self.dims),
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PureState":
        """Rebuild a state from its JSON document.

        The "im" field may be omitted for real vectors.  The vector goes
        through the same norm gate as make_custom, so documents written by
        other tools are renormalized if they are off by at most 1e-9.
        """
        try:
            dims = doc["dims"]
            re = np.asarray(doc["re"], dtype=np.float64)
            im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"state document is missing field: {exc}") from exc
        if re.shape != im.shape:
            raise ValueError(
                f"re/im length mismatch: {re.shape} vs {im.shape}"
            )
        return make_custom(dims, re + 1j * im)


def make_custom(dims, amplitudes, renormalize: bool = False) -> PureState:
    """Validate a raw amplitude vector and wrap it as a PureState.

    The vector must be one-dimensional with length prod(dims).  Vectors
    whose norm deviates from 1 by at most 1e-9 are rescaled to exact unit
    norm; larger deviations raise unless renormalize=True.  A zero vector
    is always rejected.
    """
    dims, amps = _checked_layout(dims, amplitudes)
    norm = _finite_norm(amps)
    if norm == 0.0:
        raise ValueError("zero vector cannot be normalized to a state")
    if abs(norm - 1.0) > CUSTOM_NORM_TOL and not renormalize:
        raise ValueError(
            f"norm {norm!r} deviates from 1 beyond {CUSTOM_NORM_TOL}; "
            "pass renormalize=True to rescale anyway"
        )
    return PureState(dims, amps / norm)


def _checked_layout(raw_dims, amplitudes) -> tuple[tuple[int, ...], np.ndarray]:
    """Integral dims and a complex copy of the amplitudes of length prod(dims)."""
    try:
        given = tuple(raw_dims)
    except TypeError:  # a scalar, not a sequence of dims
        given = raw_dims
    try:
        dims = tuple(int(d) for d in given)
    except (TypeError, OverflowError, ValueError):
        dims = None
    if dims is None or dims != given:
        raise ValueError(f"local dimensions must be integers, got {given}")
    if not dims:
        raise ValueError("a state needs at least one party")
    if any(d < 2 for d in dims):
        raise ValueError(f"local dimensions must be >= 2, got {dims}")
    if len(dims) > MAX_PARTIES:
        raise ValueError(
            f"dense amplitude storage is capped at {MAX_PARTIES} parties, "
            f"got {len(dims)}"
        )
    amps = np.array(amplitudes, dtype=np.complex128)
    expected = math.prod(dims)
    if amps.shape != (expected,):
        raise ValueError(
            f"amplitudes must be one-dimensional with length {expected} for dims "
            f"{dims}, got shape {amps.shape}"
        )
    return dims, amps


def _finite_norm(amps: np.ndarray) -> float:
    """Euclidean norm of an amplitude vector that holds no NaN or infinity."""
    _require_finite(amps)
    return float(np.linalg.norm(amps))


def _require_finite(amps: np.ndarray) -> None:
    if not np.isfinite(amps).all():
        raise ValueError("non-finite amplitudes (NaN or infinity) cannot form a state")


def _require_unit_norm(norm: float) -> None:
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(
            f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}; "
            "use make_custom to renormalize raw vectors"
        )


def make_ghz(n: int) -> PureState:
    """Equal superposition of |0...0> and |1...1> over n qubits."""
    if not 2 <= n <= MAX_PARTIES:
        raise ValueError(f"ghz construction needs 2 <= n <= {MAX_PARTIES}, got {n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState((2,) * n, amps)


def make_w(n: int) -> PureState:
    """Symmetric single-excitation state over n qubits."""
    if not 2 <= n <= MAX_PARTIES:
        raise ValueError(f"w construction needs 2 <= n <= {MAX_PARTIES}, got {n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    for k in range(n):
        amps[1 << k] = 1.0 / math.sqrt(n)
    return PureState((2,) * n, amps)


def make_family_a(theta: float) -> PureState:
    """Three-qubit family (cos(t)|000> + sin(t)|100>)/sqrt2 + |111>/sqrt2.

    Any real theta is accepted; sweeps default to [0, pi/2], where theta=0
    gives the GHZ state and theta=pi/2 a biseparable state.
    """
    return _family_state("a", theta)


def make_family_b(theta: float) -> PureState:
    """Three-qubit family cos(t)|000> + sin(t)|111>."""
    return _family_state("b", theta)


def make_family_c(theta: float) -> PureState:
    """Four-qubit family sin(t)(cos(3pi/5)|0100> + sin(3pi/5)|1000>) + cos(t)|0011>.

    Product state at theta=0, biseparable (last two qubits in |00>) at
    theta=pi/2, genuinely entangled in between.
    """
    return _family_state("c", theta)


# Each family's one formula: real amplitude rows, one per theta, with
# math.cos and math.sin per theta, so a row holds the bits of the state.
def _family_a_rows(thetas) -> np.ndarray:
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    rows = np.zeros((len(thetas), 8))
    rows[:, 0b000] = [math.cos(t) * inv_sqrt2 for t in thetas]
    rows[:, 0b100] = [math.sin(t) * inv_sqrt2 for t in thetas]
    rows[:, 0b111] = inv_sqrt2
    return rows


def _family_b_rows(thetas) -> np.ndarray:
    rows = np.zeros((len(thetas), 8))
    rows[:, 0b000] = [math.cos(t) for t in thetas]
    rows[:, 0b111] = [math.sin(t) for t in thetas]
    return rows


def _family_c_rows(thetas) -> np.ndarray:
    beta = 3.0 * math.pi / 5.0
    rows = np.zeros((len(thetas), 16))
    rows[:, 0b0100] = [math.sin(t) * math.cos(beta) for t in thetas]
    rows[:, 0b1000] = [math.sin(t) * math.sin(beta) for t in thetas]
    rows[:, 0b0011] = [math.cos(t) for t in thetas]
    return rows


# family name -> (local dims, amplitude rows over a sequence of thetas):
# the one table of the parameterized families
FAMILIES = {
    "a": ((2, 2, 2), _family_a_rows),
    "b": ((2, 2, 2), _family_b_rows),
    "c": ((2, 2, 2, 2), _family_c_rows),
}


def _family_state(family: str, theta: float) -> PureState:
    dims, build = FAMILIES[family]
    return PureState(dims, build((theta,))[0])


def family_grid(family: str, thetas) -> tuple[tuple[int, ...], np.ndarray]:
    """Local dims and the real (len(thetas), prod(dims)) amplitude rows of a family.

    Row i is bit for bit the amplitude vector of make_family_<family>(thetas[i]),
    and every row passes the finiteness and norm checks of PureState.
    """
    dims, build = FAMILIES[family]
    rows = build(thetas)
    _check_rows(rows)
    return dims, rows


def _check_rows(rows: np.ndarray) -> None:
    """PureState's finiteness and norm checks on each row of an amplitude grid."""
    _require_finite(rows)
    if len(rows):
        # the row farthest from unit norm, its norm taken as PureState takes it
        norms = np.linalg.norm(rows, axis=1)
        _require_unit_norm(float(np.linalg.norm(rows[np.argmax(np.abs(norms - 1.0))])))


def permute_parties(state: PureState, perm) -> PureState:
    """Relabel parties: party i of the result is party perm[i] of the input."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(state.n_parties)):
        raise ValueError(f"{perm} is not a permutation of 0..{state.n_parties - 1}")
    dims = tuple(state.dims[p] for p in perm)
    tensor = np.transpose(state.as_tensor(), perm)
    return PureState(dims, tensor.reshape(-1))
