"""Dense state-vector simulation of few-qubit registers.

Everything operates on exact complex amplitudes (double precision), which is
all the commitment protocol needs: registers stay tiny and every identity the
protocol relies on holds exactly up to rounding.

Conventions:

* Qubit 0 is the leftmost tensor factor and the most significant bit of the
  amplitude index, so ``|q0 q1 ... q_{n-1}>`` lives at index
  ``q0 * 2**(n-1) + q1 * 2**(n-2) + ... + q_{n-1}``.
* Bell states are indexed by a pair of bits ``(u_i, u_j)`` via
  ``(|0>|u_j> + (-1)**u_i |1>|1 xor u_j>) / sqrt(2)``; ``BELL_LABELS`` fixes
  the order ``(0,0), (0,1), (1,0), (1,1)`` used for sampling and reporting.
* Values are immutable after construction, and every operation is a pure
  function of its inputs (plus an explicit generator where sampling is
  involved), so concurrent use is safe as long as each thread owns its
  generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

# Identities that are exact up to rounding check against ATOL_EXACT; anything
# that accumulates floating-point arithmetic gets the looser ATOL_ACCUM.
ATOL_EXACT = 1e-12
ATOL_ACCUM = 1e-10

_SQRT1_2 = 1.0 / np.sqrt(2.0)


class PauliOp(Enum):
    """Single-qubit Pauli operators modulo global phase.

    Each member carries its (z, x) components; composition adds components
    mod 2, so the four members form the group Z2 x Z2. ``ZX`` is the matrix
    product Z @ X (apply X first, then Z).
    """

    IDENTITY = (0, 0)
    X = (0, 1)
    Z = (1, 0)
    ZX = (1, 1)

    @property
    def z_component(self) -> int:
        return self.value[0]

    @property
    def x_component(self) -> int:
        return self.value[1]

    @classmethod
    def from_components(cls, z: int, x: int) -> "PauliOp":
        return cls((int(bool(z)), int(bool(x))))

    def compose(self, other: "PauliOp") -> "PauliOp":
        """Group product up to global phase."""
        return PauliOp.from_components(
            self.z_component ^ other.z_component,
            self.x_component ^ other.x_component,
        )

    def matrix(self) -> np.ndarray:
        """2x2 matrix; read-only view of a shared constant."""
        return _PAULI_UNITARIES[self].matrix

    def unitary(self) -> "Unitary":
        """The operator on qubit 0, a shared constant; rebind with :meth:`Unitary.on`."""
        return _PAULI_UNITARIES[self]


@dataclass(frozen=True)
class BellLabel:
    """Pair of bits naming one of the four Bell states."""

    u_i: int
    u_j: int

    def __post_init__(self) -> None:
        if self.u_i not in (0, 1) or self.u_j not in (0, 1):
            raise ValueError(f"label bits must be 0 or 1, got ({self.u_i!r}, {self.u_j!r})")
        object.__setattr__(self, "u_i", int(self.u_i))
        object.__setattr__(self, "u_j", int(self.u_j))


BELL_LABELS: tuple[BellLabel, ...] = (
    BellLabel(0, 0),
    BellLabel(0, 1),
    BellLabel(1, 0),
    BellLabel(1, 1),
)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes of a ``num_qubits``-qubit register."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > ATOL_EXACT:
            raise ValueError(f"state is not normalized: sum of |amp|^2 is {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class Unitary:
    """A unitary matrix bound to an ordered tuple of target qubits."""

    matrix: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        targets = tuple(int(t) for t in self.targets)
        if not targets:
            raise ValueError("at least one target qubit is required")
        if len(set(targets)) != len(targets):
            raise ValueError(f"targets must be distinct, got {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"targets must be non-negative, got {targets}")
        if mat.shape[0] != 2 ** len(targets):
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match {len(targets)} target qubits"
            )
        residual = mat @ mat.conj().T - np.eye(mat.shape[0])
        if float(np.abs(residual).max()) > ATOL_ACCUM:
            raise ValueError("matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "targets", targets)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def _trusted(cls, matrix: np.ndarray, targets: tuple[int, ...]) -> "Unitary":
        # caller guarantees: matrix is a read-only complex128 unitary of the
        # right dimension, targets are distinct and non-negative
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", matrix)
        object.__setattr__(obj, "targets", targets)
        return obj

    def on(self, *targets: int) -> "Unitary":
        """Same matrix bound to different target qubits."""
        targets = tuple(int(t) for t in targets)
        if not targets or len(set(targets)) != len(targets) or any(t < 0 for t in targets):
            raise ValueError(f"targets must be distinct and non-negative, got {targets}")
        if self.dim != 2 ** len(targets):
            raise ValueError(
                f"matrix dimension {self.dim} does not match {len(targets)} target qubits"
            )
        return Unitary._trusted(self.matrix, targets)

    def dagger(self) -> "Unitary":
        """Inverse (conjugate transpose) on the same targets."""
        mat = np.ascontiguousarray(self.matrix.conj().T)
        mat.setflags(write=False)
        return Unitary._trusted(mat, self.targets)


_PAULI_UNITARIES = {
    op: Unitary(matrix, (0,))
    for op, matrix in (
        (PauliOp.IDENTITY, [[1, 0], [0, 1]]),
        (PauliOp.X, [[0, 1], [1, 0]]),
        (PauliOp.Z, [[1, 0], [0, -1]]),
        (PauliOp.ZX, [[0, 1], [-1, 0]]),
    )
}


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on k qubits."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim == 0 or dim & (dim - 1):
            raise ValueError(f"dimension must be a power of two, got {dim}")
        if float(np.abs(mat - mat.conj().T).max()) > ATOL_EXACT:
            raise ValueError("matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > ATOL_EXACT:
            raise ValueError(f"trace is {trace!r}, not 1")
        # eigvalsh is cheap at these dimensions and pins positivity exactly
        if float(np.linalg.eigvalsh(mat).min()) < -1e-10:
            raise ValueError("matrix is not positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """Computational basis state ``|index>`` (qubit 0 = most significant bit)."""
    if num_qubits < 0:
        raise ValueError("num_qubits must be non-negative")
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


@lru_cache(maxsize=None)
def make_bell(label: BellLabel) -> StateVector:
    """Two-qubit Bell state ``(|0>|u_j> + (-1)**u_i |1>|1 xor u_j>) / sqrt(2)``."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[label.u_j] = _SQRT1_2
    amps[2 + (1 - label.u_j)] = -_SQRT1_2 if label.u_i else _SQRT1_2
    return StateVector(2, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; ``a``'s qubits come first (most significant)."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dim = 2**num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, vec / np.linalg.norm(vec))


def apply_unitary(state: StateVector, u: Unitary) -> StateVector:
    """Apply ``u`` to its target qubits, identity everywhere else."""
    n = state.num_qubits
    k = len(u.targets)
    if any(t >= n for t in u.targets):
        raise ValueError(f"targets {u.targets} out of range for {n} qubits")
    first = u.targets[0]
    if u.targets == tuple(range(first, first + k)):
        # contiguous ascending targets need no axis shuffling: group the
        # amplitudes as (more significant, targets, less significant) and
        # let matmul broadcast over the leading block
        view = state.amplitudes.reshape(2**first, u.dim, -1)
        return StateVector(n, (u.matrix @ view).reshape(-1))
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, u.targets, range(k)).reshape(u.dim, -1)
    out = (u.matrix @ psi).reshape((2,) * n)
    out = np.moveaxis(out, range(k), u.targets)
    return StateVector(n, out.reshape(-1))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """``<a|b>``, conjugate-linear in ``a``."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """``|<a|b>|**2``, insensitive to global phase; clipped into [0, 1]."""
    return min(1.0, abs(inner_product(a, b)) ** 2)


_BELL_BASIS = np.stack([make_bell(label).amplitudes for label in BELL_LABELS])
_BELL_BASIS.setflags(write=False)
_BELL_BASIS_CONJ = _BELL_BASIS.conj()
_BELL_BASIS_CONJ.setflags(write=False)


def _pair_coefficients(state: StateVector, pair: tuple[int, int]) -> np.ndarray:
    """Amplitudes regrouped as (bell outcome on ``pair``) x (rest), shape (4, dim/4)."""
    i, j = pair
    n = state.num_qubits
    if i == j or not 0 <= i < n or not 0 <= j < n:
        raise ValueError(f"invalid qubit pair {pair!r} for {n} qubits")
    if (i, j) == (0, 1):
        psi = state.amplitudes.reshape(4, -1)
    else:
        psi = state.amplitudes.reshape((2,) * n)
        psi = np.moveaxis(psi, (i, j), (0, 1)).reshape(4, -1)
    return _BELL_BASIS_CONJ @ psi


def bell_probabilities(state: StateVector, pair: tuple[int, int]) -> np.ndarray:
    """Probabilities of the four Bell outcomes on ``pair``, in BELL_LABELS order."""
    coeffs = _pair_coefficients(state, pair)
    return (np.abs(coeffs) ** 2).sum(axis=1)


def bell_measure(
    state: StateVector, pair: tuple[int, int], rng: np.random.Generator
) -> tuple[BellLabel, StateVector, np.ndarray]:
    """Projective Bell-basis measurement of the two qubits in ``pair``.

    Samples by inverse CDF in BELL_LABELS order, consuming exactly one
    uniform draw from ``rng``. Returns the outcome label, the renormalized
    post-measurement state (outcome Bell state on ``pair``, rest projected)
    and the outcome probabilities it sampled from, as
    :func:`bell_probabilities` would give them.
    """
    coeffs = _pair_coefficients(state, pair)
    probs = (np.abs(coeffs) ** 2).sum(axis=1)
    total = float(probs.sum())
    if abs(total - 1.0) > ATOL_ACCUM:
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    draw = float(rng.random())
    outcome = -1
    acc = 0.0
    for k in range(4):
        acc += float(probs[k])
        if draw < acc:
            outcome = k
            break
    if outcome < 0:
        # the draw landed in the rounding slack above the last cumulative step
        outcome = int(np.argmax(probs))
    rest = coeffs[outcome] / np.sqrt(probs[outcome])
    n = state.num_qubits
    post = np.outer(_BELL_BASIS[outcome], rest)
    if tuple(pair) != (0, 1):
        post = np.moveaxis(post.reshape((2,) * n), (0, 1), pair)
    return BELL_LABELS[outcome], StateVector(n, post.reshape(-1)), probs


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the qubits in ``keep`` (rows ordered as listed)."""
    keep = tuple(int(q) for q in keep)
    n = state.num_qubits
    if not keep:
        raise ValueError("keep must list at least one qubit")
    if len(set(keep)) != len(keep) or any(not 0 <= q < n for q in keep):
        raise ValueError(f"invalid keep indices {keep!r} for {n} qubits")
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, keep, range(len(keep))).reshape(2 ** len(keep), -1)
    return DensityMatrix(psi @ psi.conj().T)


def random_unitary(num_target_qubits: int, rng: np.random.Generator) -> Unitary:
    """Haar-distributed unitary on ``num_target_qubits`` qubits.

    Complex Ginibre matrix, QR factorization, then a diagonal phase
    correction so the distribution is exactly Haar. Intended for small
    blocks (a few qubits); targets default to ``0..k-1``, rebind with
    :meth:`Unitary.on`.
    """
    if num_target_qubits < 1:
        raise ValueError("need at least one target qubit")
    dim = 2**num_target_qubits
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return Unitary(q * phases, tuple(range(num_target_qubits)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """``0.5 * sum |eig(a - b)|`` (the difference is Hermitian)."""
    if a.dim != b.dim:
        raise ValueError(f"dimensions differ: {a.dim} vs {b.dim}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())
