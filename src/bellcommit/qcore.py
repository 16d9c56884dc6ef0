"""Array kernel and reference oracle for few-qubit registers.

Everything operates on exact complex amplitudes (double precision), which is
all the commitment protocol needs: registers stay tiny and every identity the
protocol relies on holds exactly up to rounding.

The kernel works on ``(rows, dim)`` arrays, one register per row: the
``BELL`` table, :func:`apply_rows`, :func:`measure_bell_pairs`,
:func:`receiver_states`, :func:`trace_distances` and the matrices of
:func:`random_unitary` and :meth:`PauliOp.matrix`. Every production path
runs through it.

The reference oracle is the one-register object layer: :class:`StateVector`,
:class:`Unitary`, :func:`apply_unitary` and :func:`bell_probabilities`. It
steps through one register at a time with validated values and any target
qubits, and the tests check the kernel against it.

Conventions:

* Qubit 0 is the leftmost tensor factor and the most significant bit of the
  amplitude index, so ``|q0 q1 ... q_{n-1}>`` lives at index
  ``q0 * 2**(n-1) + q1 * 2**(n-2) + ... + q_{n-1}``.
* Bell states are indexed by a pair of bits ``(u_i, u_j)`` via
  ``(|0>|u_j> + (-1)**u_i |1>|1 xor u_j>) / sqrt(2)``; ``BELL_LABELS`` fixes
  the order ``(0,0), (0,1), (1,0), (1,1)`` used for sampling and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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

# Bell amplitudes, one row per label in BELL_LABELS order; read-only.
BELL = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=np.complex128
) * _SQRT1_2
BELL.setflags(write=False)
_BELL_BASIS_CONJ = BELL.conj()
_BELL_BASIS_CONJ.setflags(write=False)


# ---------------------------------------------------------------------------
# array kernel: one register per row


def apply_rows(states: np.ndarray, matrices: np.ndarray, first: int) -> np.ndarray:
    """Apply a ``(d, d)`` matrix, or one per row, to qubits ``first ..`` of every row.

    Raises ValueError if any row's norm leaves 1 by more than ATOL_EXACT.
    """
    if matrices.ndim == 3:
        matrices = matrices[:, None]
    n = states.shape[0]
    out = (matrices @ states.reshape(n, 2**first, matrices.shape[-1], -1)).reshape(n, -1)
    norms = np.einsum("ij,ij->i", out.conj(), out).real
    # written so that NaN fails too
    if not np.abs(norms - 1.0).max() <= ATOL_EXACT:
        raise ValueError("a pair's state is no longer normalized")
    return out


def measure_bell_pairs(
    states: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Projective Bell-basis measurement of qubits (0, 1) in every row of ``states``.

    ``states`` holds one register's amplitudes per row. Each row is sampled
    by inverse CDF in BELL_LABELS order from one uniform draw of ``rng``,
    drawn in row order. Returns the outcome indices into BELL_LABELS and the
    ``(rows, 4)`` outcome probabilities they were sampled from, each row as
    :func:`bell_probabilities` would give it.
    """
    rows = states.shape[0]
    probs = (np.abs(_BELL_BASIS_CONJ @ states.reshape(rows, 4, -1)) ** 2).sum(axis=2)
    cdf = probs.cumsum(axis=1)
    deviation = np.abs(cdf[:, -1] - 1.0)
    # written so that NaN fails too
    if not deviation.max() <= ATOL_ACCUM:
        total = float(cdf[deviation.argmax(), -1])
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    # the first label whose cumulative probability exceeds the draw
    outcomes = (cdf <= rng.random(rows)[:, None]).sum(axis=1)
    if outcomes.max() == 4:
        # a draw landed in the rounding slack above the last cumulative step
        slack = outcomes == 4
        outcomes[slack] = probs[slack].argmax(axis=1)
    return outcomes, probs


def receiver_states(states: np.ndarray) -> np.ndarray:
    """Reduced states of qubits ``1 ..`` of every row (qubit 0 traced out), ``(rows, d, d)``."""
    n = states.shape[0]
    psi = states.reshape(n, 2, -1).swapaxes(1, 2)
    return psi @ psi.conj().swapaxes(1, 2)


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``0.5 * sum |eig(a - b)|`` per matrix of two equally shaped stacks of density matrices."""
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


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


# ---------------------------------------------------------------------------
# reference oracle: one validated register at a time


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
        # written so that NaN and inf fail too
        if not abs(norm_sq - 1.0) <= ATOL_EXACT:
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
        # an inf entry makes NaNs here; the check below rejects them
        with np.errstate(invalid="ignore"):
            residual = mat @ mat.conj().T - np.eye(mat.shape[0])
        # written so that NaN and inf fail too
        if not float(np.abs(residual).max()) <= ATOL_ACCUM:
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


def bell_probabilities(state: StateVector, pair: tuple[int, int]) -> np.ndarray:
    """Probabilities of the four Bell outcomes on ``pair``, in BELL_LABELS order."""
    i, j = pair
    n = state.num_qubits
    if i == j or not 0 <= i < n or not 0 <= j < n:
        raise ValueError(f"invalid qubit pair {pair!r} for {n} qubits")
    if (i, j) == (0, 1):
        psi = state.amplitudes.reshape(4, -1)
    else:
        psi = state.amplitudes.reshape((2,) * n)
        psi = np.moveaxis(psi, (i, j), (0, 1)).reshape(4, -1)
    coeffs = _BELL_BASIS_CONJ @ psi
    return (np.abs(coeffs) ** 2).sum(axis=1)
