"""Array kernel and reference oracle for few-qubit registers.

Everything operates on exact complex amplitudes (double precision), which is
all the commitment protocol needs: registers stay tiny and every identity the
protocol relies on holds exactly up to rounding.

The kernel works on plain arrays, one register per row, and ``(d, d)``
matrices, with leading axes that broadcast as in NumPy. It is the
``BELL`` table, :func:`apply_rows`, :func:`bell_pair_probabilities`,
:func:`measure_bell_pairs`, :func:`receiver_states`, :func:`trace_distances`,
:func:`random_unitary`, :func:`random_unitaries` and :meth:`PauliOp.matrix`.
:func:`measure_bell_pairs` samples the probabilities that
:func:`bell_pair_probabilities` computes and checks, one draw per row. The
engine's certain path needs no samples: it reads each register's
probabilities, with the same check, and makes no draws. Its Haar path and the
step-by-step reference measure one draw per pair. Every production path runs
through the kernel, and none constructs an oracle object.
:func:`random_unitaries` fills one Ginibre stack from one normals buffer,
takes each matrix's QR with :func:`random_unitary`, byte-equal to
``np.linalg.qr``, and makes the stack Haar with one phase fix.

Two rules keep the bytes from depending on how an operand was built or on
which BLAS kernel runs. :func:`apply_rows` makes its matrices C-contiguous,
since matmul rounds by their strides: an undo passed as a transposed view
gives a copy's bytes. The Bell amplitudes are contracted with ``BELL``
itself, which is real and so its own conjugate, by ``np.einsum``, which
calls no BLAS. A BLAS complex gemm may round a label that should have
probability 0 to a residue such as 5e-34, and whether it does depends on
which kernel the BLAS picks at run time. ``np.einsum`` gives exact zeros
there, so a register that can have only one outcome, such as every
receiver-free register of the protocol, has exactly one nonzero probability
on every kernel, and the reference oracle's :func:`bell_probabilities` uses
the same contraction.

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
from numpy.linalg import _umath_linalg

# Identities that are exact up to rounding check against ATOL_EXACT; anything
# that accumulates floating-point arithmetic gets the looser ATOL_ACCUM.
ATOL_EXACT = 1e-12
ATOL_ACCUM = 1e-10

_SQRT2 = np.sqrt(2.0)
_SQRT1_2 = 1.0 / _SQRT2


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
        """2x2 matrix; a shared read-only constant."""
        return _PAULI_MATRICES[self]


def _frozen(rows) -> np.ndarray:
    matrix = np.array(rows, dtype=np.complex128)
    matrix.setflags(write=False)
    return matrix


_PAULI_MATRICES = {
    PauliOp.IDENTITY: _frozen([[1, 0], [0, 1]]),
    PauliOp.X: _frozen([[0, 1], [1, 0]]),
    PauliOp.Z: _frozen([[1, 0], [0, -1]]),
    PauliOp.ZX: _frozen([[0, 1], [-1, 0]]),
}


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


# ---------------------------------------------------------------------------
# array kernel: one register per row


def apply_rows(states: np.ndarray, matrices: np.ndarray, first: int) -> np.ndarray:
    """Apply ``(..., d, d)`` matrices to qubits ``first ..`` of ``(..., dim)`` rows.

    The leading axes broadcast as in NumPy: one row against a ``(k, d, d)``
    stack gives ``k`` rows, and ``(r, 1, dim)`` rows against it give
    ``(r, k, dim)``, each row as a call on its own would give it.
    ``matrices`` is made C-contiguous first, as matmul rounds by its strides.
    Raises ValueError if any row's norm leaves 1 by more than ATOL_EXACT.
    """
    matrices = np.ascontiguousarray(matrices)
    out = matrices[..., None, :, :] @ states.reshape(*states.shape[:-1], 2**first, matrices.shape[-1], -1)
    out = out.reshape(*out.shape[:-3], -1)
    norms = np.einsum("...i,...i->...", out.conj(), out).real
    # written so that NaN fails too
    if not np.abs(norms - 1.0).max() <= ATOL_EXACT:
        raise ValueError("a pair's state is no longer normalized")
    return out


def bell_pair_probabilities(states: np.ndarray) -> np.ndarray:
    """The ``(rows, 4)`` Bell outcome probabilities of qubits (0, 1) of every row.

    Each row is as :func:`bell_probabilities` would give it: both contract
    with ``BELL`` itself, which is real and so its own conjugate. Raises
    ValueError if any row's probabilities leave a sum of 1 by more than
    ATOL_ACCUM.
    """
    rows = states.shape[0]
    amplitudes = np.einsum("lk,rka->rla", BELL, states.reshape(rows, 4, -1))
    probs = (np.abs(amplitudes) ** 2).sum(axis=2)
    # summed in label order, as the inverse-CDF walk sums them
    totals = probs.cumsum(axis=1)[:, -1]
    deviation = np.abs(totals - 1.0)
    # written so that NaN fails too
    if not deviation.max() <= ATOL_ACCUM:
        total = float(totals[deviation.argmax()])
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    return probs


def measure_bell_pairs(states: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective Bell-basis measurement of qubits (0, 1) of every row of ``states``, one draw each.

    ``states`` holds one register's amplitudes per row, and ``draws`` one
    uniform draw in [0, 1) per row. Each draw is sampled by inverse CDF in
    BELL_LABELS order. Returns the outcome indices into BELL_LABELS, one per
    row, and the ``(rows, 4)`` outcome probabilities they were sampled from,
    each row as :func:`bell_probabilities` would give it.
    """
    if draws.shape != states.shape[:1]:
        raise ValueError(f"expected one draw for each of {states.shape[0]} rows, got {draws.shape}")
    probs = bell_pair_probabilities(states)
    cdf = probs.cumsum(axis=1)
    # the first label whose cumulative probability exceeds the draw
    outcomes = (cdf <= draws[:, None]).sum(axis=1)
    if outcomes.max() == 4:
        # a draw landed in the rounding slack above the last cumulative step
        outcomes = np.where(outcomes == 4, probs.argmax(axis=1), outcomes)
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


def random_unitary(ginibre: np.ndarray, out: np.ndarray) -> None:
    """Write the unitary Q of one ``(d, d)`` complex Ginibre matrix's QR to ``out``; overwrites ``ginibre``.

    The QR runs as the two LAPACK steps that ``np.linalg.qr`` itself calls,
    without its wrapper: zgeqrf (``qr_r_raw``) overwrites ``ginibre`` with R
    on and above its diagonal and the Householder reflectors below it, and
    zungqr (``qr_reduced``) writes Q from them straight into ``out``. The
    wrapper's copy, type checks and ``triu`` change no value, so ``out`` and
    R are byte-equal to ``np.linalg.qr`` on the same matrix; the tests check
    this. No phase fix and no check: :func:`random_unitaries` draws the
    Ginibre matrices, moves R's diagonal phases onto each Q and checks the
    stack.
    """
    tau = _umath_linalg.qr_r_raw(ginibre, signature="D->D")
    _umath_linalg.qr_reduced(ginibre, tau, signature="DD->D", out=out)


def random_unitaries(num_target_qubits: int, count: int, *rngs: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries on ``num_target_qubits`` qubits from each of ``rngs`` in turn.

    Returns a ``(count * len(rngs), d, d)`` stack: the first generator's
    draws, then the next one's. Each generator fills its own slice of one
    normals buffer in one call, ``count`` Ginibre matrices of real parts then
    imaginary parts. Each matrix goes through :func:`random_unitary`, and one
    phase fix over the stack then moves R's diagonal phases onto the columns
    of Q, so the draws are exactly Haar (Mezzadri, Notices AMS 54, 592,
    2007). Raises ValueError if any matrix of the stack leaves unitarity by
    more than ATOL_ACCUM.
    """
    if num_target_qubits < 1:
        raise ValueError("need at least one target qubit")
    # allocated before any draw, so a count too large to hold fails at once
    dim = 1 << num_target_qubits
    ginibre = np.empty((count * len(rngs), dim, dim), complex)
    normals = np.empty((len(rngs), count, 2, dim, dim))
    # by index: a loop variable holding a slice would keep the buffer alive
    for position, rng in enumerate(rngs):
        rng.standard_normal(out=normals[position])
    # the same bytes as (real + 1j * imag) / sqrt(2), which adds a signed
    # zero to each part: it differs only for a normal of exactly -0.0
    ginibre.real = normals[:, :, 0].reshape(ginibre.shape)
    ginibre.imag = normals[:, :, 1].reshape(ginibre.shape)
    # freed before the output stack is allocated, so at most two stacks'
    # worth of draws are alive at once
    del normals
    ginibre /= _SQRT2
    stack = np.empty_like(ginibre)
    # one call per matrix, by its module-global name, as the benchmark's traced run
    # counts Haar draws; by index, so that no loop variable keeps a Ginibre view alive
    for index in range(len(stack)):
        random_unitary(ginibre[index], stack[index])
    # column j of each Q takes the phase of R[j, j], zgeqrf's diagonal
    diagonal = np.einsum("kii->ki", ginibre)
    phases = diagonal / np.abs(diagonal)
    del ginibre, diagonal  # freed before the check's temporaries are allocated
    stack *= phases[:, None, :]
    residual = stack @ stack.conj().swapaxes(1, 2) - np.eye(dim)
    # written so that NaN fails too; an empty stack has nothing to check
    if not np.abs(residual).max(initial=0.0) <= ATOL_ACCUM:
        raise ValueError("a Haar draw is not unitary")
    return stack


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
        mat = np.array(self.matrix, dtype=np.complex128, order="C")
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

    def on(self, *targets: int) -> "Unitary":
        """Same matrix bound to different target qubits."""
        return Unitary(self.matrix, targets)

    def dagger(self) -> "Unitary":
        """Inverse (conjugate transpose) on the same targets."""
        return Unitary(self.matrix.conj().T, self.targets)


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
    psi = np.moveaxis(state.amplitudes.reshape((2,) * n), (i, j), (0, 1)).reshape(4, -1)
    coeffs = np.einsum("lk,ka->la", BELL, psi)
    return (np.abs(coeffs) ** 2).sum(axis=1)
