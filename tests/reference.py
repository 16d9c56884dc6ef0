"""One-register helpers for the tests' reference computations.

They build and compare :class:`bellcommit.qcore.StateVector` values one
register at a time, independently of the array kernel's row layout, so the
tests can check the kernel against them. Density matrices are plain arrays.
"""

import numpy as np

from bellcommit.qcore import BELL, BELL_LABELS, BellLabel, StateVector


def make_bell(label: BellLabel) -> StateVector:
    """Two-qubit Bell state ``(|0>|u_j> + (-1)**u_i |1>|1 xor u_j>) / sqrt(2)``."""
    return StateVector(2, BELL[BELL_LABELS.index(label)])


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """Computational basis state ``|index>`` (qubit 0 = most significant bit)."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; ``a``'s qubits come first (most significant)."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dim = 2**num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, vec / np.linalg.norm(vec))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """``<a|b>``, conjugate-linear in ``a``."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """``|<a|b>|**2``, insensitive to global phase; clipped into [0, 1]."""
    return min(1.0, abs(inner_product(a, b)) ** 2)


def reduced_density(state: StateVector, keep) -> np.ndarray:
    """Partial trace onto the qubits in ``keep`` (rows ordered as listed)."""
    keep = tuple(int(q) for q in keep)
    n = state.num_qubits
    if not keep or len(set(keep)) != len(keep) or any(not 0 <= q < n for q in keep):
        raise ValueError(f"invalid keep indices {keep!r} for {n} qubits")
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, keep, range(len(keep))).reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``0.5 * sum |eig(a - b)|`` of two density matrices (the difference is Hermitian)."""
    if a.shape != b.shape:
        raise ValueError(f"dimensions differ: {a.shape} vs {b.shape}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def haar_unitary(num_target_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary through the public ``np.linalg.qr``, with the phase fix on R's diagonal.

    The same normals from ``rng`` as one draw of
    :func:`bellcommit.qcore.random_unitaries`, whose per-matrix kernel
    :func:`bellcommit.qcore.random_unitary` calls NumPy's LAPACK steps
    directly; with the stack's one phase fix, it must give the same bytes.
    """
    dim = 2**num_target_qubits
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
