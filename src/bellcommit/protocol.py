"""Commitment protocol state machine.

The committer encodes one of four values (two classical bits, two
single-qubit states) into N identically prepared Bell pairs. She keeps the
first qubit of each pair and hands the second to the receiving side, which
may apply arbitrary recorded unitaries to its qubits (optionally entangling
them with ancillas) while the commitment is pending. At reveal time the
committer hands over her kept qubits, and the reveal returns the one Bell
label she announces; the verifier undoes the recorded operations in reverse
order and Bell-measures every pair, accepting only a unanimous match with
that label.

A session holds all its pairs as one ``(N, 2**(2+m))`` amplitude array, one
row per pair. In every row qubit 0 belongs to the committer, qubit 1 to the
receiving side, and qubits ``2 .. 1+m`` are receiver-side ancillas starting
in ``|0...0>``. Each receiver step is recorded as one ``(N, d, d)`` stack of
unitaries, one per pair, acting on qubits ``1 .. log2 d``; every step of the
protocol transforms all rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .qcore import BELL, apply_rows, measure_bell_pairs, random_unitaries


class CommitValue(Enum):
    """The four committable values."""

    BIT0 = "bit0"
    BIT1 = "bit1"
    PLUS = "plus"    # (|0> + |1>) / sqrt(2)
    MINUS = "minus"  # (|0> - |1>) / sqrt(2)


COMMIT_VALUES: tuple[CommitValue, ...] = tuple(CommitValue)

# Ancilla count per pair is a session parameter: default 0, at most 2.
MAX_ANCILLAS = 2


class BCPolicy(Enum):
    """What the receiving side does to its qubits while the commitment is pending."""

    NONE = "none"
    RANDOM_LOCAL = "random-local"
    RANDOM_ENTANGLED = "random-entangled"


class ProtocolError(RuntimeError):
    """An operation was invoked in the wrong protocol phase."""


def commit_label(value: CommitValue) -> int:
    """Coding table: the Bell label prepared for ``value``, its place in ``COMMIT_VALUES``."""
    return COMMIT_VALUES.index(value)


@dataclass
class VerificationReport:
    """Outcome of the verifier's check.

    ``per_pair`` holds one measured label, 0 to 3, per pair. ``announced_probabilities``
    holds, per pair, the probability that the measurement yields the announced
    label, recorded just before sampling; useful as a numerical soundness
    diagnostic.
    """

    per_pair: list[int]
    accept: bool
    announced_probabilities: list[float]


@dataclass
class CommitmentSession:
    """Mutable state of one commitment, owned by a single protocol run.

    ``states`` holds one row of amplitudes per pair. ``ops`` holds one
    ``(n_pairs, d, d)`` stack per receiver step, in the order applied, each
    acting on qubits ``1 .. log2 d`` of its row. ``revealed`` turns true
    once, at the reveal; before it the session is committed.
    """

    committed: CommitValue
    states: np.ndarray
    ops: list[np.ndarray] = field(default_factory=list)
    revealed: bool = False

    @property
    def n_pairs(self) -> int:
        return self.states.shape[0]

    @property
    def m_ancillas(self) -> int:
        # a row holds 2**(2 + m_ancillas) amplitudes
        return self.states.shape[1].bit_length() - 3


@lru_cache(maxsize=None)
def _initial_row(label: int, m_ancillas: int) -> np.ndarray:
    # read-only, so sessions can share it: every step replaces the array
    ancillas = np.eye(2**m_ancillas, dtype=np.complex128)[0]
    row = np.kron(BELL[label], ancillas)
    row.setflags(write=False)
    return row


def alice_commit(value: CommitValue, n_pairs: int, m_ancillas: int = 0) -> CommitmentSession:
    """Commit phase: prepare ``n_pairs`` identical Bell pairs encoding ``value``."""
    for name, count in (("n_pairs", n_pairs), ("m_ancillas", m_ancillas)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if not 0 <= m_ancillas <= MAX_ANCILLAS:
        raise ValueError(f"ancillas must be between 0 and {MAX_ANCILLAS}")
    row = _initial_row(commit_label(value), m_ancillas)
    states = np.broadcast_to(row, (n_pairs, row.size))
    return CommitmentSession(value, states)


def op_width(policy: BCPolicy, m_ancillas: int) -> int:
    """Qubits each receiver-side unitary acts on under ``policy``; 0 for NONE."""
    if policy is BCPolicy.NONE:
        return 0
    return 1 if policy is BCPolicy.RANDOM_LOCAL else 1 + m_ancillas


def bc_apply_operations(
    session: CommitmentSession, policy: BCPolicy, rng: np.random.Generator
) -> CommitmentSession:
    """Receiver-side operations on the pending commitment, recorded per pair.

    RANDOM_LOCAL draws one Haar-random single-qubit unitary on the receiving
    side's pair half; RANDOM_ENTANGLED draws one Haar-random unitary on that
    qubit together with all ancillas. Draws are consumed from ``rng`` in pair
    order, and each pair's draw count is fixed, so the whole step is a pure
    function of the generator's seed. A ``policy`` that is not a
    :class:`BCPolicy` raises ``TypeError``.
    """
    if not isinstance(policy, BCPolicy):
        raise TypeError(f"expected a BCPolicy, got {policy!r}")
    if session.revealed:
        raise ProtocolError("receiver-side operations only apply while committed")
    if policy is BCPolicy.NONE:
        return session
    if policy is BCPolicy.RANDOM_ENTANGLED and session.m_ancillas == 0:
        raise ValueError("the entangling policy requires at least one ancilla")
    ops = random_unitaries(op_width(policy, session.m_ancillas), session.n_pairs, rng)
    session.states = apply_rows(session.states, ops, 1)
    session.ops.append(ops)
    return session


def alice_reveal_honest(session: CommitmentSession) -> int:
    """Reveal phase: hand over the kept qubits; return the announced, committed label."""
    if session.revealed:
        raise ProtocolError("session was already revealed")
    session.revealed = True
    return commit_label(session.committed)


def verify(
    session: CommitmentSession, announced: int, rng: np.random.Generator
) -> VerificationReport:
    """Verifier's acceptance test after the reveal.

    Per pair: undo the recorded receiver-side operations in reverse order,
    each by the adjoint view of its stack, then Bell-measure qubits (0, 1).
    Accept iff every measured label equals ``announced``, the label a reveal
    returns. Measurements consume one draw from ``rng`` per pair, in pair
    order. The session is left as it was, so verifying it again with an
    equally seeded generator gives the same report. An ``announced`` that is
    not an integer label 0 to 3 raises ``ValueError``.
    """
    # True and 2.0 equal labels but index the probabilities as no label does
    if isinstance(announced, bool) or not isinstance(announced, (int, np.integer)) or announced not in range(4):
        raise ValueError(f"a Bell label is 0 to 3, got {announced!r}")
    if not session.revealed:
        raise ProtocolError("verification requires a revealed session")
    states = session.states
    for ops in reversed(session.ops):
        states = apply_rows(states, ops.conj().swapaxes(1, 2), 1)
    outcomes, probs = measure_bell_pairs(states, rng.random(session.n_pairs))
    per_pair = outcomes.tolist()
    return VerificationReport(per_pair, set(per_pair) == {announced}, probs[:, announced].tolist())
