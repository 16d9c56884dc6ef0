"""The committer's retroactive-flip strategy.

A dishonest committer always prepares the (0, 0) Bell pair, deferring her
actual choice. At reveal time she picks any of the four values, applies the
matching Pauli operation to each qubit she kept, and announces that value's
label. Her flips act on qubit 0 while everything the receiving side did acts
on qubits 1 and up, so the operations commute; after the verifier undoes the
recorded receiver-side operations, every pair is exactly the Bell state she
announced (up to a global phase) and verification accepts with certainty.
"""

from __future__ import annotations

from .protocol import (
    CommitmentSession,
    CommitValue,
    ProtocolError,
    alice_commit,
    commit_label,
)
from .qcore import PAULI, apply_rows

# The scripted attack always starts from this preparation, bit0's coding.
CHEAT_START_LABEL = 0


def pauli_for_flip(src: int, dst: int) -> int:
    """The unique Pauli (up to global phase) mapping ``BELL[src]`` onto ``BELL[dst]``.

    A Z component flips the first label bit, an X component flips the second,
    so the Pauli is the two labels' XOR.
    """
    return src ^ dst


def alice_commit_cheating(n_pairs: int, m_ancillas: int = 0) -> CommitmentSession:
    """Commit without choosing a value.

    Physically identical to an honest commit of the (0, 0) coding: the
    session's ``committed`` field records the preparation, not a choice.
    """
    return alice_commit(CommitValue.BIT0, n_pairs, m_ancillas)


def alice_reveal_cheat(session: CommitmentSession, target: CommitValue) -> int:
    """Steer the pending session to ``target`` with local flips; return its label.

    The flip is computed from the fixed (0, 0) preparation and applied to the
    committer's qubit of every pair. Global phases are dropped; no check can
    see them. The returned label is the announcement the verifier checks.
    """
    if session.revealed:
        raise ProtocolError("session was already revealed")
    # the committer's qubit is qubit 0 of every pair, where the flip acts
    flip = PAULI[pauli_for_flip(CHEAT_START_LABEL, commit_label(target))]
    session.states = apply_rows(session.states, flip, 0)
    session.revealed = True
    return commit_label(target)
