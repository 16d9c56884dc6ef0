"""Commitment protocol state machine.

The committer encodes one of four values (two classical bits, two
single-qubit states) into N identically prepared Bell pairs. She keeps the
first qubit of each pair and hands the second to the receiving side, which
may apply arbitrary recorded unitaries to its qubits (optionally entangling
them with ancillas) while the commitment is pending. At reveal time the
committer announces one Bell label and hands over her kept qubits; the
verifier undoes the recorded operations in reverse order and Bell-measures
every pair, accepting only a unanimous match with the announcement.

Qubit layout inside each :class:`PairRegister`: qubit 0 belongs to the
committer, qubit 1 to the receiving side, qubits ``2 .. 1+m`` are
receiver-side ancillas starting in ``|0...0>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .qcore import (
    BELL_LABELS,
    BellLabel,
    StateVector,
    Unitary,
    apply_unitary,
    basis_state,
    bell_measure,
    make_bell,
    random_unitary,
    tensor,
)


class CommitValue(Enum):
    """The four committable values."""

    BIT0 = "bit0"
    BIT1 = "bit1"
    PLUS = "plus"    # (|0> + |1>) / sqrt(2)
    MINUS = "minus"  # (|0> - |1>) / sqrt(2)


COMMIT_VALUES: tuple[CommitValue, ...] = (
    CommitValue.BIT0,
    CommitValue.BIT1,
    CommitValue.PLUS,
    CommitValue.MINUS,
)

_VALUE_TO_LABEL = {
    CommitValue.BIT0: BellLabel(0, 0),
    CommitValue.BIT1: BellLabel(0, 1),
    CommitValue.PLUS: BellLabel(1, 0),
    CommitValue.MINUS: BellLabel(1, 1),
}
_LABEL_TO_VALUE = {label: value for value, label in _VALUE_TO_LABEL.items()}

# Ancilla count per pair is a session parameter: default 0, at most 2.
MAX_ANCILLAS = 2


class Phase(Enum):
    COMMITTED = "committed"
    REVEALED = "revealed"


class BCPolicy(Enum):
    """What the receiving side does to its qubits while the commitment is pending."""

    NONE = "none"
    RANDOM_LOCAL = "random-local"
    RANDOM_ENTANGLED = "random-entangled"


class ProtocolError(RuntimeError):
    """An operation was invoked in the wrong protocol phase."""


def commit_label(value: CommitValue) -> BellLabel:
    """Coding table: the Bell label prepared for ``value``."""
    return _VALUE_TO_LABEL[value]


def value_of_label(label: BellLabel) -> CommitValue:
    """Inverse coding table."""
    return _LABEL_TO_VALUE[label]


@dataclass
class PairRegister:
    """Joint state of one committed pair plus any receiver-side ancillas."""

    state: StateVector
    m_ancillas: int

    @property
    def alice_qubit(self) -> int:
        return 0

    @property
    def c_qubit(self) -> int:
        return 1

    @property
    def ancillas(self) -> tuple[int, ...]:
        return tuple(range(2, 2 + self.m_ancillas))

    @property
    def c_side(self) -> tuple[int, ...]:
        """Every qubit the receiving side holds: its pair half plus ancillas."""
        return (self.c_qubit,) + self.ancillas


@dataclass
class BCRecord:
    """Ordered record of receiver-side operations applied to one pair."""

    ops: list[Unitary] = field(default_factory=list)

    def append(self, op: Unitary) -> None:
        if 0 in op.targets:
            raise ValueError("receiver-side operations may not target the committer's qubit")
        self.ops.append(op)


@dataclass
class RevealMessage:
    """The committer's reveal: one announced label, kept qubits handed over."""

    announced: BellLabel


@dataclass
class VerificationReport:
    """Outcome of the verifier's check.

    ``per_pair`` holds one measured label per pair. ``announced_probabilities``
    holds, per pair, the probability that the measurement yields the announced
    label, recorded just before sampling; useful as a numerical soundness
    diagnostic. ``revealed_value`` decodes the announcement when accepted.
    """

    per_pair: list[BellLabel]
    accept: bool
    revealed_value: CommitValue | None
    announced_probabilities: list[float]


@dataclass
class CommitmentSession:
    """Mutable state of one commitment, owned by a single protocol run."""

    n_pairs: int
    committed: CommitValue
    pairs: list[PairRegister]
    bc_records: list[BCRecord]
    phase: Phase
    m_ancillas: int

    def __post_init__(self) -> None:
        if len(self.pairs) != self.n_pairs or len(self.bc_records) != self.n_pairs:
            raise ValueError("pairs and bc_records must both have n_pairs entries")


@lru_cache(maxsize=None)
def _initial_pair_state(label: BellLabel, m_ancillas: int) -> StateVector:
    state = make_bell(label)
    if m_ancillas:
        state = tensor(state, basis_state(m_ancillas, 0))
    return state


def alice_commit(value: CommitValue, n_pairs: int, m_ancillas: int = 0) -> CommitmentSession:
    """Commit phase: prepare ``n_pairs`` identical Bell pairs encoding ``value``."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if not 0 <= m_ancillas <= MAX_ANCILLAS:
        raise ValueError(f"m_ancillas must be between 0 and {MAX_ANCILLAS}")
    template = _initial_pair_state(commit_label(value), m_ancillas)
    pairs = [PairRegister(template, m_ancillas) for _ in range(n_pairs)]
    records = [BCRecord() for _ in range(n_pairs)]
    return CommitmentSession(n_pairs, value, pairs, records, Phase.COMMITTED, m_ancillas)


def bc_apply_operations(
    session: CommitmentSession, policy: BCPolicy, rng: np.random.Generator
) -> CommitmentSession:
    """Receiver-side operations on the pending commitment, recorded per pair.

    RANDOM_LOCAL draws one Haar-random single-qubit unitary on the receiving
    side's pair half; RANDOM_ENTANGLED draws one Haar-random unitary on that
    qubit together with all ancillas. Draws are consumed from ``rng`` in pair
    order, and each pair's draw count is fixed, so the whole step is a pure
    function of the generator's seed.
    """
    if session.phase is not Phase.COMMITTED:
        raise ProtocolError("receiver-side operations only apply while committed")
    if policy is BCPolicy.NONE:
        return session
    if policy is BCPolicy.RANDOM_ENTANGLED and session.m_ancillas == 0:
        raise ValueError("the entangling policy requires at least one ancilla")
    for pair, record in zip(session.pairs, session.bc_records):
        if policy is BCPolicy.RANDOM_LOCAL:
            op = random_unitary(1, rng).on(pair.c_qubit)
        else:
            op = random_unitary(1 + session.m_ancillas, rng).on(*pair.c_side)
        record.append(op)
        pair.state = apply_unitary(pair.state, op)
    return session


def alice_reveal_honest(session: CommitmentSession) -> RevealMessage:
    """Reveal phase: announce the committed label and hand over the kept qubits."""
    if session.phase is not Phase.COMMITTED:
        raise ProtocolError("session was already revealed")
    session.phase = Phase.REVEALED
    return RevealMessage(announced=commit_label(session.committed))


def verify(
    session: CommitmentSession, reveal: RevealMessage, rng: np.random.Generator
) -> VerificationReport:
    """Verifier's acceptance test after the reveal.

    Per pair: undo the recorded receiver-side operations in reverse order,
    then Bell-measure qubits (0, 1). Accept iff every measured label equals
    the announced one. Measurements consume one draw from ``rng`` per pair,
    in pair order.
    """
    if session.phase is not Phase.REVEALED:
        raise ProtocolError("verification requires a revealed session")
    announced_index = BELL_LABELS.index(reveal.announced)
    per_pair: list[BellLabel] = []
    announced_probs: list[float] = []
    for pair, record in zip(session.pairs, session.bc_records):
        state = pair.state
        for op in reversed(record.ops):
            state = apply_unitary(state, op.dagger())
        label, pair.state, probs = bell_measure(state, (0, 1), rng)
        announced_probs.append(float(probs[announced_index]))
        per_pair.append(label)
    accept = all(label == reveal.announced for label in per_pair)
    revealed = value_of_label(reveal.announced) if accept else None
    return VerificationReport(per_pair, accept, revealed, announced_probs)


def transcript(
    session: CommitmentSession,
    reveal: RevealMessage | None = None,
    report: VerificationReport | None = None,
) -> dict:
    """JSON-serializable session transcript.

    Shape::

        {
          "phase": "committed" | "revealed",
          "value": "bit0" | "bit1" | "plus" | "minus",
          "announced": [u_i, u_j] | null,
          "per_pair": [[u_i, u_j], ...] | null,
          "accept": true | false | null
        }
    """
    return {
        "phase": session.phase.value,
        "value": session.committed.value,
        "announced": [reveal.announced.u_i, reveal.announced.u_j] if reveal else None,
        "per_pair": [[lab.u_i, lab.u_j] for lab in report.per_pair] if report else None,
        "accept": report.accept if report else None,
    }
