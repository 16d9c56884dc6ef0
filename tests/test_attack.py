import numpy as np
import pytest

from bellcommit.attack import (
    CHEAT_START_LABEL,
    alice_commit_cheating,
    alice_reveal_cheat,
    pauli_for_flip,
)
from bellcommit.protocol import (
    COMMIT_VALUES,
    BCPolicy,
    CommitValue,
    Phase,
    ProtocolError,
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    verify,
)
from bellcommit.qcore import (
    BELL_LABELS,
    PauliOp,
    apply_unitary,
    fidelity,
    make_bell,
)

ALL_POLICIES = [
    (BCPolicy.NONE, 0),
    (BCPolicy.RANDOM_LOCAL, 0),
    (BCPolicy.RANDOM_LOCAL, 1),
    (BCPolicy.RANDOM_ENTANGLED, 1),
    (BCPolicy.RANDOM_ENTANGLED, 2),
]

# the flip each reveal target needs from the fixed (0,0) preparation, frozen
EXPECTED_FLIPS = {
    CommitValue.BIT0: PauliOp.IDENTITY,
    CommitValue.BIT1: PauliOp.X,
    CommitValue.PLUS: PauliOp.Z,
    CommitValue.MINUS: PauliOp.ZX,
}


def _rng(seed=0):
    return np.random.default_rng(seed)


def brute_force_flip(src, dst):
    """Oracle: exhaustive search over the four Paulis by fidelity."""
    matches = [
        op
        for op in PauliOp
        if abs(fidelity(apply_unitary(make_bell(src), op.unitary()), make_bell(dst)) - 1.0)
        <= 1e-12
    ]
    assert len(matches) == 1  # uniqueness is part of the claim
    return matches[0]


class TestPauliForFlip:
    def test_agrees_with_exhaustive_search_on_all_sixteen_pairs(self):
        for src in BELL_LABELS:
            for dst in BELL_LABELS:
                assert pauli_for_flip(src, dst) is brute_force_flip(src, dst)

    def test_identity_on_equal_labels(self):
        for label in BELL_LABELS:
            assert pauli_for_flip(label, label) is PauliOp.IDENTITY

    def test_flips_compose(self):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                for c in BELL_LABELS:
                    stepwise = pauli_for_flip(a, b).compose(pauli_for_flip(b, c))
                    assert stepwise is pauli_for_flip(a, c)

    def test_flip_table_is_frozen(self):
        for target, flip in EXPECTED_FLIPS.items():
            assert pauli_for_flip(CHEAT_START_LABEL, commit_label(target)) is flip


class TestCheatingCommit:
    def test_physically_identical_to_an_honest_fixed_commit(self):
        cheat = alice_commit_cheating(3, m_ancillas=1)
        honest = alice_commit(CommitValue.BIT0, 3, m_ancillas=1)
        for a, b in zip(cheat.pairs, honest.pairs):
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


class TestCheatingReveal:
    @pytest.mark.parametrize("target", COMMIT_VALUES)
    @pytest.mark.parametrize("policy,m", ALL_POLICIES)
    def test_never_detected(self, target, policy, m):
        session = alice_commit_cheating(3, m_ancillas=m)
        rng = _rng(101)
        bc_apply_operations(session, policy, rng)
        reveal = alice_reveal_cheat(session, target)
        assert reveal.announced == commit_label(target)
        report = verify(session, reveal, rng)
        assert report.accept
        assert report.revealed_value is target
        assert min(report.announced_probabilities) >= 1 - 1e-9

    @pytest.mark.parametrize("target", COMMIT_VALUES)
    @pytest.mark.parametrize("policy,m", ALL_POLICIES)
    def test_final_state_matches_an_honest_commit_of_the_target(self, target, policy, m):
        # flips commute with everything the receiving side did: steering at
        # reveal time lands amplitude-for-amplitude on the state an honest
        # committer of the target would hold after the same operations
        seed = 2024
        cheat = alice_commit_cheating(2, m_ancillas=m)
        bc_apply_operations(cheat, policy, _rng(seed))
        alice_reveal_cheat(cheat, target)

        honest = alice_commit(target, 2, m_ancillas=m)
        bc_apply_operations(honest, policy, _rng(seed))
        alice_reveal_honest(honest)

        for a, b in zip(cheat.pairs, honest.pairs):
            assert np.abs(a.state.amplitudes - b.state.amplitudes).max() <= 1e-12

    def test_flip_applies_to_every_pair(self):
        session = alice_commit_cheating(4)
        alice_reveal_cheat(session, CommitValue.BIT1)
        want = make_bell(commit_label(CommitValue.BIT1)).amplitudes
        for pair in session.pairs:
            assert np.abs(pair.state.amplitudes - want).max() <= 1e-12

    def test_moves_session_to_revealed(self):
        session = alice_commit_cheating(1)
        alice_reveal_cheat(session, CommitValue.PLUS)
        assert session.phase is Phase.REVEALED

    def test_double_reveal_raises(self):
        session = alice_commit_cheating(1)
        alice_reveal_cheat(session, CommitValue.PLUS)
        with pytest.raises(ProtocolError):
            alice_reveal_cheat(session, CommitValue.MINUS)

    def test_receiver_operations_after_steering_are_rejected(self):
        session = alice_commit_cheating(1)
        alice_reveal_cheat(session, CommitValue.MINUS)
        with pytest.raises(ProtocolError):
            bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng())
