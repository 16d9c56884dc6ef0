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
    ProtocolError,
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    verify,
)
from bellcommit.qcore import BELL, PAULI, Unitary, apply_unitary
from reference import fidelity, make_bell

ALL_POLICIES = [
    (BCPolicy.NONE, 0),
    (BCPolicy.RANDOM_LOCAL, 0),
    (BCPolicy.RANDOM_LOCAL, 1),
    (BCPolicy.RANDOM_ENTANGLED, 1),
    (BCPolicy.RANDOM_ENTANGLED, 2),
]

# the flip each reveal target needs from the fixed (0,0) preparation, frozen
EXPECTED_FLIPS = {
    CommitValue.BIT0: 0,
    CommitValue.BIT1: 1,
    CommitValue.PLUS: 2,
    CommitValue.MINUS: 3,
}


def _rng(seed=0):
    return np.random.default_rng(seed)


def brute_force_flip(src, dst):
    """Oracle: exhaustive search over the four Paulis by fidelity."""
    matches = [
        op
        for op in range(len(PAULI))
        if abs(fidelity(apply_unitary(make_bell(src), Unitary(PAULI[op], (0,))), make_bell(dst)) - 1.0)
        <= 1e-12
    ]
    assert len(matches) == 1  # uniqueness is part of the claim
    return matches[0]


class TestPauliForFlip:
    def test_agrees_with_exhaustive_search_on_all_sixteen_pairs(self):
        for src in range(len(BELL)):
            for dst in range(len(BELL)):
                assert pauli_for_flip(src, dst) == brute_force_flip(src, dst)

    def test_identity_on_equal_labels(self):
        for label in range(len(BELL)):
            assert pauli_for_flip(label, label) == 0

    def test_flips_compose(self):
        for a in range(len(BELL)):
            for b in range(len(BELL)):
                for c in range(len(BELL)):
                    # flipping a to b, then b to c, is the flip from a to c up
                    # to a global phase: the overlap of the two has modulus 2
                    stepwise = PAULI[pauli_for_flip(b, c)] @ PAULI[pauli_for_flip(a, b)]
                    direct = PAULI[pauli_for_flip(a, c)]
                    assert abs(np.trace(direct.conj().T @ stepwise)) == 2.0

    def test_flip_table_is_frozen(self):
        for target, flip in EXPECTED_FLIPS.items():
            assert pauli_for_flip(CHEAT_START_LABEL, commit_label(target)) == flip


# (ancillas, receiver qubits a random unitary acts on, starting at qubit 1)
RECEIVER_SHAPES = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 3)]


def _receiver_unitary(m, width, rng):
    """A random unitary on the receiving side's ``1 + m`` qubits, acting on the first ``width``."""
    d = 2**width
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return np.kron(q, np.eye(2 ** (1 + m - width)))


def _coefficients(row, receiver):
    """``2 x 2**(1+m)`` coefficients of a row after ``receiver``; row index is the committer's qubit."""
    return row.reshape(2, -1) @ receiver.T


def _bell_row(label, m):
    return np.kron(make_bell(label).amplitudes, np.eye(2**m)[0])


def _steering_unitary(a, b):
    """Uhlmann's unitary on the committer's qubit: the polar part of ``M_b M_a^+``."""
    w, _, vh = np.linalg.svd(b @ np.linalg.pinv(a))
    return w @ vh


class TestUhlmannOracle:
    """The attack's flips rebuilt from the purifications alone, without ``pauli_for_flip``.

    Two rows with the same receiver-side reduced state are purifications of
    it, so a unitary on the committer's qubit maps one onto the other
    (Uhlmann); the converse fails when the reduced states differ.
    """

    @pytest.mark.parametrize("m,width", RECEIVER_SHAPES)
    def test_recovers_the_pauli_flip_on_all_sixteen_pairs(self, m, width):
        rng = _rng(10 * m + width)
        for src in range(len(BELL)):
            for dst in range(len(BELL)):
                receiver = _receiver_unitary(m, width, rng)
                a = _coefficients(_bell_row(src, m), receiver)
                b = _coefficients(_bell_row(dst, m), receiver)
                u = _steering_unitary(a, b)
                assert np.abs(u @ a - b).max() <= 1e-12
                flip = PAULI[pauli_for_flip(src, dst)]
                phase = np.trace(flip.conj().T @ u) / 2
                assert abs(abs(phase) - 1) <= 1e-12
                assert np.abs(u - phase * flip).max() <= 1e-12

    @pytest.mark.parametrize("m,width", RECEIVER_SHAPES)
    def test_no_unitary_steers_onto_a_different_receiver_state(self, m, width):
        rng = _rng(10 * m + width)
        product = np.eye(2 ** (2 + m))[0]  # |0>|0 .. 0>: the receiving side holds a pure state
        for src in range(len(BELL)):
            receiver = _receiver_unitary(m, width, rng)
            a = _coefficients(_bell_row(src, m), receiver)
            b = _coefficients(product, receiver)
            assert np.abs(a.T @ a.conj() - b.T @ b.conj()).max() > 0.1
            # a is maximally entangled, so M_a^+ = 2 M_a^H and the polar part is
            # the closest unitary of all: |U M_a - M_b|**2 = 2 - 2 |M_b M_a^H|_* = 2 - sqrt(2)
            u = _steering_unitary(a, b)
            assert abs(np.linalg.norm(u @ a - b) - np.sqrt(2 - np.sqrt(2))) <= 1e-12


class TestCheatingCommit:
    def test_physically_identical_to_an_honest_fixed_commit(self):
        cheat = alice_commit_cheating(3, m_ancillas=1)
        honest = alice_commit(CommitValue.BIT0, 3, m_ancillas=1)
        assert np.array_equal(cheat.states, honest.states)


class TestCheatingReveal:
    @pytest.mark.parametrize("target", COMMIT_VALUES)
    @pytest.mark.parametrize("policy,m", ALL_POLICIES)
    def test_never_detected(self, target, policy, m):
        session = alice_commit_cheating(3, m_ancillas=m)
        rng = _rng(101)
        bc_apply_operations(session, policy, rng)
        announced = alice_reveal_cheat(session, target)
        assert announced == commit_label(target)
        report = verify(session, announced, rng)
        assert report.accept
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

        assert np.abs(cheat.states - honest.states).max() <= 1e-12

    def test_flip_applies_to_every_pair(self):
        session = alice_commit_cheating(4)
        alice_reveal_cheat(session, CommitValue.BIT1)
        want = make_bell(commit_label(CommitValue.BIT1)).amplitudes
        assert session.states.shape == (4, 4)
        for row in session.states:
            assert np.abs(row - want).max() <= 1e-12

    def test_moves_session_to_revealed(self):
        session = alice_commit_cheating(1)
        alice_reveal_cheat(session, CommitValue.PLUS)
        assert session.revealed is True

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
