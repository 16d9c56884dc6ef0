import copy

import numpy as np
import pytest

from bellcommit import protocol
from bellcommit.attack import alice_commit_cheating, alice_reveal_cheat
from bellcommit.protocol import (
    COMMIT_VALUES,
    MAX_ANCILLAS,
    BCPolicy,
    CommitValue,
    ProtocolError,
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    verify,
)
from bellcommit.qcore import (
    BELL,
    PAULI,
    StateVector,
    Unitary,
    apply_rows,
    apply_unitary,
    bell_probabilities,
    random_unitaries,
)
from reference import basis_state, make_bell, reduced_density, tensor, trace_distance

# the coding table, frozen
CODING = [
    (CommitValue.BIT0, (0, 0)),
    (CommitValue.BIT1, (0, 1)),
    (CommitValue.PLUS, (1, 0)),
    (CommitValue.MINUS, (1, 1)),
]


def _rng(seed=0):
    return np.random.default_rng(seed)


def _pair_states(session):
    """Each row of the session as a StateVector."""
    n = 2 + session.m_ancillas
    return [StateVector(n, row) for row in session.states]


class TestCoding:
    def test_labels_match_frozen_table(self):
        for value, (ui, uj) in CODING:
            assert commit_label(value) == 2 * ui + uj

    def test_all_labels_distinct(self):
        assert len({commit_label(v) for v in COMMIT_VALUES}) == 4

    # a value's name or label equals no member; each entry point names what it got
    @pytest.mark.parametrize("value", ["plus", 0, None])
    @pytest.mark.parametrize("entry", ["commit_label", "alice_commit", "alice_reveal_cheat"])
    def test_a_value_that_is_not_a_commit_value_is_refused(self, entry, value):
        session = alice_commit(CommitValue.BIT0, 2)
        states = session.states
        call = {
            "commit_label": lambda: commit_label(value),
            "alice_commit": lambda: alice_commit(value, 2),
            "alice_reveal_cheat": lambda: alice_reveal_cheat(session, value),
        }[entry]
        with pytest.raises(TypeError, match=f"^expected a CommitValue, got {value!r}$"):
            call()
        # a refused reveal leaves the session committed and unflipped
        assert not session.revealed
        assert session.states is states


class TestCommit:
    def test_prepares_identical_bell_pairs(self):
        for value in COMMIT_VALUES:
            session = alice_commit(value, 3)
            want = make_bell(commit_label(value)).amplitudes
            assert session.revealed is False
            assert session.committed is value
            assert session.n_pairs == 3
            assert session.states.shape == (3, 4)
            for row in session.states:
                assert np.abs(row - want).max() <= 1e-12

    def test_ancillas_start_in_zero(self):
        session = alice_commit(CommitValue.PLUS, 1, m_ancillas=2)
        want = tensor(make_bell(2), basis_state(2, 0)).amplitudes
        assert np.abs(session.states[0] - want).max() <= 1e-12
        assert session.states.shape == (1, 2**4)
        assert session.m_ancillas == 2

    def test_shared_initial_states_are_never_written(self):
        first = alice_commit(CommitValue.MINUS, 2, m_ancillas=1)
        second = alice_commit(CommitValue.MINUS, 2, m_ancillas=1)
        assert not first.states.flags.writeable
        # so is the cached row under every session's view
        assert not protocol._initial_row(3, 1).flags.writeable
        template = np.tile(tensor(make_bell(3), basis_state(1, 0)).amplitudes, (2, 1))
        bc_apply_operations(first, BCPolicy.RANDOM_ENTANGLED, _rng(3))
        assert not np.array_equal(first.states, template)
        assert second.states.shape == template.shape
        assert np.array_equal(second.states, template)

    def test_pair_register_layout(self):
        # qubit 0 is the committer's, qubit 1 the receiver's, qubits 2 and 3
        # the receiver's ancillas in |00>
        session = alice_commit(CommitValue.BIT0, 1, m_ancillas=2)
        (state,) = _pair_states(session)
        index = commit_label(CommitValue.BIT0)
        assert bell_probabilities(state, (0, 1))[index] >= 1 - 1e-12
        assert abs(reduced_density(state, (2, 3))[0, 0] - 1) <= 1e-12
        # the receiver's step acts on qubits 1, 2 and 3 only: the committer's
        # marginal stays as it was
        before = reduced_density(state, (0,))
        bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng(4))
        (state,) = _pair_states(session)
        assert np.abs(reduced_density(state, (0,)) - before).max() <= 1e-12
        assert bell_probabilities(state, (0, 1))[index] < 1 - 1e-6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            alice_commit(CommitValue.BIT0, 0)
        with pytest.raises(ValueError):
            alice_commit(CommitValue.BIT0, 1, m_ancillas=MAX_ANCILLAS + 1)
        with pytest.raises(ValueError):
            alice_commit(CommitValue.BIT0, 1, m_ancillas=-1)
        for n_pairs, m_ancillas in ((2.0, 0), (True, 0), (1, 1.0), (1, False)):
            with pytest.raises(ValueError, match="must be an integer"):
                alice_commit(CommitValue.BIT0, n_pairs, m_ancillas)


class TestBCRecord:
    def test_keeps_order(self):
        session = alice_commit(CommitValue.BIT0, 2, m_ancillas=1)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng(1))
        bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng(2))
        # one stack per step, in the order applied, each drawn in pair order
        for ops, (seed, width) in zip(session.ops, [(1, 1), (2, 2)], strict=True):
            rng = _rng(seed)
            want = np.stack([random_unitaries(width, 1, rng)[0] for _ in range(2)])
            assert np.array_equal(ops, want)


class TestBCOperations:
    def test_none_policy_changes_nothing(self):
        session = alice_commit(CommitValue.BIT0, 2)
        before = session.states
        rng = _rng(5)
        state0 = rng.bit_generator.state
        bc_apply_operations(session, BCPolicy.NONE, rng)
        assert session.states is before
        assert session.ops == []
        assert rng.bit_generator.state == state0  # no draws consumed

    def test_random_local_records_one_op_per_pair(self):
        session = alice_commit(CommitValue.BIT1, 3)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng(5))
        assert len(session.ops) == 1
        # one single-qubit unitary per pair, acting on qubit 1
        assert session.ops[0].shape == (3, 2, 2)
        assert session.states.shape == (3, 4)

    def test_random_entangled_targets_all_receiver_qubits(self):
        session = alice_commit(CommitValue.BIT1, 2, m_ancillas=2)
        bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng(5))
        # one unitary per pair on qubits 1, 2 and 3
        assert len(session.ops) == 1
        assert session.ops[0].shape == (2, 8, 8)

    def test_random_entangled_requires_ancillas(self):
        session = alice_commit(CommitValue.BIT1, 2)
        with pytest.raises(ValueError, match="^the random-entangled policy requires at least one ancilla$"):
            bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng())

    # a policy's name equals no member: "none" would run a Haar step
    @pytest.mark.parametrize("name", [policy.value for policy in BCPolicy])
    def test_refuses_a_policy_name(self, name):
        session = alice_commit(CommitValue.BIT0, 2)
        rng = _rng(5)
        state0 = rng.bit_generator.state
        with pytest.raises(TypeError, match=f"^expected a BCPolicy, got '{name}'$"):
            bc_apply_operations(session, name, rng)
        assert session.ops == []
        assert rng.bit_generator.state == state0

    def test_deterministic_given_seed(self):
        a = alice_commit(CommitValue.PLUS, 2)
        b = alice_commit(CommitValue.PLUS, 2)
        bc_apply_operations(a, BCPolicy.RANDOM_LOCAL, _rng(9))
        bc_apply_operations(b, BCPolicy.RANDOM_LOCAL, _rng(9))
        assert np.array_equal(a.states, b.states)

    def test_rejected_after_reveal(self):
        session = alice_commit(CommitValue.BIT0, 1)
        alice_reveal_honest(session)
        with pytest.raises(ProtocolError):
            bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng())

    def test_a_row_off_unit_norm_is_refused_at_the_next_step(self):
        # every whole-array step checks each row's norm, as StateVector did
        for step in (
            lambda session: bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng()),
            lambda session: alice_reveal_cheat(session, CommitValue.PLUS),
        ):
            session = alice_commit(CommitValue.BIT0, 2)
            session.states = session.states * np.array([[1.0], [1.0 + 1e-9]])
            with pytest.raises(ValueError):
                step(session)

    def test_pairs_evolve_independently(self):
        session = alice_commit(CommitValue.BIT0, 2)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng(13))
        a, b = session.states
        assert not np.array_equal(a, b)


class TestRevealAndVerify:
    @pytest.mark.parametrize("value", COMMIT_VALUES)
    @pytest.mark.parametrize(
        "policy,m",
        [(BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 2)],
    )
    def test_honest_run_accepts(self, value, policy, m):
        session = alice_commit(value, 3, m_ancillas=m)
        rng = _rng(21)
        bc_apply_operations(session, policy, rng)
        announced = alice_reveal_honest(session)
        assert announced == commit_label(value)
        report = verify(session, announced, rng)
        assert report.accept
        assert all(label == commit_label(value) for label in report.per_pair)
        assert min(report.announced_probabilities) >= 1 - 1e-9

    def test_wrong_announcement_is_rejected(self):
        session = alice_commit(CommitValue.BIT0, 4)
        rng = _rng(3)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, rng)
        alice_reveal_honest(session)
        lie = commit_label(CommitValue.MINUS)
        report = verify(session, lie, rng)
        assert not report.accept
        assert max(report.announced_probabilities) <= 1e-9

    # the verifier accepts only a unanimous match: pairs that hold different
    # Bell states fail every announcement, even the label all pairs but one hold
    @pytest.mark.parametrize("flips", [(0, 1, 2, 3), (0, 0, 0, 3), (2, 0)])
    @pytest.mark.parametrize("m", [0, 1])
    def test_pairs_holding_different_labels_fail_every_announcement(self, flips, m):
        session = alice_commit(CommitValue.BIT0, len(flips), m_ancillas=m)
        # a flip p = 2*z + x at qubit 0 turns bit0's label 0 into 0 ^ p, (z, x), pair by pair
        session.states = apply_rows(session.states, PAULI[list(flips)], 0)
        alice_reveal_honest(session)
        held = [commit_label(CommitValue.BIT0) ^ p for p in flips]
        for announced in range(len(BELL)):
            report = verify(session, announced, _rng(4))
            assert report.per_pair == held
            assert not report.accept

    @pytest.mark.parametrize("policy,m", [(BCPolicy.NONE, 0), (BCPolicy.RANDOM_ENTANGLED, 1)])
    def test_verify_consumes_exactly_n_pairs_uniforms_after_the_receivers_draws(self, policy, m):
        session = alice_commit(CommitValue.BIT0, 3, m_ancillas=m)
        rng = _rng(77)
        bc_apply_operations(session, policy, rng)
        expected = copy.deepcopy(rng)
        verify(session, alice_reveal_honest(session), rng)
        expected.random(3)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_double_reveal_raises(self):
        session = alice_commit(CommitValue.BIT0, 1)
        alice_reveal_honest(session)
        with pytest.raises(ProtocolError):
            alice_reveal_honest(session)

    def test_verify_requires_revealed_phase(self):
        session = alice_commit(CommitValue.BIT0, 1)
        with pytest.raises(ProtocolError):
            verify(session, commit_label(CommitValue.BIT0), _rng())

    # -1 would otherwise read label 3's probability, 4 and 2.0 fail as an
    # IndexError, and True index the probabilities as a mask
    @pytest.mark.parametrize("announced", [4, -1, True, 2.0])
    def test_an_announced_label_outside_0_to_3_is_rejected(self, announced):
        session = alice_commit(CommitValue.BIT0, 1)
        alice_reveal_honest(session)
        with pytest.raises(ValueError, match="a Bell label is 0 to 3"):
            verify(session, announced, _rng())

    def test_verification_is_seed_reproducible(self):
        reports = []
        for _ in range(2):
            session = alice_commit(CommitValue.PLUS, 3)
            rng = _rng(42)
            bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, rng)
            reveal = alice_reveal_honest(session)
            reports.append(verify(session, reveal, rng))
        assert reports[0].per_pair == reports[1].per_pair
        assert reports[0].announced_probabilities == reports[1].announced_probabilities

    def test_verifying_twice_gives_the_same_report(self):
        session = alice_commit(CommitValue.PLUS, 3, m_ancillas=1)
        bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng(8))
        reveal = alice_reveal_honest(session)
        first = verify(session, reveal, _rng(9))
        second = verify(session, reveal, _rng(9))
        assert first.accept
        assert second == first

    @pytest.mark.parametrize("kind", ["cheat", "honest", "control"])
    def test_announced_probabilities_match_the_undone_state(self, kind):
        announced = commit_label(CommitValue.PLUS if kind == "honest" else CommitValue.MINUS)
        cases = [
            ((BCPolicy.NONE,), 0),
            ((BCPolicy.RANDOM_LOCAL,), 2),
            ((BCPolicy.RANDOM_ENTANGLED,), 1),
            ((BCPolicy.RANDOM_ENTANGLED,), 2),
            # two steps that do not commute: the undo must run in reverse order
            ((BCPolicy.RANDOM_LOCAL, BCPolicy.RANDOM_ENTANGLED), 1),
        ]
        for policies, m in cases:
            for n_pairs in (1, 3):
                rng = _rng(13)
                if kind == "cheat":
                    session = alice_commit_cheating(n_pairs, m_ancillas=m)
                else:
                    session = alice_commit(CommitValue.PLUS, n_pairs, m_ancillas=m)
                for policy in policies:
                    bc_apply_operations(session, policy, rng)
                if kind == "cheat":
                    alice_reveal_cheat(session, CommitValue.MINUS)
                else:
                    alice_reveal_honest(session)
                assert len(session.ops) == sum(p is not BCPolicy.NONE for p in policies)
                # the reference: undo each pair's steps one by one, then
                # project and sample by inverse CDF, one draw per pair
                oracle_rng = copy.deepcopy(rng)
                labels, probabilities = [], []
                for index, state in enumerate(_pair_states(session)):
                    for ops in reversed(session.ops):
                        targets = tuple(range(1, ops.shape[-1].bit_length()))
                        state = apply_unitary(state, Unitary(ops[index], targets).dagger())
                    probs = bell_probabilities(state, (0, 1))
                    draw, cdf, outcome = oracle_rng.random(), 0.0, None
                    for k in range(4):
                        cdf += float(probs[k])
                        if outcome is None and draw < cdf:
                            outcome = k
                    labels.append(int(np.argmax(probs)) if outcome is None else outcome)
                    probabilities.append(float(probs[announced]))
                report = verify(session, announced, rng)
                case = (policies, m, n_pairs)
                assert report.per_pair == labels, case
                assert report.announced_probabilities == probabilities, case
                assert report.accept is (kind != "control"), case


class TestHiding:
    @pytest.mark.parametrize(
        "policy,m",
        [(BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 1)],
    )
    def test_receiver_view_is_independent_of_the_value(self, policy, m):
        reduced = {}
        for value in COMMIT_VALUES:
            session = alice_commit(value, 2, m_ancillas=m)
            bc_apply_operations(session, policy, _rng(7))  # same seed: same ops
            reduced[value] = [
                reduced_density(state, range(1, 2 + m)) for state in _pair_states(session)
            ]
        for a in COMMIT_VALUES:
            for b in COMMIT_VALUES:
                for x, y in zip(reduced[a], reduced[b]):
                    assert trace_distance(x, y) <= 1e-12

    def test_fresh_commit_marginal_is_maximally_mixed(self):
        for value in COMMIT_VALUES:
            session = alice_commit(value, 1)
            rho = reduced_density(_pair_states(session)[0], (1,))
            assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12

    def test_committer_marginal_is_also_mixed(self):
        session = alice_commit(CommitValue.MINUS, 1, m_ancillas=1)
        rho = reduced_density(_pair_states(session)[0], (0,))
        assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12
