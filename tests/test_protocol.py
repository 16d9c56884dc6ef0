import json

import numpy as np
import pytest

from bellcommit.attack import alice_commit_cheating, alice_reveal_cheat
from bellcommit.protocol import (
    COMMIT_VALUES,
    MAX_ANCILLAS,
    BCPolicy,
    BCRecord,
    CommitValue,
    Phase,
    ProtocolError,
    RevealMessage,
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    transcript,
    value_of_label,
    verify,
)
from bellcommit.qcore import (
    BELL_LABELS,
    BellLabel,
    apply_unitary,
    basis_state,
    bell_probabilities,
    make_bell,
    random_unitary,
    reduced_density,
    tensor,
    trace_distance,
)

# the coding table, frozen
CODING = [
    (CommitValue.BIT0, (0, 0)),
    (CommitValue.BIT1, (0, 1)),
    (CommitValue.PLUS, (1, 0)),
    (CommitValue.MINUS, (1, 1)),
]


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestCoding:
    def test_labels_match_frozen_table(self):
        for value, (ui, uj) in CODING:
            assert commit_label(value) == BellLabel(ui, uj)

    def test_round_trip(self):
        for value in COMMIT_VALUES:
            assert value_of_label(commit_label(value)) is value

    def test_all_labels_distinct(self):
        assert len({commit_label(v) for v in COMMIT_VALUES}) == 4


class TestCommit:
    def test_prepares_identical_bell_pairs(self):
        for value in COMMIT_VALUES:
            session = alice_commit(value, 3)
            want = make_bell(commit_label(value)).amplitudes
            assert session.phase is Phase.COMMITTED
            assert session.committed is value
            assert len(session.pairs) == 3
            for pair in session.pairs:
                assert np.abs(pair.state.amplitudes - want).max() <= 1e-12

    def test_ancillas_start_in_zero(self):
        session = alice_commit(CommitValue.PLUS, 1, m_ancillas=2)
        want = tensor(make_bell(BellLabel(1, 0)), basis_state(2, 0)).amplitudes
        assert np.abs(session.pairs[0].state.amplitudes - want).max() <= 1e-12
        assert session.pairs[0].state.num_qubits == 4

    def test_pair_register_layout(self):
        session = alice_commit(CommitValue.BIT0, 1, m_ancillas=2)
        pair = session.pairs[0]
        assert pair.alice_qubit == 0
        assert pair.c_qubit == 1
        assert pair.ancillas == (2, 3)
        assert pair.c_side == (1, 2, 3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            alice_commit(CommitValue.BIT0, 0)
        with pytest.raises(ValueError):
            alice_commit(CommitValue.BIT0, 1, m_ancillas=MAX_ANCILLAS + 1)
        with pytest.raises(ValueError):
            alice_commit(CommitValue.BIT0, 1, m_ancillas=-1)


class TestBCRecord:
    def test_rejects_operations_on_the_committer_qubit(self):
        record = BCRecord()
        op = random_unitary(1, _rng()).on(0)
        with pytest.raises(ValueError):
            record.append(op)

    def test_keeps_order(self):
        record = BCRecord()
        a = random_unitary(1, _rng(1)).on(1)
        b = random_unitary(1, _rng(2)).on(1)
        record.append(a)
        record.append(b)
        assert record.ops == [a, b]


class TestBCOperations:
    def test_none_policy_changes_nothing(self):
        session = alice_commit(CommitValue.BIT0, 2)
        before = [pair.state for pair in session.pairs]
        rng = _rng(5)
        state0 = rng.bit_generator.state
        bc_apply_operations(session, BCPolicy.NONE, rng)
        assert [pair.state for pair in session.pairs] == before
        assert all(not record.ops for record in session.bc_records)
        assert rng.bit_generator.state == state0  # no draws consumed

    def test_random_local_records_one_op_per_pair(self):
        session = alice_commit(CommitValue.BIT1, 3)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng(5))
        for pair, record in zip(session.pairs, session.bc_records):
            assert len(record.ops) == 1
            assert record.ops[0].targets == (1,)
            # states moved away from the bare Bell pair
            assert pair.state.num_qubits == 2

    def test_random_entangled_targets_all_receiver_qubits(self):
        session = alice_commit(CommitValue.BIT1, 2, m_ancillas=2)
        bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng(5))
        for record in session.bc_records:
            assert record.ops[0].targets == (1, 2, 3)
            assert record.ops[0].dim == 8

    def test_random_entangled_requires_ancillas(self):
        session = alice_commit(CommitValue.BIT1, 2)
        with pytest.raises(ValueError):
            bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, _rng())

    def test_deterministic_given_seed(self):
        a = alice_commit(CommitValue.PLUS, 2)
        b = alice_commit(CommitValue.PLUS, 2)
        bc_apply_operations(a, BCPolicy.RANDOM_LOCAL, _rng(9))
        bc_apply_operations(b, BCPolicy.RANDOM_LOCAL, _rng(9))
        for x, y in zip(a.pairs, b.pairs):
            assert np.array_equal(x.state.amplitudes, y.state.amplitudes)

    def test_rejected_after_reveal(self):
        session = alice_commit(CommitValue.BIT0, 1)
        alice_reveal_honest(session)
        with pytest.raises(ProtocolError):
            bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng())

    def test_pairs_evolve_independently(self):
        session = alice_commit(CommitValue.BIT0, 2)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, _rng(13))
        a, b = session.pairs
        assert not np.array_equal(a.state.amplitudes, b.state.amplitudes)


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
        reveal = alice_reveal_honest(session)
        assert reveal.announced == commit_label(value)
        report = verify(session, reveal, rng)
        assert report.accept
        assert report.revealed_value is value
        assert all(label == commit_label(value) for label in report.per_pair)
        assert min(report.announced_probabilities) >= 1 - 1e-9

    def test_wrong_announcement_is_rejected(self):
        session = alice_commit(CommitValue.BIT0, 4)
        rng = _rng(3)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, rng)
        alice_reveal_honest(session)
        lie = RevealMessage(announced=commit_label(CommitValue.MINUS))
        report = verify(session, lie, rng)
        assert not report.accept
        assert report.revealed_value is None
        assert max(report.announced_probabilities) <= 1e-9

    def test_double_reveal_raises(self):
        session = alice_commit(CommitValue.BIT0, 1)
        alice_reveal_honest(session)
        with pytest.raises(ProtocolError):
            alice_reveal_honest(session)

    def test_verify_requires_revealed_phase(self):
        session = alice_commit(CommitValue.BIT0, 1)
        reveal = RevealMessage(announced=commit_label(CommitValue.BIT0))
        with pytest.raises(ProtocolError):
            verify(session, reveal, _rng())

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

    @pytest.mark.parametrize("kind", ["cheat", "honest", "control"])
    def test_announced_probabilities_match_the_undone_state(self, kind):
        announced = commit_label(CommitValue.PLUS if kind == "honest" else CommitValue.MINUS)
        rng = _rng(13)
        if kind == "cheat":
            session = alice_commit_cheating(3, m_ancillas=1)
            bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, rng)
            alice_reveal_cheat(session, CommitValue.MINUS)
        else:
            session = alice_commit(CommitValue.PLUS, 3, m_ancillas=1)
            bc_apply_operations(session, BCPolicy.RANDOM_ENTANGLED, rng)
            alice_reveal_honest(session)
        # the reference: undo each pair's record step by step, then project
        expected = []
        for pair, record in zip(session.pairs, session.bc_records):
            state = pair.state
            for op in reversed(record.ops):
                state = apply_unitary(state, op.dagger())
            expected.append(float(bell_probabilities(state, (0, 1))[BELL_LABELS.index(announced)]))
        report = verify(session, RevealMessage(announced), rng)
        assert report.announced_probabilities == expected
        assert report.accept is (kind != "control")


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
                reduced_density(pair.state, pair.c_side) for pair in session.pairs
            ]
        for a in COMMIT_VALUES:
            for b in COMMIT_VALUES:
                for x, y in zip(reduced[a], reduced[b]):
                    assert trace_distance(x, y) <= 1e-12

    def test_fresh_commit_marginal_is_maximally_mixed(self):
        for value in COMMIT_VALUES:
            session = alice_commit(value, 1)
            rho = reduced_density(session.pairs[0].state, (1,)).matrix
            assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12

    def test_committer_marginal_is_also_mixed(self):
        session = alice_commit(CommitValue.MINUS, 1, m_ancillas=1)
        rho = reduced_density(session.pairs[0].state, (0,)).matrix
        assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12


class TestTranscript:
    def test_committed_phase_shape(self):
        session = alice_commit(CommitValue.BIT1, 2)
        doc = transcript(session)
        assert set(doc) == {"phase", "value", "announced", "per_pair", "accept"}
        assert doc["phase"] == "committed"
        assert doc["value"] == "bit1"
        assert doc["announced"] is None
        assert doc["per_pair"] is None
        assert doc["accept"] is None

    def test_full_round_is_json_serializable(self):
        session = alice_commit(CommitValue.PLUS, 2)
        rng = _rng(1)
        bc_apply_operations(session, BCPolicy.RANDOM_LOCAL, rng)
        reveal = alice_reveal_honest(session)
        report = verify(session, reveal, rng)
        doc = transcript(session, reveal, report)
        parsed = json.loads(json.dumps(doc))
        assert parsed["phase"] == "revealed"
        assert parsed["announced"] == [1, 0]
        assert parsed["per_pair"] == [[1, 0], [1, 0]]
        assert parsed["accept"] is True
