"""Acceptance suite.

Each test covers one headline claim of the package at its pinned tolerance
and prints a single pass/fail line (visible with ``pytest -s``; ``pytest -v``
also reports one line per criterion through the test names).
"""

import time

import numpy as np

from bellcommit import cli
from bellcommit.attack import pauli_for_flip
from bellcommit.harness import (
    DetectionStats,
    ExperimentConfig,
    Strategy,
    _execute_trial,
    acceptance_matrix,
    hiding_report,
    run_experiment,
)
from bellcommit.protocol import (
    COMMIT_VALUES,
    MAX_ANCILLAS,
    BCPolicy,
    CommitValue,
    alice_commit,
)
from bellcommit.qcore import (
    BELL_LABELS,
    BellLabel,
    PauliOp,
    StateVector,
    Unitary,
    apply_unitary,
    random_unitaries,
)
from reference import fidelity, inner_product, make_bell, random_state, reduced_density

S = 1.0 / np.sqrt(2.0)

# every (policy, ancilla) combination; the entangling policy requires m >= 1,
# so its m=0 cell is excluded as invalid by construction
POLICY_GRID = [
    (BCPolicy.NONE, 0),
    (BCPolicy.NONE, 1),
    (BCPolicy.NONE, 2),
    (BCPolicy.RANDOM_LOCAL, 0),
    (BCPolicy.RANDOM_LOCAL, 1),
    (BCPolicy.RANDOM_LOCAL, 2),
    (BCPolicy.RANDOM_ENTANGLED, 1),
    (BCPolicy.RANDOM_ENTANGLED, 2),
]
PAIR_COUNTS = (1, 4, 8)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_bell_constructor_and_orthonormality():
    expected = {
        (0, 0): np.array([S, 0, 0, S]),
        (0, 1): np.array([0, S, S, 0]),
        (1, 0): np.array([S, 0, 0, -S]),
        (1, 1): np.array([0, S, -S, 0]),
    }
    worst = 0.0
    for (ui, uj), want in expected.items():
        got = make_bell(BellLabel(ui, uj)).amplitudes
        worst = max(worst, float(np.abs(got - want).max()))
    for i, a in enumerate(BELL_LABELS):
        for j, b in enumerate(BELL_LABELS):
            ip = inner_product(make_bell(a), make_bell(b))
            worst = max(worst, abs(ip - (1.0 if i == j else 0.0)))
    _verdict(1, worst <= 1e-12, f"amplitudes and 16 inner products, max deviation {worst:.3e}")


def test_criterion_2_flip_identities_amplitude_by_amplitude():
    worst = 0.0
    count = 0
    for ui in (0, 1):
        for uj in (0, 1):
            state = make_bell(BellLabel(ui, uj))
            z_got = apply_unitary(state, Unitary(PauliOp.Z.matrix(), (0,))).amplitudes
            z_want = make_bell(BellLabel(1 - ui, uj)).amplitudes
            worst = max(worst, float(np.abs(z_got - z_want).max()))
            count += 1
            x_got = apply_unitary(state, Unitary(PauliOp.X.matrix(), (0,))).amplitudes
            x_want = (-1.0) ** ui * make_bell(BellLabel(ui, 1 - uj)).amplitudes
            worst = max(worst, float(np.abs(x_got - x_want).max()))
            count += 1
    _verdict(2, worst <= 1e-12 and count == 8,
             f"{count} flip identities, max amplitude deviation {worst:.3e}")


def test_criterion_3_commutation_on_200_random_triples():
    rng = np.random.default_rng(1729)
    worst = 0.0
    start = time.perf_counter()
    for index in range(200):
        n = 2 + index % 3  # registers of 2, 3, 4 qubits
        state = random_state(n, rng)
        flip = list(PauliOp)[int(rng.integers(0, 4))]
        k = int(rng.integers(1, n))
        targets = tuple(int(t) for t in rng.choice(np.arange(1, n), size=k, replace=False))
        u = Unitary(random_unitaries(k, 1, rng)[0], targets)
        pauli = Unitary(flip.matrix(), (0,))
        a = apply_unitary(apply_unitary(state, pauli), u)
        b = apply_unitary(apply_unitary(state, u), pauli)
        worst = max(worst, float(np.abs(a.amplitudes - b.amplitudes).max()))
    elapsed = time.perf_counter() - start
    _verdict(3, worst <= 1e-12 and elapsed < 1.0,
             f"200 triples, max deviation {worst:.3e}, {elapsed:.2f}s")


def test_criterion_4_cheat_acceptance_sweep():
    start = time.perf_counter()
    cells = 0
    min_prob = 1.0
    perfect = True
    for n_pairs in PAIR_COUNTS:
        for policy, m in POLICY_GRID:
            base = ExperimentConfig(
                strategy=Strategy.CHEAT,
                n_pairs=n_pairs,
                trials=1000,
                bc_policy=policy,
                m_ancillas=m,
                master_seed=20260819,
            )
            # the matrix's cheat row: bit0 prepared, steered to each target
            for cell in acceptance_matrix(base):
                if cell.config.strategy is not Strategy.CHEAT:
                    continue
                perfect = perfect and cell.stats.acceptance_rate == 1.0
                min_prob = min(min_prob, cell.stats.min_outcome_probability)
                cells += 1
    elapsed = time.perf_counter() - start
    _verdict(4, perfect and min_prob >= 1 - 1e-9 and elapsed < 60.0 and cells == 96,
             f"{cells} experiments x 1000 trials all at rate 1.0, "
             f"min outcome probability {min_prob!r}, {elapsed:.1f}s")


def test_criterion_5_control_rejection_sweep():
    cells = 0
    max_rate = 0.0
    for n_pairs in PAIR_COUNTS:
        for policy, m in POLICY_GRID:
            base = ExperimentConfig(
                strategy=Strategy.HONEST,
                n_pairs=n_pairs,
                trials=1000,
                bc_policy=policy,
                m_ancillas=m,
                master_seed=20260820,
            )
            # every mismatched (commit, announce) pair, all 12 of them
            rates = [cell.stats.acceptance_rate for cell in acceptance_matrix(base)
                     if cell.config.strategy is Strategy.CONTROL]
            max_rate = max(max_rate, *rates)
            cells += len(rates)
    _verdict(5, max_rate == 0.0 and cells == 288,
             f"{cells} control experiments x 1000 trials, max acceptance rate {max_rate!r}")


def test_criterion_6_honest_completeness():
    perfect = True
    cells = 0
    for seed in (0, 314159):
        for value in COMMIT_VALUES:
            for policy, m in POLICY_GRID:
                cfg = ExperimentConfig(
                    strategy=Strategy.HONEST,
                    commit_value=value,
                    reveal_value=value,
                    n_pairs=4,
                    trials=250,
                    bc_policy=policy,
                    m_ancillas=m,
                    master_seed=seed,
                )
                stats = run_experiment(cfg)
                perfect = perfect and stats.acceptance_rate == 1.0
                perfect = perfect and stats.min_outcome_probability >= 1 - 1e-9
                cells += 1
    _verdict(6, perfect, f"{cells} honest experiments all at acceptance rate 1.0")


def test_criterion_7_hiding():
    worst = max(hiding_report(m).max_distance for m in range(MAX_ANCILLAS + 1))
    marginal_worst = 0.0
    for value in COMMIT_VALUES:
        session = alice_commit(value, 2, m_ancillas=1)
        for row in session.states:
            rho = reduced_density(StateVector(3, row), (1,))
            marginal_worst = max(
                marginal_worst, float(np.abs(rho - np.eye(2) / 2).max())
            )
    _verdict(7, worst <= 1e-12 and marginal_worst <= 1e-12,
             f"max pairwise trace distance {worst:.3e}, "
             f"max marginal deviation from I/2 {marginal_worst:.3e}")


def test_criterion_8_closed_form_flip_equals_exhaustive_search():
    agree = True
    for src in BELL_LABELS:
        for dst in BELL_LABELS:
            matches = [
                op
                for op in PauliOp
                if abs(fidelity(apply_unitary(make_bell(src), Unitary(op.matrix(), (0,))), make_bell(dst)) - 1.0)
                <= 1e-12
            ]
            agree = agree and matches == [pauli_for_flip(src, dst)]
    _verdict(8, agree, "closed form matches the exhaustive search on all 16 label pairs")


def test_criterion_9_deterministic_reports(tmp_path):
    first = tmp_path / "matrix_a.json"
    second = tmp_path / "matrix_b.json"
    code_a = cli.main(["matrix", "--seed", "42", "--format", "json", "--out", str(first)])
    code_b = cli.main(["matrix", "--seed", "42", "--format", "json", "--out", str(second)])
    byte_identical = first.read_bytes() == second.read_bytes()

    cfg = ExperimentConfig(
        strategy=Strategy.CHEAT,
        reveal_value=CommitValue.PLUS,
        n_pairs=4,
        trials=200,
        bc_policy=BCPolicy.RANDOM_LOCAL,
        master_seed=42,
    )
    # trials own their generators, so running them backwards changes nothing
    backwards = [_execute_trial(cfg, index) for index in reversed(range(cfg.trials))]
    accepts = sum(accept for accept, _ in backwards)
    reordered = DetectionStats(
        trials=cfg.trials,
        accepts=accepts,
        acceptance_rate=accepts / cfg.trials,
        min_outcome_probability=min(probability for _, probability in backwards),
    )
    order_independent = run_experiment(cfg) == reordered
    _verdict(9, code_a == 0 and code_b == 0 and byte_identical and order_independent,
             f"repeated CLI reports byte-identical: {byte_identical}, "
             f"independent of trial order: {order_independent}")
