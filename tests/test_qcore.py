import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcommit.qcore import (
    ATOL_ACCUM,
    ATOL_EXACT,
    BELL,
    BELL_LABELS,
    BellLabel,
    PauliOp,
    StateVector,
    Unitary,
    apply_unitary,
    bell_probabilities,
    measure_bell_pairs,
    random_unitary,
    receiver_states,
    trace_distances,
)
from reference import (
    basis_state,
    fidelity,
    inner_product,
    make_bell,
    random_state,
    reduced_density,
    tensor,
    trace_distance,
)

S = 1.0 / np.sqrt(2.0)

# Hand-expanded amplitude table, frozen. Index order: |00>, |01>, |10>, |11>.
EXPECTED_BELL = {
    (0, 0): [S, 0, 0, S],
    (0, 1): [0, S, S, 0],
    (1, 0): [S, 0, 0, -S],
    (1, 1): [0, S, -S, 0],
}

PAULI_MATS = {
    PauliOp.IDENTITY: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliOp.ZX: np.array([[0, 1], [-1, 0]], dtype=complex),
}


# ---------------------------------------------------------------------------
# oracles: independent implementations against which qcore is checked


def expand_full(mat: np.ndarray, targets, n: int) -> np.ndarray:
    """Embed a k-qubit operator into n qubits by explicit bit arithmetic."""
    dim = 2**n
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for t in targets:
            sub_col = (sub_col << 1) | bits[t]
        for sub_row in range(2**k):
            amp = mat[sub_row, sub_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for pos, t in enumerate(targets):
                new_bits[t] = (sub_row >> (k - 1 - pos)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def partial_trace_oracle(amps: np.ndarray, n: int, keep) -> np.ndarray:
    """Partial trace by explicit double loop over basis indices."""
    others = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    rho = np.zeros((dk, dk), dtype=complex)
    for i in range(2**n):
        ib = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        for j in range(2**n):
            jb = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if any(ib[q] != jb[q] for q in others):
                continue
            r = 0
            c = 0
            for q in keep:
                r = (r << 1) | ib[q]
                c = (c << 1) | jb[q]
            rho[r, c] += amps[i] * np.conj(amps[j])
    return rho


def projector_probability_oracle(state: StateVector, pair, label: BellLabel) -> float:
    """Outcome probability via an explicitly embedded rank-1 projector."""
    bell = np.asarray(EXPECTED_BELL[(label.u_i, label.u_j)], dtype=complex)
    proj = expand_full(np.outer(bell, bell.conj()), pair, state.num_qubits)
    amps = state.amplitudes
    return float(np.real(amps.conj() @ proj @ amps))


# ---------------------------------------------------------------------------
# Bell states


class TestMakeBell:
    def test_amplitudes_match_frozen_table(self):
        for (ui, uj), expected in EXPECTED_BELL.items():
            row = BELL[BELL_LABELS.index(BellLabel(ui, uj))]
            assert np.abs(row - np.asarray(expected)).max() <= ATOL_EXACT
            assert np.array_equal(make_bell(BellLabel(ui, uj)).amplitudes, row)
        with pytest.raises(ValueError):
            BELL[0, 0] = 0.0

    def test_orthonormality_all_sixteen_inner_products(self):
        for i, a in enumerate(BELL_LABELS):
            for j, b in enumerate(BELL_LABELS):
                ip = inner_product(make_bell(a), make_bell(b))
                expected = 1.0 if i == j else 0.0
                assert abs(ip - expected) <= ATOL_EXACT

    def test_label_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BellLabel(2, 0)
        with pytest.raises(ValueError):
            BellLabel(0, -1)

    def test_labels_are_hashable_and_ordered(self):
        assert len(set(BELL_LABELS)) == 4
        assert BELL_LABELS[2] == BellLabel(1, 0)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: StateVector(1, [bad, 0.0]),
            lambda bad: Unitary([[bad, 0.0], [0.0, 1.0]], (0,)),
        ],
        ids=["StateVector", "Unitary"],
    )
    def test_rejects_non_finite_entries(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    def test_amplitudes_are_read_only(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_basis_state_index_convention(self):
        # qubit 0 is the most significant bit
        state = basis_state(2, 1)
        assert state.amplitudes[1] == 1.0
        assert tensor(basis_state(1, 0), basis_state(1, 1)).amplitudes[1] == 1.0

    def test_tensor_puts_first_factor_in_high_bits(self):
        left = basis_state(1, 1)
        right = basis_state(2, 0)
        assert tensor(left, right).amplitudes[0b100] == 1.0

    def test_tensor_of_bell_pairs_matches_kron_oracle(self):
        a = make_bell(BellLabel(0, 0))
        joint = tensor(a, a).amplitudes
        for index in (0, 3, 12, 15):
            assert abs(joint[index] - 0.5) <= ATOL_EXACT
        assert abs(np.abs(joint).sum() - 2.0) <= ATOL_EXACT


# ---------------------------------------------------------------------------
# Pauli operations


class TestApplyPauli:
    def test_z_flips_first_label_bit_exactly(self):
        for ui in (0, 1):
            for uj in (0, 1):
                got = apply_unitary(make_bell(BellLabel(ui, uj)), PauliOp.Z.unitary())
                want = make_bell(BellLabel(1 - ui, uj))
                assert np.abs(got.amplitudes - want.amplitudes).max() <= ATOL_EXACT

    def test_x_flips_second_label_bit_with_sign(self):
        for ui in (0, 1):
            for uj in (0, 1):
                got = apply_unitary(make_bell(BellLabel(ui, uj)), PauliOp.X.unitary())
                want = (-1.0) ** ui * make_bell(BellLabel(ui, 1 - uj)).amplitudes
                assert np.abs(got.amplitudes - want).max() <= ATOL_EXACT

    def test_matches_embedded_operator_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            target = int(rng.integers(0, n))
            op = list(PauliOp)[int(rng.integers(0, 4))]
            state = random_state(n, rng)
            got = apply_unitary(state, op.unitary().on(target)).amplitudes
            want = expand_full(PAULI_MATS[op], (target,), n) @ state.amplitudes
            assert np.abs(got - want).max() <= ATOL_EXACT

    def test_zx_is_x_then_z(self):
        rng = np.random.default_rng(3)
        state = random_state(2, rng)
        combined = apply_unitary(state, PauliOp.ZX.unitary())
        stepwise = apply_unitary(apply_unitary(state, PauliOp.X.unitary()), PauliOp.Z.unitary())
        assert np.abs(combined.amplitudes - stepwise.amplitudes).max() <= ATOL_EXACT

    def test_matrices_are_frozen_constants(self):
        assert np.array_equal(PauliOp.ZX.matrix(), np.array([[0, 1], [-1, 0]]))
        with pytest.raises(ValueError):
            PauliOp.X.matrix()[0, 0] = 5.0


# ---------------------------------------------------------------------------
# unitaries


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), (0,))

    def test_rejects_dimension_target_mismatch(self):
        with pytest.raises(ValueError):
            Unitary(np.eye(4), (0,))

    def test_rejects_duplicate_or_empty_targets(self):
        with pytest.raises(ValueError):
            Unitary(np.eye(4), (1, 1))
        with pytest.raises(ValueError):
            Unitary(np.eye(1), ())

    def test_on_rebinds_targets(self):
        u = random_unitary(1, np.random.default_rng(0))
        assert u.on(3).targets == (3,)
        with pytest.raises(ValueError):
            u.on(1, 2)

    def test_dagger_inverts(self):
        rng = np.random.default_rng(5)
        u = random_unitary(2, rng).on(0, 1)
        state = random_state(2, rng)
        round_trip = apply_unitary(apply_unitary(state, u), u.dagger())
        assert np.abs(round_trip.amplitudes - state.amplitudes).max() <= ATOL_ACCUM

    def test_apply_matches_embedded_operator_oracle(self):
        rng = np.random.default_rng(17)
        cases = [
            (2, (0,)),
            (3, (1,)),
            (3, (1, 2)),
            (3, (2, 0)),   # permuted, non-contiguous
            (4, (1, 3)),
            (4, (2, 1)),   # descending
            (4, (0, 1, 2)),
        ]
        for n, targets in cases:
            u = random_unitary(len(targets), rng).on(*targets)
            state = random_state(n, rng)
            got = apply_unitary(state, u).amplitudes
            want = expand_full(u.matrix, targets, n) @ state.amplitudes
            assert np.abs(got - want).max() <= ATOL_EXACT

    def test_apply_rejects_out_of_range_targets(self):
        u = random_unitary(1, np.random.default_rng(0)).on(5)
        with pytest.raises(ValueError):
            apply_unitary(basis_state(2, 0), u)


class TestRandomUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(23)
        for k in (1, 2, 3):
            u = random_unitary(k, rng)
            residual = u.matrix @ u.matrix.conj().T - np.eye(2**k)
            assert np.abs(residual).max() <= ATOL_ACCUM

    def test_deterministic_for_equal_seeds(self):
        a = random_unitary(2, np.random.default_rng(99))
        b = random_unitary(2, np.random.default_rng(99))
        assert np.array_equal(a.matrix, b.matrix)

    def test_preserves_norm(self):
        rng = np.random.default_rng(8)
        state = random_state(3, rng)
        u = random_unitary(2, rng).on(0, 2)
        out = apply_unitary(state, u)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= ATOL_EXACT

    def test_requires_at_least_one_qubit(self):
        with pytest.raises(ValueError):
            random_unitary(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# inner products


class TestInnerProduct:
    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(2)
        a = random_state(2, rng)
        b = random_state(2, rng)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_fidelity_ignores_global_phase(self):
        state = make_bell(BellLabel(1, 1))
        flipped = StateVector(2, -state.amplitudes)
        assert fidelity(state, flipped) == pytest.approx(1.0, abs=ATOL_EXACT)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state(1, 0), basis_state(2, 0))


# ---------------------------------------------------------------------------
# Bell measurement


class TestBellMeasurement:
    def test_prepared_bell_state_yields_its_label_with_certainty(self):
        for index, label in enumerate(BELL_LABELS):
            state = make_bell(label)
            probs = bell_probabilities(state, (0, 1))
            assert probs[index] >= 1 - 1e-9
            for k in range(4):
                oracle = projector_probability_oracle(state, (0, 1), BELL_LABELS[k])
                assert abs(probs[k] - oracle) <= ATOL_EXACT
            outcomes, sampled = measure_bell_pairs(state.amplitudes[None], np.random.default_rng(0))
            assert outcomes.tolist() == [index]
            assert np.array_equal(sampled[0], probs)

    def test_product_state_probabilities_match_projector_oracle(self):
        state = basis_state(2, 0)  # |00> overlaps two Bell states
        probs = bell_probabilities(state, (0, 1))
        assert np.abs(probs - np.array([0.5, 0.0, 0.5, 0.0])).max() <= ATOL_EXACT
        for k, label in enumerate(BELL_LABELS):
            oracle = projector_probability_oracle(state, (0, 1), label)
            assert abs(probs[k] - oracle) <= ATOL_EXACT

    def test_sampling_respects_distribution_bins(self):
        # |00> splits evenly between labels (0,0) and (1,0); the inverse-CDF
        # walk visits labels in BELL_LABELS order, so draws below 0.5 must
        # yield the first and draws above it the second
        state = basis_state(2, 0).amplitudes[None]
        outcomes = set()
        for seed in range(40):
            draw = np.random.default_rng(seed).random()
            (outcome,), _ = measure_bell_pairs(state, np.random.default_rng(seed))
            assert outcome == (0 if draw < 0.5 else 2)
            outcomes.add(outcome)
        assert outcomes == {0, 2}

    def test_draw_in_the_rounding_slack_yields_the_most_likely_label(self):
        class TopDraw:
            def random(self, n):
                return np.full(n, 0.9999999999999999)

        amps = np.sqrt(0.3) * make_bell(BellLabel(0, 1)).amplitudes
        amps += np.sqrt(0.7) * make_bell(BellLabel(1, 0)).amplitudes
        amps *= np.sqrt(1 - 2e-14)  # the cumulative walk ends below the draw
        outcomes, probs = measure_bell_pairs(amps[None], TopDraw())
        assert np.cumsum(probs[0])[-1] < 0.9999999999999999
        assert outcomes.tolist() == [2]

    def test_embedded_pair_with_offset(self):
        state = tensor(basis_state(1, 0), make_bell(BellLabel(0, 1)))
        probs = bell_probabilities(state, (1, 2))
        assert probs[BELL_LABELS.index(BellLabel(0, 1))] >= 1 - 1e-9

    def test_reversed_pair_order(self):
        # every Bell state maps onto itself (up to phase) under qubit swap
        for index, label in enumerate(BELL_LABELS):
            assert bell_probabilities(make_bell(label), (1, 0))[index] >= 1 - 1e-9

    def test_consumes_exactly_one_draw(self):
        states = np.stack([basis_state(2, 0).amplitudes] * 3)
        rng_a = np.random.default_rng(77)
        measure_bell_pairs(states, rng_a)
        rng_b = np.random.default_rng(77)
        rng_b.random(3)
        assert rng_a.random() == rng_b.random()

    def test_invalid_pair(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            bell_probabilities(state, (0, 0))
        with pytest.raises(ValueError):
            bell_probabilities(state, (0, 2))

    @pytest.mark.parametrize("scale", [1.1, np.nan])
    def test_unnormalized_register_is_rejected(self, scale):
        states = np.stack([make_bell(BellLabel(0, 0)).amplitudes] * 2)
        states[1] *= scale
        with pytest.raises(ValueError):
            measure_bell_pairs(states, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# reduced density matrices


class TestReducedDensity:
    def test_bell_marginals_are_maximally_mixed(self):
        for label in BELL_LABELS:
            state = make_bell(label)
            for keep in ((0,), (1,)):
                rho = reduced_density(state, keep)
                assert np.abs(rho - np.eye(2) / 2).max() <= ATOL_EXACT
        for rho in receiver_states(BELL):
            assert np.abs(rho - np.eye(2) / 2).max() <= ATOL_EXACT

    def test_product_state_marginal(self):
        rho = reduced_density(basis_state(2, 1), (1,))
        assert np.abs(rho - np.array([[0, 0], [0, 1]])).max() <= ATOL_EXACT
        (rho,) = receiver_states(basis_state(2, 1).amplitudes[None])
        assert np.abs(rho - np.array([[0, 0], [0, 1]])).max() <= ATOL_EXACT

    def test_receiver_states_match_double_loop_oracle(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            rows = np.stack([random_state(n, rng).amplitudes for _ in range(3)])
            got = receiver_states(rows)
            assert got.shape == (3, 2 ** (n - 1), 2 ** (n - 1))
            for row, rho in zip(rows, got, strict=True):
                want = partial_trace_oracle(row, n, tuple(range(1, n)))
                assert np.abs(rho - want).max() <= ATOL_EXACT

    def test_reference_matches_double_loop_oracle(self):
        rng = np.random.default_rng(41)
        for n, keep in ((2, (0,)), (3, (1, 2)), (3, (2, 0)), (4, (1, 3))):
            state = random_state(n, rng)
            got = reduced_density(state, keep)
            want = partial_trace_oracle(state.amplitudes, n, keep)
            assert np.abs(got - want).max() <= ATOL_EXACT

    def test_errors(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            reduced_density(state, ())
        with pytest.raises(ValueError):
            reduced_density(state, (0, 0))
        with pytest.raises(ValueError):
            reduced_density(state, (2,))


def _batched_trace_distance(a, b):
    # the kernel's trace_distances over a stack of one
    (distance,) = trace_distances(a[None], b[None])
    return float(distance)


@pytest.mark.parametrize(
    "distance", [trace_distance, _batched_trace_distance], ids=["reference", "kernel"]
)
class TestTraceDistance:
    def test_identical_states_have_zero_distance(self, distance):
        rho = reduced_density(make_bell(BellLabel(0, 0)), (1,))
        assert distance(rho, rho) == 0.0

    def test_orthogonal_pure_states_have_distance_one(self, distance):
        a = reduced_density(basis_state(1, 0), (0,))
        b = reduced_density(basis_state(1, 1), (0,))
        assert distance(a, b) == pytest.approx(1.0, abs=ATOL_EXACT)

    def test_matches_singular_value_oracle(self, distance):
        rng = np.random.default_rng(53)
        a = reduced_density(random_state(3, rng), (0, 1))
        b = reduced_density(random_state(3, rng), (0, 1))
        oracle = 0.5 * np.linalg.svd(a - b, compute_uv=False).sum()
        assert distance(a, b) == pytest.approx(float(oracle), abs=ATOL_ACCUM)

    def test_dimension_mismatch(self, distance):
        a = reduced_density(basis_state(1, 0), (0,))
        b = reduced_density(basis_state(2, 0), (0, 1))
        with pytest.raises(ValueError):
            distance(a, b)


# ---------------------------------------------------------------------------
# property-based invariants


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pauli_on_first_qubit_commutes_with_other_qubit_unitaries(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    state = random_state(n, rng)
    op = list(PauliOp)[int(rng.integers(0, 4))]
    k = int(rng.integers(1, n))
    targets = tuple(int(t) for t in rng.choice(np.arange(1, n), size=k, replace=False))
    u = random_unitary(k, rng).on(*targets)
    a = apply_unitary(apply_unitary(state, op.unitary()), u)
    b = apply_unitary(apply_unitary(state, u), op.unitary())
    assert np.abs(a.amplitudes - b.amplitudes).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operations_preserve_normalization(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    state = random_state(n, rng)
    state = apply_unitary(state, PauliOp.ZX.unitary().on(int(rng.integers(0, n))))
    u = random_unitary(1, rng).on(int(rng.integers(0, n)))
    state = apply_unitary(state, u)
    norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
    assert abs(norm_sq - 1.0) <= ATOL_EXACT


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bell_outcome_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    state = random_state(n, rng)
    qubits = rng.choice(n, size=2, replace=False)
    probs = bell_probabilities(state, (int(qubits[0]), int(qubits[1])))
    assert abs(float(probs.sum()) - 1.0) <= ATOL_ACCUM
    assert float(probs.min()) >= -ATOL_ACCUM
