import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcommit import cli, qcore
from bellcommit.harness import ExperimentConfig, Strategy, run_experiment
from bellcommit.attack import alice_commit_cheating, alice_reveal_cheat
from bellcommit.protocol import (
    COMMIT_VALUES,
    BCPolicy,
    CommitValue,
    ConfigError,
    alice_commit,
    bc_apply_operations,
    commit_label,
)
from bellcommit.qcore import (
    ATOL_ACCUM,
    ATOL_EXACT,
    BELL,
    PAULI,
    StateVector,
    Unitary,
    apply_rows,
    apply_unitary,
    bell_pair_probabilities,
    bell_probabilities,
    measure_bell_pairs,
    random_unitaries,
    random_unitary,
    receiver_states,
    trace_distances,
)
from children import KERNELS, run_on_kernel
from reference import (
    basis_state,
    fidelity,
    haar_unitary,
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

# Pauli 2*z + x, hand-written, frozen.
PAULI_MATS = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[1, 0], [0, -1]], dtype=complex),
    3: np.array([[0, 1], [-1, 0]], dtype=complex),
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


def projector_probability_oracle(state: StateVector, pair, label: int) -> float:
    """Outcome probability via an explicitly embedded rank-1 projector."""
    # label 2*u_i + u_j
    bell = np.asarray(EXPECTED_BELL[divmod(label, 2)], dtype=complex)
    proj = expand_full(np.outer(bell, bell.conj()), pair, state.num_qubits)
    amps = state.amplitudes
    return float(np.real(amps.conj() @ proj @ amps))


# ---------------------------------------------------------------------------
# Bell states


class TestMakeBell:
    def test_amplitudes_match_frozen_table(self):
        for (ui, uj), expected in EXPECTED_BELL.items():
            row = BELL[2 * ui + uj]
            assert np.abs(row - np.asarray(expected)).max() <= ATOL_EXACT
            assert np.array_equal(make_bell(2 * ui + uj).amplitudes, row)
        with pytest.raises(ValueError):
            BELL[0, 0] = 0.0

    def test_orthonormality_all_sixteen_inner_products(self):
        for a in range(len(BELL)):
            for b in range(len(BELL)):
                ip = inner_product(make_bell(a), make_bell(b))
                expected = 1.0 if a == b else 0.0
                assert abs(ip - expected) <= ATOL_EXACT

    def test_labels_are_hashable_and_ordered(self):
        # label 2*u_i + u_j: the frozen table's bit pairs, in order, are 0 to 3
        labels = [2 * ui + uj for ui, uj in EXPECTED_BELL]
        assert len(set(labels)) == 4
        assert labels == list(range(len(BELL)))
        assert list(EXPECTED_BELL)[2] == (1, 0)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="^expected 4 amplitudes for 2 qubits, got shape"):
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

    def test_zero_qubits_hold_one_amplitude(self):
        assert StateVector(0, [1.0]).dim == 1
        assert StateVector(2, [0.0, 1.0, 0.0, 0.0]).dim == 4

    # eq=False: equality and hashing are by identity, since a field-wise
    # comparison of arrays has no truth value
    @pytest.mark.parametrize(
        "build",
        [lambda: StateVector(1, [1.0, 0.0]), lambda: Unitary(np.eye(2), (0,))],
        ids=["StateVector", "Unitary"],
    )
    def test_oracle_objects_are_frozen_and_compare_by_identity(self, build):
        a, b = build(), build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, dataclasses.fields(a)[0].name, None)
        assert a == a and a != b
        assert len({a, b}) == 2

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
        a = make_bell(0)
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
                got = apply_unitary(make_bell(2 * ui + uj), Unitary(PAULI[2], (0,)))
                want = make_bell(2 * (1 - ui) + uj)
                assert np.abs(got.amplitudes - want.amplitudes).max() <= ATOL_EXACT

    def test_x_flips_second_label_bit_with_sign(self):
        for ui in (0, 1):
            for uj in (0, 1):
                got = apply_unitary(make_bell(2 * ui + uj), Unitary(PAULI[1], (0,)))
                want = (-1.0) ** ui * make_bell(2 * ui + 1 - uj).amplitudes
                assert np.abs(got.amplitudes - want).max() <= ATOL_EXACT

    def test_matches_embedded_operator_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            target = int(rng.integers(0, n))
            op = int(rng.integers(0, 4))
            state = random_state(n, rng)
            got = apply_unitary(state, Unitary(PAULI[op], (0,)).on(target)).amplitudes
            want = expand_full(PAULI_MATS[op], (target,), n) @ state.amplitudes
            assert np.abs(got - want).max() <= ATOL_EXACT

    def test_zx_is_x_then_z(self):
        rng = np.random.default_rng(3)
        state = random_state(2, rng)
        z, x, zx = (Unitary(PAULI[op], (0,)) for op in (2, 1, 3))
        combined = apply_unitary(state, zx)
        stepwise = apply_unitary(apply_unitary(state, x), z)
        assert np.abs(combined.amplitudes - stepwise.amplitudes).max() <= ATOL_EXACT

    def test_matrices_are_frozen_constants(self):
        assert np.array_equal(PAULI[3], np.array([[0, 1], [-1, 0]]))
        for op, matrix in PAULI_MATS.items():
            assert np.array_equal(PAULI[op], matrix)
        with pytest.raises(ValueError):
            PAULI[1][0, 0] = 5.0


# ---------------------------------------------------------------------------
# unitaries


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), (0,))

    def test_rejects_dimension_target_mismatch(self):
        with pytest.raises(ValueError):
            Unitary(np.eye(4), (0,))

    def test_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            Unitary(np.eye(2), (0,)).matrix[0, 0] = 0.0

    def test_rejects_a_non_square_isometry(self):
        # its rows are orthonormal, so only the squareness check refuses it
        with pytest.raises(ValueError, match="must be square"):
            Unitary(np.eye(2, 4), (0,))

    def test_the_unitarity_guard_admits_its_bound(self):
        # U U^dagger - I is exactly ATOL_ACCUM off the diagonal, or one ulp more
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(_off_diagonal(np.nextafter(ATOL_ACCUM, 1)), (0,))
        assert Unitary(_off_diagonal(ATOL_ACCUM), (0,)).dim == 2

    def test_rejects_duplicate_or_empty_targets(self):
        with pytest.raises(ValueError):
            Unitary(np.eye(4), (1, 1))
        with pytest.raises(ValueError):
            Unitary(np.eye(1), ())

    def test_on_rebinds_targets(self):
        u = Unitary(random_unitaries(1, 1, np.random.default_rng(0))[0], (0,))
        assert u.on(3).targets == (3,)
        with pytest.raises(ValueError):
            u.on(1, 2)

    def test_dagger_inverts(self):
        rng = np.random.default_rng(5)
        u = Unitary(random_unitaries(2, 1, rng)[0], (0, 1))
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
            u = Unitary(random_unitaries(len(targets), 1, rng)[0], targets)
            state = random_state(n, rng)
            got = apply_unitary(state, u).amplitudes
            want = expand_full(u.matrix, targets, n) @ state.amplitudes
            assert np.abs(got - want).max() <= ATOL_EXACT

    def test_apply_rejects_out_of_range_targets(self):
        u = Unitary(random_unitaries(1, 1, np.random.default_rng(0))[0], (0,))
        for target in (2, 5):
            with pytest.raises(ValueError, match="out of range"):
                apply_unitary(basis_state(2, 0), u.on(target))


class TestRandomUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(23)
        for k in (1, 2, 3):
            u = random_unitaries(k, 1, rng)[0]
            residual = u @ u.conj().T - np.eye(2**k)
            assert np.abs(residual).max() <= ATOL_ACCUM

    def test_deterministic_for_equal_seeds(self):
        a = random_unitaries(2, 1, np.random.default_rng(99))[0]
        b = random_unitaries(2, 1, np.random.default_rng(99))[0]
        assert np.array_equal(a, b)

    def test_preserves_norm(self):
        rng = np.random.default_rng(8)
        state = random_state(3, rng)
        u = Unitary(random_unitaries(2, 1, rng)[0], (0, 2))
        out = apply_unitary(state, u)
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= ATOL_EXACT

    def test_requires_at_least_one_qubit(self):
        with pytest.raises(ValueError):
            random_unitaries(0, 1, np.random.default_rng(0))

    # random_unitary calls NumPy's private QR gufuncs; if NumPy renames or
    # changes them, this fails instead of a report changing
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_public_qr_bytes(self, k):
        for seed in [*range(100), 2**64 - 1]:
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_unitaries(k, 1, rng)[0].tobytes() == haar_unitary(k, oracle_rng).tobytes(), seed
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _off_diagonal(entry):
    """``[[1, entry], [0, 1]]``: ``U U^dagger - I`` is exactly ``entry`` off the diagonal."""
    return np.array([[1.0, entry], [0.0, 1.0]], dtype=complex)


def _off_unitarity(defect, at=None):
    """A stand-in for ``qcore.random_unitary`` whose draws are not unitary.

    It runs the real kernel, then corrupts the Q it wrote to ``out``. A
    ``"nan"`` draw holds a NaN, and a ``"scaled-column"`` draw has its first
    column 1e-6 too long. A number ``e`` scales the whole draw by ``1 + e``,
    which moves every diagonal entry of ``U U^dagger`` off 1 by ``2e + e**2``;
    the unit-modulus phase fix that follows keeps each defect. With ``at``,
    only the draw of that call, counted from 1, is off.
    """
    draw = qcore.random_unitary
    calls = 0

    def corrupted(ginibre, out):
        nonlocal calls
        calls += 1
        draw(ginibre, out)
        if at is not None and calls != at:
            return
        if defect == "nan":
            out[0, 0] = np.nan
        elif defect == "scaled-column":
            out[:, 0] *= 1 + 1e-6
        else:
            out *= 1 + defect

    return corrupted


def _draws_off_the_reference():
    """How many stacks were checked against the public QR, and which differ.

    Each stack draws 1 or 8 matrices on 1, 2 or 3 qubits from three
    generators, seeded 0, 2**32 and 2**64 - 1. A stack is off if a byte or a
    generator's end state differs from ``haar_unitary``'s.
    """
    seeds, checked, off = (0, 2**32, 2**64 - 1), 0, []
    for k in (1, 2, 3):
        for count in (1, 8):
            rngs = [np.random.default_rng(seed) for seed in seeds]
            oracles = [np.random.default_rng(seed) for seed in seeds]
            want = np.stack([haar_unitary(k, oracle) for oracle in oracles for _ in range(count)])
            got = random_unitaries(k, count, *rngs)
            states = [(rng.bit_generator.state, oracle.bit_generator.state) for rng, oracle in zip(rngs, oracles)]
            checked += 1
            if got.tobytes() != want.tobytes() or any(mine != theirs for mine, theirs in states):
                off.append(f"k={k} count={count}")
    return checked, off


def _haar_run(policy, m_ancillas):
    return lambda: run_experiment(
        ExperimentConfig(
            strategy=Strategy.CHEAT,
            reveal_value=CommitValue.MINUS,
            n_pairs=2,
            trials=3,
            bc_policy=policy,
            m_ancillas=m_ancillas,
        )
    )


DRAWING_CALLERS = {
    "random_unitaries": lambda: random_unitaries(2, 3, np.random.default_rng(0)),
    "bc_apply_operations": lambda: bc_apply_operations(
        alice_commit(CommitValue.BIT0, 3, 1), BCPolicy.RANDOM_LOCAL, np.random.default_rng(0)
    ),
    "run-random-local": _haar_run(BCPolicy.RANDOM_LOCAL, 0),
    "run-random-entangled": _haar_run(BCPolicy.RANDOM_ENTANGLED, 1),
}


class TestRandomUnitaries:
    @pytest.mark.parametrize("count", [1, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_successive_draws(self, k, count):
        rng, oracle_rng = np.random.default_rng(k), np.random.default_rng(k)
        got = random_unitaries(k, count, rng)
        want = np.stack([random_unitaries(k, 1, oracle_rng)[0] for _ in range(count)])
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_public_qr_draws(self, k):
        rng, oracle_rng = np.random.default_rng(2**64 - 1), np.random.default_rng(2**64 - 1)
        want = np.stack([haar_unitary(k, oracle_rng) for _ in range(8)])
        assert random_unitaries(k, 8, rng).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 3, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_several_generators_equal_each_ones_successive_draws(self, k, count):
        seeds = (k, 2**32, 2**64 - 1)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        oracles = [np.random.default_rng(seed) for seed in seeds]
        got = random_unitaries(k, count, *rngs)
        want = np.stack([haar_unitary(k, oracle) for oracle in oracles for _ in range(count)])
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
        for rng, oracle in zip(rngs, oracles, strict=True):
            assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_draws_give_an_empty_stack(self, k):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for stack in (random_unitaries(k, 0, rng), random_unitaries(k, 3)):
            assert (stack.shape, stack.dtype) == ((0, 2**k, 2**k), np.complex128)
        assert rng.bit_generator.state == before

    def test_the_kernel_overwrites_its_ginibre_matrix(self):
        normals = np.random.default_rng(3).standard_normal((2, 4, 4))
        ginibre = (normals[0] + 1j * normals[1]) / np.sqrt(2.0)
        q, r = np.linalg.qr(ginibre)
        out = np.empty_like(ginibre)
        assert random_unitary(ginibre, out) is None
        assert np.triu(ginibre).tobytes() == r.tobytes()
        assert out.tobytes() == q.tobytes()

    # the normals are freed before the output stack is allocated, and the
    # Ginibre stack before the check: the peak is the output stack plus the
    # check's two temporaries
    def test_the_draw_peaks_at_three_stacks(self):
        tracemalloc.start()
        try:
            stack = random_unitaries(3, 20000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * stack.nbytes

    @pytest.mark.parametrize("coretype", KERNELS)
    def test_equals_the_public_qr_on_every_kernel(self, coretype):
        script = "import json, test_qcore\nprint(json.dumps(test_qcore._draws_off_the_reference()))\n"
        result = run_on_kernel(coretype, script)
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == [6, []]

    # the guard sits at ATOL_ACCUM: a draw off unitarity by twice the bound
    # is refused, and one off by a fifth of it passes
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_the_unitarity_guard_sits_at_its_bound(self, k, monkeypatch):
        outside, inside = _off_unitarity(ATOL_ACCUM), _off_unitarity(0.1 * ATOL_ACCUM)
        monkeypatch.setattr(qcore, "random_unitary", outside)
        with pytest.raises(ValueError, match="^a Haar draw is not unitary$"):
            random_unitaries(k, 3, np.random.default_rng(k))
        monkeypatch.setattr(qcore, "random_unitary", inside)
        assert random_unitaries(k, 3, np.random.default_rng(k)).shape == (3, 2**k, 2**k)

    def test_a_draw_exactly_at_the_bound_passes(self, monkeypatch):
        # ones on R's diagonal make every phase exactly 1
        def at_the_bound(ginibre, out):
            np.fill_diagonal(ginibre, 1)
            out[...] = _off_diagonal(ATOL_ACCUM)

        monkeypatch.setattr(qcore, "random_unitary", at_the_bound)
        assert random_unitaries(1, 2, np.random.default_rng(0)).shape == (2, 2, 2)

    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_one_draw_off_unitarity_anywhere_in_the_stack_is_refused(self, position, monkeypatch):
        monkeypatch.setattr(qcore, "random_unitary", _off_unitarity(ATOL_ACCUM, at=position + 1))
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        with pytest.raises(ValueError, match="^a Haar draw is not unitary$"):
            random_unitaries(2, 3, *rngs)

    def test_nan_normals_are_refused_with_warnings_off(self):
        # np.linalg.qr's errstate is gone from the draw: with every
        # floating-point warning off, the stack's own check still refuses NaN
        class NanNormals:
            def standard_normal(self, out):
                out.fill(np.nan)

        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^a Haar draw is not unitary$"):
            random_unitaries(2, 3, NanNormals())

    # the match keeps apply_rows' norm check from standing in for this one
    @pytest.mark.parametrize("defect", ["nan", "scaled-column"])
    @pytest.mark.parametrize("caller", list(DRAWING_CALLERS))
    def test_a_draw_off_unitarity_is_refused(self, caller, defect, monkeypatch):
        monkeypatch.setattr(qcore, "random_unitary", _off_unitarity(defect))
        with pytest.raises(ValueError, match="unitary"):
            DRAWING_CALLERS[caller]()

    # a failed kernel guard is a fault of the program, not invalid input: the
    # CLI lets it propagate with its traceback instead of exiting 2
    @pytest.mark.parametrize("defect", ["nan", "scaled-column"])
    def test_a_draw_off_unitarity_propagates_from_the_cli(self, defect, monkeypatch, capsys):
        monkeypatch.setattr(qcore, "random_unitary", _off_unitarity(defect))
        with pytest.raises(ValueError, match="unitary") as excinfo:
            cli.main(["run", "--bc-ops", "random-local", "--pairs", "2", "--trials", "3"])
        assert not isinstance(excinfo.value, ConfigError)
        assert capsys.readouterr().out == ""


HAAR_DRAWS = 10000


class TestHaarMeasure:
    """The draws against Haar measure itself, not against their own bits.

    For Haar-distributed U on U(d), E[tr U] = 0 and E|tr U|**(2j) = j! for
    j <= d (Diaconis and Shahshahani, J. Appl. Probab. 31A, 1994). A QR
    without the phase fix, or with a fix that is not unit-modulus, misses
    these by many standard errors. The trace moments cannot see a phase fix
    applied to rows (D @ Q) instead of columns (Q @ D): such draws pass too.
    """

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trace_moments(self, k):
        traces = np.trace(random_unitaries(k, HAAR_DRAWS, np.random.default_rng(1994)), axis1=1, axis2=2)
        squares = np.abs(traces) ** 2
        # five standard errors of each mean: tr U and |tr U|**2 have
        # variance 1, and |tr U|**4 at most 4! - 2**2 = 20
        error = 5 / np.sqrt(HAAR_DRAWS)
        assert abs(traces.mean()) <= error
        assert abs(squares.mean() - 1) <= error
        assert abs((squares**2).mean() - 2) <= np.sqrt(20) * error


def _off_norm(defect):
    """Two Bell rows, the second scaled so that its squared norm is ``1 + defect``."""
    return np.stack([BELL[0], BELL[1] * np.sqrt(1 + defect)])


def _undo(k, rows):
    """A register after a receiver's apply on qubits 1 .. k, and the adjoint view of that apply's stack."""
    rng = np.random.default_rng(k * 100 + rows)
    states = np.stack([random_state(1 + k, rng).amplitudes for _ in range(rows)])
    ops = random_unitaries(k, rows, rng)
    return apply_rows(states, ops, 1), ops.conj().swapaxes(1, 2)


def _views_off_the_copy():
    """How many undo stacks were applied as views and as copies, and which differ.

    Each stack holds 1, 7 or 48 Haar unitaries on 1, 2 or 3 qubits. A stack
    is off if ``apply_rows`` gives its view other bytes than its C-contiguous
    copy.
    """
    checked, off = 0, []
    for k in (1, 2, 3):
        for rows in (1, 7, 48):
            states, view = _undo(k, rows)
            checked += 1
            if apply_rows(states, view, 1).tobytes() != apply_rows(states, np.ascontiguousarray(view), 1).tobytes():
                off.append(f"k={k} rows={rows}")
    return checked, off


class TestApplyRows:
    def test_the_tolerances_are_pinned(self):
        # the guard tests scale with these constants, so only this pins them
        assert (ATOL_EXACT, ATOL_ACCUM) == (1e-12, 1e-10)

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_one_row_against_a_stack_equals_the_tiled_row(self, width, first):
        rng = np.random.default_rng(width)
        row = random_state(first + width + 1, rng).amplitudes[None]
        stack = random_unitaries(width, 5, rng)
        got = apply_rows(row, stack, first)
        want = apply_rows(np.tile(row, (5, 1)), stack, first)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    # the engine steps a stack of registers through each step in one call:
    # every register's rows must be the bytes of a call of its own
    @pytest.mark.parametrize("registers", [1, 4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_row_stack_against_a_stack_equals_a_call_per_row(self, k, registers):
        rng = np.random.default_rng(10 * k + registers)
        rows = np.stack([random_state(4, rng).amplitudes for _ in range(registers)])[:, None]
        stack = random_unitaries(k, 5, rng)
        got = apply_rows(rows, stack, 1)
        want = np.stack([apply_rows(row, stack, 1) for row in rows])
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((registers, 5, 16), np.complex128)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("registers", [1, 4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flips_on_a_register_stack_equal_a_call_per_register(self, k, registers):
        rng = np.random.default_rng(10 * k + registers)
        rows = np.stack([random_state(4, rng).amplitudes for _ in range(registers)])[:, None]
        states = apply_rows(rows, random_unitaries(k, 5, rng), 1)
        flips = PAULI[np.arange(registers) % 4][:, None]
        got = apply_rows(states, flips, 0)
        want = np.stack([apply_rows(block, flip, 0) for block, flip in zip(states, flips[:, 0])])
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((registers, 5, 16), np.complex128)
        assert got.tobytes() == want.tobytes()

    # the undo's adjoint reaches apply_rows as a transposed view, whose
    # matmul would round otherwise than a C-contiguous copy's
    @pytest.mark.parametrize("rows", [1, 7, 48])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_view_gives_the_bytes_of_its_contiguous_copy(self, k, rows):
        states, view = _undo(k, rows)
        assert not view.flags.c_contiguous
        got = apply_rows(states, view, 1)
        want = apply_rows(states, np.ascontiguousarray(view), 1)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coretype", KERNELS)
    def test_a_view_gives_the_bytes_of_its_copy_on_every_kernel(self, coretype):
        script = "import json, test_qcore\nprint(json.dumps(test_qcore._views_off_the_copy()))\n"
        result = run_on_kernel(coretype, script)
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == [9, []]

    # the norm guard sits at ATOL_EXACT: a row off by twice the bound is
    # refused, one off by a fifth of it passes
    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_norm_guard_sits_at_its_bound(self, sign):
        with pytest.raises(ValueError, match="no longer normalized"):
            apply_rows(_off_norm(sign * 2 * ATOL_EXACT), PAULI[1], 0)
        assert apply_rows(_off_norm(sign * 0.2 * ATOL_EXACT), PAULI[1], 0).shape == (2, 4)


# ---------------------------------------------------------------------------
# inner products


class TestInnerProduct:
    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(2)
        a = random_state(2, rng)
        b = random_state(2, rng)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_fidelity_ignores_global_phase(self):
        state = make_bell(3)
        flipped = StateVector(2, -state.amplitudes)
        assert fidelity(state, flipped) == pytest.approx(1.0, abs=ATOL_EXACT)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state(1, 0), basis_state(2, 0))


# ---------------------------------------------------------------------------
# Bell measurement


def _bell_rows(source, m):
    """Rows on ``2 + m`` qubits: 9 random ones, the 4 committed Bell⊗ancilla
    rows, or the 32 rows of four 8-pair cheats after a Haar receiver."""
    rng = np.random.default_rng(m)
    if source == "random":
        return np.stack([random_state(2 + m, rng).amplitudes for _ in range(9)])
    if source == "bell":
        return np.concatenate([alice_commit(value, 1, m).states for value in COMMIT_VALUES])
    policy = BCPolicy.RANDOM_ENTANGLED if m else BCPolicy.RANDOM_LOCAL
    registers = []
    for value in COMMIT_VALUES:
        session = bc_apply_operations(alice_commit_cheating(8, m), policy, rng)
        alice_reveal_cheat(session, value)
        registers.append(session.states)
    return np.concatenate(registers)


class TestBellMeasurement:
    def test_prepared_bell_state_yields_its_label_with_certainty(self):
        for label in range(len(BELL)):
            state = make_bell(label)
            probs = bell_probabilities(state, (0, 1))
            assert probs[label] >= 1 - 1e-9
            for k in range(4):
                oracle = projector_probability_oracle(state, (0, 1), k)
                assert abs(probs[k] - oracle) <= ATOL_EXACT
            outcomes, sampled = measure_bell_pairs(state.amplitudes[None], np.random.default_rng(0).random(1))
            assert outcomes.tolist() == [label]
            assert np.array_equal(sampled[0], probs)

    def test_product_state_probabilities_match_projector_oracle(self):
        state = basis_state(2, 0)  # |00> overlaps two Bell states
        probs = bell_probabilities(state, (0, 1))
        assert np.abs(probs - np.array([0.5, 0.0, 0.5, 0.0])).max() <= ATOL_EXACT
        for k in range(len(BELL)):
            oracle = projector_probability_oracle(state, (0, 1), k)
            assert abs(probs[k] - oracle) <= ATOL_EXACT

    def test_sampling_respects_distribution_bins(self):
        # |00> splits evenly between labels (0,0) and (1,0); the inverse-CDF
        # walk visits labels 0 to 3 in order, so draws below 0.5 must
        # yield the first and draws above it the second
        state = basis_state(2, 0).amplitudes[None]
        outcomes = set()
        for seed in range(40):
            draw = np.random.default_rng(seed).random()
            (outcome,), _ = measure_bell_pairs(state, np.array([draw]))
            assert outcome == (0 if draw < 0.5 else 2)
            outcomes.add(outcome)
        assert outcomes == {0, 2}

    def test_draw_in_the_rounding_slack_yields_the_most_likely_label(self):
        amps = np.sqrt(0.3) * make_bell(1).amplitudes
        amps += np.sqrt(0.7) * make_bell(2).amplitudes
        amps *= np.sqrt(1 - 2e-14)  # the cumulative walk ends below the draw
        outcomes, probs = measure_bell_pairs(amps[None], np.array([0.9999999999999999]))
        assert np.cumsum(probs[0])[-1] < 0.9999999999999999
        assert outcomes.tolist() == [2]
        # in a stack, among rows whose walk passes the draw
        stack = np.stack([[amps, BELL[0], amps], [BELL[3], amps, amps]])
        outcomes, _ = measure_bell_pairs(stack, np.full((2, 3), 0.9999999999999999))
        assert outcomes.tolist() == [[2, 0, 2], [3, 2, 2]]

    @pytest.mark.parametrize("index", range(len(BELL)))
    def test_a_bell_row_yields_its_label_for_every_draw(self, index):
        # the premise of the receiver-free engine: one nonzero probability p,
        # and every uniform in [0, 1), from 0 up to the largest, measures its
        # label; draws from p on take the rounding slack to argmax
        probs = bell_pair_probabilities(BELL[index : index + 1])
        p = probs[0, index]
        assert np.flatnonzero(probs[0]).tolist() == [index]
        draws = [0.0, 2**-53, np.nextafter(p, 0), *([p] if p < 1 else []), 1 - 2**-53]
        rows = np.tile(BELL[index], (len(draws), 1))
        outcomes, measured = measure_bell_pairs(rows, np.array(draws))
        assert outcomes.tolist() == [index] * len(draws)
        assert measured.tobytes() == np.tile(probs, (len(draws), 1)).tobytes()

    @pytest.mark.parametrize("committer", ["honest", "cheat"])
    @pytest.mark.parametrize("value", COMMIT_VALUES, ids=lambda value: value.value)
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_every_receiver_free_register_has_one_outcome(self, m, value, committer):
        # the premise of the engine's certain path: each honest register and
        # each cheat flip, built through the protocol's steps, has exactly
        # one nonzero probability, with no BLAS residue off the label
        if committer == "honest":
            states = alice_commit(value, 1, m).states
        else:
            session = alice_commit_cheating(1, m)
            alice_reveal_cheat(session, value)
            states = session.states
        probs = bell_pair_probabilities(states)
        assert np.flatnonzero(probs).tolist() == [commit_label(value)]
        oracle = bell_probabilities(StateVector(2 + m, states[0]), (0, 1))
        assert oracle.tobytes() == probs[0].tobytes()

    @pytest.mark.parametrize("qubits", [2, 3, 4])
    def test_probabilities_equal_the_measured_ones_bytewise(self, qubits):
        rng = np.random.default_rng(qubits)
        states = np.stack([random_state(qubits, rng).amplitudes for _ in range(9)])
        probs = bell_pair_probabilities(states)
        assert probs.shape == (9, 4)
        _, measured = measure_bell_pairs(states, rng.random(9))
        assert probs.tobytes() == measured.tobytes()
        for row, state in zip(probs, states):
            assert np.abs(row - bell_probabilities(StateVector(qubits, state), (0, 1))).max() <= ATOL_EXACT

    # BELL is real, so contracting with it is contracting with its conjugate
    @pytest.mark.parametrize("source", ["random", "bell", "cheat"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_probabilities_equal_the_conjugate_table_contraction_bytewise(self, m, source):
        states = _bell_rows(source, m)
        amplitudes = np.einsum("lk,rka->rla", BELL.conj(), states.reshape(len(states), 4, -1))
        want = (np.abs(amplitudes) ** 2).sum(axis=2)
        assert bell_pair_probabilities(states).tobytes() == want.tobytes()
        for row, state in zip(want, states):
            assert bell_probabilities(StateVector(2 + m, state), (0, 1)).tobytes() == row.tobytes()

    def test_embedded_pair_with_offset(self):
        state = tensor(basis_state(1, 0), make_bell(1))
        probs = bell_probabilities(state, (1, 2))
        assert probs[1] >= 1 - 1e-9

    def test_reversed_pair_order(self):
        # every Bell state maps onto itself (up to phase) under qubit swap
        for label in range(len(BELL)):
            assert bell_probabilities(make_bell(label), (1, 0))[label] >= 1 - 1e-9

    # the rows' leading axes are only a shape: a (registers, trials, pairs)
    # stack measures as its rows do flattened, against the draws of one
    # register broadcast to every register, as the engine measures
    @pytest.mark.parametrize("source", ["random", "bell", "cheat"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_a_stack_measures_as_its_rows_flattened_bytewise(self, m, source):
        rows = _bell_rows(source, m)
        pairs = {"random": 3, "bell": 2, "cheat": 8}[source]
        stack = np.stack([rows, rows[::-1], np.roll(rows, 1, axis=0)]).reshape(3, -1, pairs, rows.shape[-1])
        draws = np.broadcast_to(np.random.default_rng(m).random(stack.shape[1:-1]), stack.shape[:-1])
        outcomes, probs = measure_bell_pairs(stack, draws)
        assert (outcomes.shape, probs.shape) == (stack.shape[:-1], (*stack.shape[:-1], 4))
        flat_outcomes, flat_probs = measure_bell_pairs(stack.reshape(-1, rows.shape[-1]), draws.reshape(-1))
        assert outcomes.reshape(-1).tobytes() == flat_outcomes.tobytes()
        assert probs.reshape(-1, 4).tobytes() == flat_probs.tobytes()
        assert bell_pair_probabilities(stack).tobytes() == probs.tobytes()

    # one row against several draws too: every draw needs its own row; a
    # stack's draws must have its leading shape, not another shape of as many
    # draws, such as (6,) for 2x3 rows, nor one that broadcasts, such as (2,)
    # for 3x2
    @pytest.mark.parametrize("count", [0, 2, 4, 6])
    @pytest.mark.parametrize("rows", [1, 3, (2, 3), (3, 2)])
    def test_one_draw_per_row_is_required(self, rows, count):
        leading = rows if isinstance(rows, tuple) else (rows,)
        states = np.broadcast_to(basis_state(2, 0).amplitudes, (*leading, 4))
        shown = "x".join(map(str, leading))
        with pytest.raises(ValueError, match=f"^expected one draw for each of {shown} rows, got"):
            measure_bell_pairs(states, np.full(count, 0.5))

    def test_invalid_pair(self):
        state = basis_state(2, 0)
        for pair in [(0, 0), (0, 2), (2, 0), (-1, 1)]:
            with pytest.raises(ValueError, match="invalid qubit pair"):
                bell_probabilities(state, pair)

    def test_pair_around_a_middle_qubit(self):
        # qubits 0 and 2 hold the Bell state, qubit 1 is |0>
        for index, row in enumerate(BELL):
            amplitudes = np.zeros(8, dtype=complex)
            amplitudes[[0b000, 0b001, 0b100, 0b101]] = row
            assert bell_probabilities(StateVector(3, amplitudes), (0, 2))[index] >= 1 - 1e-9

    @pytest.mark.parametrize("scale", [1.1, np.nan])
    def test_unnormalized_register_is_rejected(self, scale):
        states = np.stack([make_bell(0).amplitudes] * 2)
        states[1] *= scale
        with pytest.raises(ValueError):
            measure_bell_pairs(states, np.random.default_rng(0).random(2))
        with pytest.raises(ValueError, match="sum to"):
            bell_pair_probabilities(states)

    # the sum guard sits at ATOL_ACCUM: a row off by twice the bound is
    # refused, one off by a fifth of it passes
    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_sum_guard_sits_at_its_bound(self, sign):
        with pytest.raises(ValueError, match="sum to"):
            bell_pair_probabilities(_off_norm(sign * 2 * ATOL_ACCUM))
        assert bell_pair_probabilities(_off_norm(sign * 0.2 * ATOL_ACCUM)).shape == (2, 4)


# ---------------------------------------------------------------------------
# reduced density matrices


class TestReducedDensity:
    def test_bell_marginals_are_maximally_mixed(self):
        for label in range(len(BELL)):
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

    # a (registers, pairs, dim) stack gives each row's state with the bytes of a call on that row
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_stack_gives_each_rows_state_bytewise(self, n):
        rng = np.random.default_rng(n)
        stack = np.stack([[random_state(n, rng).amplitudes for _ in range(3)] for _ in range(2)])
        got = receiver_states(stack)
        assert got.shape == (2, 3, 2 ** (n - 1), 2 ** (n - 1))
        want = np.stack([[receiver_states(row[None])[0] for row in rows] for rows in stack])
        assert got.tobytes() == want.tobytes()

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
        rho = reduced_density(make_bell(0), (1,))
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
        # a 1x1 matrix would broadcast against any other
        with pytest.raises(ValueError):
            distance(np.ones((1, 1)), a)


class TestTraceDistanceStacks:
    # all against all, as hiding_report compares its views: (4, 1, d, d)
    # against (4, d, d) gives the (4, 4) table of a call per pair, bytewise
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_broadcast_stacks_equal_a_call_per_pair(self, n):
        rng = np.random.default_rng(59 + n)
        rhos = receiver_states(np.stack([random_state(n, rng).amplitudes for _ in range(4)]))
        got = trace_distances(rhos[:, None], rhos)
        want = np.array([[trace_distances(a[None], b[None])[0] for b in rhos] for a in rhos])
        assert got.shape == (4, 4)
        assert got.tobytes() == want.tobytes()
        assert np.diagonal(got).tolist() == [0.0] * 4


# ---------------------------------------------------------------------------
# property-based invariants


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pauli_on_first_qubit_commutes_with_other_qubit_unitaries(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    state = random_state(n, rng)
    op = int(rng.integers(0, 4))
    k = int(rng.integers(1, n))
    targets = tuple(int(t) for t in rng.choice(np.arange(1, n), size=k, replace=False))
    u = Unitary(random_unitaries(k, 1, rng)[0], targets)
    flip = Unitary(PAULI[op], (0,))
    a = apply_unitary(apply_unitary(state, flip), u)
    b = apply_unitary(apply_unitary(state, u), flip)
    assert np.abs(a.amplitudes - b.amplitudes).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operations_preserve_normalization(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    state = random_state(n, rng)
    state = apply_unitary(state, Unitary(PAULI[3], (int(rng.integers(0, n)),)))
    u = Unitary(random_unitaries(1, 1, rng)[0], (int(rng.integers(0, n)),))
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
