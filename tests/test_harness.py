import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bellcommit import harness, protocol, qcore, seeding
from bellcommit.harness import (
    AcceptanceMatrix,
    ConfigError,
    DetectionStats,
    ExperimentConfig,
    Strategy,
    acceptance_matrix,
    hiding_report,
    run_control_experiment,
    run_experiment,
    run_trial,
    selftest,
)
from bellcommit.protocol import (
    COMMIT_VALUES,
    BCPolicy,
    CommitValue,
    alice_commit,
    bc_apply_operations,
)
from bellcommit.qcore import StateVector, Unitary, receiver_states
from bellcommit.seeding import pcg64_uniforms
from reference import reduced_density, trace_distance
from test_acceptance import POLICY_GRID


def _config(**overrides):
    base = dict(
        strategy=Strategy.HONEST,
        commit_value=CommitValue.BIT0,
        reveal_value=CommitValue.BIT0,
        n_pairs=2,
        trials=25,
        bc_policy=BCPolicy.NONE,
        m_ancillas=0,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        _config().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_pairs=0),
            dict(trials=0),
            dict(m_ancillas=3),
            dict(m_ancillas=-1),
            dict(reveal_value=CommitValue.BIT1),  # honest mismatch
            dict(strategy=Strategy.CHEAT, commit_value=CommitValue.PLUS,
                 reveal_value=CommitValue.PLUS),  # cheat preparation is fixed
            dict(bc_policy=BCPolicy.RANDOM_ENTANGLED),  # needs ancillas
            dict(master_seed=-1),
            dict(master_seed=2**64),
            dict(tolerance=0.0),
            dict(tolerance=-1.0),
            dict(tolerance=1.0),
            dict(tolerance=float("inf")),
            dict(tolerance=float("nan")),
        ],
    )
    def test_rejects_inconsistent_combinations(self, overrides):
        with pytest.raises(ConfigError):
            _config(**overrides).validate()

    def test_cheat_may_reveal_anything(self):
        for value in COMMIT_VALUES:
            _config(strategy=Strategy.CHEAT, reveal_value=value).validate()


class TestRunTrial:
    def test_reproducible(self):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS,
                      bc_policy=BCPolicy.RANDOM_LOCAL)
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

    def test_validates_config(self):
        with pytest.raises(ConfigError):
            run_trial(_config(trials=0), 0)

    def test_honest_trial_accepts(self):
        assert run_trial(_config(), 0) is True


class TestRunExperiment:
    def test_honest_rate_is_one(self):
        stats = run_experiment(_config(bc_policy=BCPolicy.RANDOM_LOCAL))
        assert stats.trials == 25
        assert stats.accepts == 25
        assert stats.acceptance_rate == 1.0
        assert stats.min_outcome_probability >= 1 - 1e-9

    def test_cheat_rate_is_one(self):
        for value in COMMIT_VALUES:
            stats = run_experiment(
                _config(strategy=Strategy.CHEAT, reveal_value=value,
                        bc_policy=BCPolicy.RANDOM_ENTANGLED, m_ancillas=1)
            )
            assert stats.acceptance_rate == 1.0

    def test_outcomes_do_not_depend_on_trial_order(self):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.PLUS,
                      bc_policy=BCPolicy.RANDOM_LOCAL, trials=40)
        backwards = {i: harness._execute_trial(cfg, i) for i in reversed(range(cfg.trials))}
        assert [accept for accept, _ in backwards.values()] == [
            run_trial(cfg, i) for i in reversed(range(cfg.trials))
        ]
        stats = run_experiment(cfg)
        assert stats.accepts == sum(accept for accept, _ in backwards.values())
        assert stats.min_outcome_probability == min(p for _, p in backwards.values())

    def test_repeated_runs_are_identical(self):
        cfg = _config(bc_policy=BCPolicy.RANDOM_LOCAL)
        assert run_experiment(cfg) == run_experiment(cfg)


def _reference_stats(config):
    outcomes = [harness._execute_trial(config, i) for i in range(config.trials)]
    accepts = sum(accept for accept, _ in outcomes)
    return DetectionStats(
        trials=config.trials,
        accepts=accepts,
        acceptance_rate=accepts / config.trials,
        min_outcome_probability=min(p for _, p in outcomes),
    )


def _chunk_budget(config, per_chunk):
    """A ``_CHUNK_ENTRIES`` that gives ``per_chunk`` trials per chunk (1, 7 or all)."""
    width = protocol.op_width(config.bc_policy, config.m_ancillas)
    per_trial = config.n_pairs * (2 ** (2 + config.m_ancillas) + (4**width if width else 0))
    return {1: 1, 7: 7 * per_trial, "all": 2**40}[per_chunk]


def _recording(measured, measure):
    """``measure`` that also appends a copy of its states and draws to ``measured``."""
    def wrapper(states, draws):
        measured.append((states.copy(), draws.copy()))
        return measure(states, draws)
    return wrapper


def _counting(monkeypatch, *functions):
    """Wrap each ``(module, name)`` to count its calls, by name, in the returned dict."""
    calls = {}
    for module, name in functions:
        calls[name] = 0

        def wrapper(*args, name=name, function=getattr(module, name)):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def _register(cell):
    """What sets a matrix cell's register: its commit value and, for a cheat, its target."""
    config = cell.config
    return config.commit_value, config.reveal_value if config.strategy is Strategy.CHEAT else None


ENGINE_KINDS = {
    **{f"cheat-{value.value}": (Strategy.CHEAT, CommitValue.BIT0, value) for value in COMMIT_VALUES},
    "honest": (Strategy.HONEST, CommitValue.PLUS, CommitValue.PLUS),
    "control": (Strategy.HONEST, CommitValue.BIT1, CommitValue.MINUS),
}


class TestBatchedEngine:
    """``run_experiment`` against ``_execute_trial`` run trial by trial, bit for bit."""

    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    @pytest.mark.parametrize("n_pairs", [1, 3])
    @pytest.mark.parametrize("policy,m", POLICY_GRID)
    @pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
    def test_equals_the_reference_exactly(self, kind, policy, m, n_pairs, per_chunk, monkeypatch):
        strategy, commit, reveal = ENGINE_KINDS[kind]
        cfg = _config(strategy=strategy, commit_value=commit, reveal_value=reveal,
                      n_pairs=n_pairs, trials=17, bc_policy=policy, m_ancillas=m,
                      master_seed=2**64 - 1)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))

        # every state measured and every draw it is sampled from, on both paths
        measured = {"engine": [], "reference": []}
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _recording(measured["engine"], harness.measure_bell_pairs))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _recording(measured["reference"], protocol.measure_bell_pairs))
        want = _reference_stats(cfg)
        if kind == "control":
            got = run_control_experiment(cfg, commit, reveal)
        else:
            got = run_experiment(cfg)
        assert got == want  # accepts and min_outcome_probability compared with ==

        rows = [states.shape[0] for states, _ in measured["engine"]]
        chunk = cfg.trials if per_chunk == "all" else per_chunk
        assert rows == [n_pairs * min(chunk, cfg.trials - first)
                        for first in range(0, cfg.trials, chunk)]
        # bytes, not values: the flip commutes with the undo exactly, so only
        # the signs of zero amplitudes show the steps in the wrong order
        for position in (0, 1):
            engine = np.concatenate([record[position] for record in measured["engine"]])
            reference = np.concatenate([record[position] for record in measured["reference"]])
            assert engine.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    @pytest.mark.parametrize("policy,m", POLICY_GRID)
    def test_matrix_cells_equal_the_reference(self, policy, m, per_chunk, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, trials=9, master_seed=3)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))

        engine, reference = [], []
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _recording(engine, harness.measure_bell_pairs))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _recording(reference, protocol.measure_bell_pairs))
        cells = acceptance_matrix(cfg).cells
        # the engine measures chunk by chunk, every distinct register in
        # turn, in the order the cells first prepare it
        registers = list(dict.fromkeys(map(_register, cells)))
        assert len(registers) == 8
        for cell in cells:
            reference.clear()
            assert cell.stats == _reference_stats(cell.config)
            # each cell's states and draws must be its own reference's, bit for bit
            measured = engine[registers.index(_register(cell)) :: len(registers)]
            for position in (0, 1):
                got = np.concatenate([record[position] for record in measured])
                want = np.concatenate([record[position] for record in reference])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("policy,m", [(BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0),
                                          (BCPolicy.RANDOM_ENTANGLED, 1)])
    def test_matrix_measures_each_distinct_register_once(self, policy, m, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, trials=9)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        calls = _counting(monkeypatch, (harness, "measure_bell_pairs"), (harness, "apply_rows"))
        assert acceptance_matrix(cfg).passed()
        chunks = 2  # 9 trials, 7 to a chunk
        if policy is BCPolicy.NONE:
            # the four flipped registers are built once per run
            assert calls == {"measure_bell_pairs": 8 * chunks, "apply_rows": 4}
        else:
            # per chunk: eight applies, four flips, eight undos
            assert calls == {"measure_bell_pairs": 8 * chunks, "apply_rows": 20 * chunks}

    def test_matrix_draws_each_trial_once(self, monkeypatch):
        # all cells share each trial's generator and Haar draws
        calls = _counting(monkeypatch, (harness, "_trial_generator"), (qcore, "random_unitary"))
        matrix = acceptance_matrix(_config(bc_policy=BCPolicy.RANDOM_LOCAL, n_pairs=3, trials=11))
        assert matrix.passed()
        assert calls == {"_trial_generator": 11, "random_unitary": 33}

    def test_matrix_derives_each_trial_uniforms_once(self, monkeypatch):
        seen = []

        def recording(master_seed, indices, n):
            seen.extend(indices.tolist())
            return pcg64_uniforms(master_seed, indices, n)

        monkeypatch.setattr(harness, "pcg64_uniforms", recording)
        # more trials than one block of generator-free uniforms
        trials = 2 * harness._SEED_BLOCK + 5
        assert acceptance_matrix(_config(n_pairs=3, trials=trials)).passed()
        assert seen == list(range(trials))

    @pytest.mark.parametrize(
        "overrides",
        [dict(master_seed=8), dict(trials=26), dict(n_pairs=3),
         dict(bc_policy=BCPolicy.RANDOM_LOCAL), dict(m_ancillas=1), dict(tolerance=1e-6)],
    )
    def test_one_pass_needs_configs_that_share_their_draws(self, overrides):
        with pytest.raises(ValueError, match="agree"):
            harness._run_many(_config(), _config(**overrides))

    @pytest.mark.parametrize(
        "n_pairs,policy",
        [(1, BCPolicy.NONE), (8, BCPolicy.NONE), (2, BCPolicy.RANDOM_LOCAL)],
    )
    def test_memory_does_not_grow_with_trials(self, n_pairs, policy):
        def peak(trials):
            cfg = _config(n_pairs=n_pairs, trials=trials, bc_policy=policy)
            run_experiment(cfg)  # caches filled outside the measurement
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) <= 1.1 * peak(1000)

    @pytest.mark.parametrize("n_pairs,policy", [(8, BCPolicy.NONE), (2, BCPolicy.RANDOM_LOCAL)])
    def test_matrix_memory_does_not_grow_with_trials(self, n_pairs, policy):
        def peak(trials):
            cfg = _config(n_pairs=n_pairs, trials=trials, bc_policy=policy)
            acceptance_matrix(cfg)  # caches filled outside the measurement
            tracemalloc.start()
            try:
                acceptance_matrix(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) <= 1.1 * peak(1000)

    def test_a_changed_numpy_seeding_stops_the_run(self, monkeypatch):
        # the generator-free uniforms are built from these words; the Haar
        # policies draw from NumPy's own generator and need no such check
        words = seeding.pcg64_words

        def off_by_one(master_seed, indices):
            state_hi, state_lo, inc_hi, inc_lo = words(master_seed, indices)
            return state_hi, state_lo + np.uint64(1), inc_hi, inc_lo

        monkeypatch.setattr(seeding, "pcg64_words", off_by_one)
        with pytest.raises(RuntimeError, match="seeding"):
            run_experiment(_config(bc_policy=BCPolicy.NONE))


class TestSeeding:
    # carries out of the low word happen in the seeding and in every step
    INDICES = [0, 1, 2, 255, 256, 12345, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 7, 2**63, 2**64 - 1]

    # the last n spans more than one jump of _JUMP_SPAN steps
    @pytest.mark.parametrize("n", [1, 3, 8, 2 * seeding._JUMP_SPAN + 3])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_uniforms_match_numpy_generator_draws(self, seed, n):
        indices = self.INDICES + np.random.default_rng(seed % 97).integers(
            0, 2**64, 40, dtype=np.uint64, endpoint=False
        ).tolist()
        got = pcg64_uniforms(seed, np.array(indices, dtype=np.uint64), n)
        want = np.stack([
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i)))).random(n)
            for i in indices
        ])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_words_match_numpy_seeded_state(self, seed):
        # a broken hash step fails here, at the words, not only at the uniforms
        words = seeding.pcg64_words(seed, np.array(self.INDICES, dtype=np.uint64))
        for k, i in enumerate(self.INDICES):
            state = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
            halves = [state[key] >> shift & 0xFFFFFFFFFFFFFFFF
                      for key in ("state", "inc") for shift in (64, 0)]
            assert [int(word[k]) for word in words] == halves


class TestControlExperiment:
    def test_mismatched_announcement_always_rejected(self):
        stats = run_control_experiment(_config(), CommitValue.BIT0, CommitValue.PLUS)
        assert stats.acceptance_rate == 0.0
        assert stats.accepts == 0

    def test_rejects_matching_announcement(self):
        with pytest.raises(ConfigError):
            run_control_experiment(_config(), CommitValue.BIT0, CommitValue.BIT0)

    def test_control_with_receiver_operations(self):
        cfg = _config(bc_policy=BCPolicy.RANDOM_LOCAL, trials=30)
        stats = run_control_experiment(cfg, CommitValue.MINUS, CommitValue.BIT1)
        assert stats.acceptance_rate == 0.0


class TestAcceptanceMatrix:
    def test_small_matrix_matches_predictions(self):
        matrix = acceptance_matrix(_config(trials=10))
        assert matrix.rates("cheat") == [1.0, 1.0, 1.0, 1.0]
        grid = matrix.grid_rates()
        for i in range(4):
            for j in range(4):
                assert grid[i][j] == (1.0 if i == j else 0.0)
        assert matrix.passed()

    def test_passed_flags_a_bad_cell(self):
        matrix = acceptance_matrix(_config(trials=5))
        bad = DetectionStats(trials=5, accepts=4, acceptance_rate=0.8,
                             min_outcome_probability=0.5)
        cells = list(matrix.cells)
        cells[2] = replace(cells[2], stats=bad)  # the cheat cell revealing plus
        doctored = AcceptanceMatrix(tuple(cells))
        assert not doctored.passed()

    def test_passed_flags_an_accepting_control(self):
        matrix = acceptance_matrix(_config(trials=5))
        cells = list(matrix.cells)
        kinds = [cell.kind for cell in cells]
        assert kinds == ["cheat"] * 4 + ["honest"] * 4 + ["control"] * 12
        one_accept = DetectionStats(trials=5, accepts=1, acceptance_rate=0.2,
                                    min_outcome_probability=0.0)
        cells[-1] = replace(cells[-1], stats=one_accept)
        assert not AcceptanceMatrix(tuple(cells)).passed()

    def test_passed_checks_outcome_probabilities(self):
        matrix = acceptance_matrix(_config(trials=5))
        sloppy = DetectionStats(trials=5, accepts=5, acceptance_rate=1.0,
                                min_outcome_probability=0.99)
        cells = list(matrix.cells)
        cells[0] = replace(cells[0], stats=sloppy)
        doctored = AcceptanceMatrix(tuple(cells))
        assert not doctored.passed(tolerance=1e-9)
        assert doctored.passed(tolerance=0.5)


class TestHidingReport:
    @pytest.mark.parametrize(
        "policy,m",
        [(BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 2)],
    )
    def test_distances_below_threshold(self, policy, m):
        report = hiding_report(_config(bc_policy=policy, m_ancillas=m))
        assert report.passed
        assert report.max_distance <= report.threshold
        for i in range(4):
            assert report.distances[i][i] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("n_pairs", [1, 3])
    @pytest.mark.parametrize(
        "policy,m",
        [
            (BCPolicy.NONE, 0),
            (BCPolicy.RANDOM_LOCAL, 0),
            (BCPolicy.RANDOM_LOCAL, 2),
            (BCPolicy.RANDOM_ENTANGLED, 1),
            (BCPolicy.RANDOM_ENTANGLED, 2),
        ],
    )
    def test_equals_the_per_row_reference_exactly(self, policy, m, n_pairs, seed):
        # the array path against one StateVector per row, bit for bit
        n = 2 + m
        reduced = []
        for value in COMMIT_VALUES:
            session = alice_commit(value, n_pairs, m)
            bc_apply_operations(session, policy, harness._trial_generator(seed, 0))
            want = [reduced_density(StateVector(n, row), range(1, n)) for row in session.states]
            assert np.array_equal(receiver_states(session.states), np.stack(want))
            reduced.append(want)
        distances = tuple(
            tuple(max(trace_distance(x, y) for x, y in zip(a, b)) for b in reduced)
            for a in reduced
        )
        config = _config(bc_policy=policy, m_ancillas=m, n_pairs=n_pairs, master_seed=seed)
        assert hiding_report(config).distances == distances

    def test_draws_the_receiver_unitaries_once(self, monkeypatch):
        # all four commit values share one draw of trial 0's unitaries
        calls = _counting(monkeypatch, (harness, "_trial_generator"), (qcore, "random_unitary"))
        assert hiding_report(_config(n_pairs=5, bc_policy=BCPolicy.RANDOM_LOCAL, master_seed=0)).passed
        assert calls == {"_trial_generator": 1, "random_unitary": 5}

    def test_no_register_outlives_the_report(self):
        # sessions share one cached row per value, not a cached register
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hiding_report(_config(n_pairs=20000, m_ancillas=2))
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= 2**20

    def test_table_is_symmetric(self):
        report = hiding_report(_config(bc_policy=BCPolicy.RANDOM_LOCAL))
        for i in range(4):
            for j in range(4):
                assert report.distances[i][j] == pytest.approx(
                    report.distances[j][i], abs=1e-15
                )


class TestSelftest:
    def test_all_checks_pass(self):
        results = selftest(master_seed=3)
        assert results
        failures = [check.name for check in results if not check.passed]
        assert failures == []

    def test_check_names_are_unique(self):
        names = [check.name for check in selftest(master_seed=1)]
        assert len(names) == len(set(names))


class TestNoOracleObjects:
    @pytest.mark.parametrize(
        "work",
        [
            lambda: run_experiment(
                _config(
                    strategy=Strategy.CHEAT,
                    reveal_value=CommitValue.MINUS,
                    n_pairs=2,
                    trials=20,
                    bc_policy=BCPolicy.RANDOM_ENTANGLED,
                    m_ancillas=1,
                )
            ),
            selftest,
        ],
        ids=["cheat-random-entangled", "selftest"],
    )
    def test_production_paths_build_no_oracle_object(self, work, monkeypatch):
        built = []
        for cls in (StateVector, Unitary):

            def counting(self, validate=cls.__post_init__):
                built.append(type(self).__name__)
                validate(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        work()
        assert built == []


class TestStrategy:
    def test_round_trip_from_strings(self):
        assert Strategy("cheat") is Strategy.CHEAT
