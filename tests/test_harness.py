import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bellcommit import cli, harness, protocol, qcore
from bellcommit.attack import alice_commit_cheating, alice_reveal_cheat
from bellcommit.harness import (
    AcceptanceMatrix,
    ConfigError,
    DetectionStats,
    ExperimentConfig,
    Strategy,
    acceptance_matrix,
    hiding_report,
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
from bellcommit.qcore import PauliOp, StateVector, Unitary, receiver_states
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
        _config()

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
            dict(strategy=Strategy.CONTROL),  # a control announcing its commit
        ],
    )
    def test_rejects_inconsistent_combinations(self, overrides):
        with pytest.raises(ConfigError):
            _config(**overrides)

    @pytest.mark.parametrize("field", ["n_pairs", "trials"])
    def test_counts_of_2_63_or_more_overflow(self, field):
        with pytest.raises(OverflowError, match=r"^pairs and trials must each be below 2\*\*63$"):
            _config(**{field: 2**63})

    def test_cheat_may_reveal_anything(self):
        for value in COMMIT_VALUES:
            _config(strategy=Strategy.CHEAT, reveal_value=value)


class TestRunTrial:
    def test_reproducible(self):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS,
                      bc_policy=BCPolicy.RANDOM_LOCAL)
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

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
    """A ``_CHUNK_ENTRIES`` that gives ``per_chunk`` trials per chunk (1, 7 or all).

    Only a run with receiver operations is chunked.
    """
    n = config.n_pairs
    width = protocol.op_width(config.bc_policy, config.m_ancillas)
    per_trial = n * (2 ** (2 + config.m_ancillas) + 4**width)
    return {1: 1, 7: 7 * per_trial, "all": 2**40}[per_chunk]


def _recording(measured, measure):
    """``measure`` that also appends a copy of its states, draws and outcomes to ``measured``."""
    def wrapper(states, draws):
        outcomes, probs = measure(states, draws)
        measured.append((states.copy(), draws.copy(), outcomes.copy()))
        return outcomes, probs
    return wrapper


def _is_certain(*configs):
    """Whether the engine runs ``configs`` without draws, by the engine's own rule.

    Without receiver operations, each register the configs prepare must have
    exactly one nonzero Bell outcome probability. The registers are built here
    through the protocol's own steps. The probability kernel calls no BLAS, so
    this holds for every receiver-free register, with or without ancillas, on
    every BLAS kernel.
    """
    if any(config.bc_policy is not BCPolicy.NONE for config in configs):
        return False
    for config in configs:
        if config.strategy is Strategy.CHEAT:
            session = alice_commit_cheating(1, config.m_ancillas)
            alice_reveal_cheat(session, config.reveal_value)
        else:
            session = alice_commit(config.commit_value, 1, config.m_ancillas)
        if (qcore.bell_pair_probabilities(session.states) != 0).sum() != 1:
            return False
    return True


def _assert_certain(measured):
    """Every recorded state has one nonzero outcome probability, at the label it measured."""
    assert measured
    for states, _, outcomes in measured:
        probs = qcore.bell_pair_probabilities(states)
        assert ((probs != 0).sum(axis=1) == 1).all()
        assert probs.argmax(axis=1).tolist() == outcomes.tolist()


def _force_a_residue(monkeypatch):
    """Add a 5e-34 residue at one zero label of each row of the engine's certainty check.

    A BLAS gemm can leave such a residue at a label that should be 0; the
    engine's probability kernel calls no BLAS, so only this makes a
    receiver-free register uncertain.
    """
    probabilities = harness.bell_pair_probabilities

    def with_residue(states):
        probs = probabilities(states)
        probs[np.arange(probs.shape[0]), (probs == 0).argmax(axis=1)] += 5e-34
        return probs

    monkeypatch.setattr(harness, "bell_pair_probabilities", with_residue)


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
    "control": (Strategy.CONTROL, CommitValue.BIT1, CommitValue.MINUS),
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
        # the engine's draws alone: the reference has made its own
        draws = _counting(monkeypatch, (harness, "_trial_generator"))
        assert run_experiment(cfg) == want  # accepts and min_outcome_probability compared with ==

        if policy is BCPolicy.NONE:
            # the engine measures nothing: a certain run makes no draws, and
            # any other runs the reference, one generator per trial
            certain = _is_certain(cfg)
            assert draws == {"_trial_generator": 0 if certain else cfg.trials}
            assert measured["engine"] == []
            if certain:
                # the reference's outcomes could not have been others
                _assert_certain(measured["reference"])
            return
        rows = [states.shape[0] for states, *_ in measured["engine"]]
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
        draws = _counting(monkeypatch, (harness, "_trial_generator"))
        cells = acceptance_matrix(cfg).cells
        receiver_free = policy is BCPolicy.NONE
        certain = _is_certain(*(cell.config for cell in cells))
        if receiver_free:
            # the engine measures nothing: a certain run makes no draws, and
            # any other runs the reference, one generator per trial and cell
            assert draws == {"_trial_generator": 0 if certain else len(cells) * cfg.trials}
            assert engine == []
        # the engine measures chunk by chunk, every distinct register in
        # turn, in the order the cells first prepare it
        registers = list(dict.fromkeys(map(_register, cells)))
        assert len(registers) == 8
        for cell in cells:
            reference.clear()
            assert cell.stats == _reference_stats(cell.config)
            if receiver_free:
                if certain:
                    _assert_certain(reference)
                continue
            # each cell's states and draws must be its own reference's, bit for bit
            measured = engine[registers.index(_register(cell)) :: len(registers)]
            for position in (0, 1):
                got = np.concatenate([record[position] for record in measured])
                want = np.concatenate([record[position] for record in reference])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("policy,m", [(BCPolicy.NONE, 0), (BCPolicy.NONE, 1),
                                          (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 1)])
    def test_matrix_measures_each_distinct_register_once(self, policy, m, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, trials=9)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        calls = _counting(monkeypatch, (harness, "measure_bell_pairs"), (harness, "apply_rows"),
                          (harness, "_trial_generator"))
        matrix = acceptance_matrix(cfg)
        assert matrix.passed()
        chunks = 2  # 9 trials, 7 to a chunk
        if policy is BCPolicy.NONE:
            # the four flipped registers are built once per run, and their
            # certain outcomes need no draw and no measurement; were they not
            # certain, each of the 20 cells would run the reference
            draws = 0 if _is_certain(*(cell.config for cell in matrix.cells)) else 20 * cfg.trials
            assert calls == {"measure_bell_pairs": 0, "apply_rows": 4, "_trial_generator": draws}
        else:
            # per chunk: eight applies, four flips, eight undos
            assert calls == {"measure_bell_pairs": 8 * chunks, "apply_rows": 20 * chunks,
                             "_trial_generator": cfg.trials}

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_an_uncertain_receiver_free_matrix_runs_the_reference(self, m, monkeypatch):
        _force_a_residue(monkeypatch)
        cfg = _config(m_ancillas=m, trials=9)
        calls = _counting(monkeypatch, (harness, "measure_bell_pairs"), (harness, "_execute_trial"))
        matrix = acceptance_matrix(cfg)
        assert calls == {"measure_bell_pairs": 0, "_execute_trial": 20 * cfg.trials}
        assert matrix.passed()
        for cell in matrix.cells:
            assert cell.stats == _reference_stats(cell.config)

    def test_an_uncertain_receiver_free_run_keeps_memory_flat(self, monkeypatch):
        _force_a_residue(monkeypatch)

        # the reference runs one trial at a time, so fewer trials than above;
        # many pairs make each trial's arrays outweigh the allocator's noise
        def peak(trials):
            cfg = _config(n_pairs=256, trials=trials, m_ancillas=2)
            run_experiment(cfg)  # caches filled outside the measurement
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 1.1 * peak(125)

    # SeedSequence hashes a seed below 2**32 as one word and a larger one as two
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_draws_equal_the_reference_at_every_seed_width(self, seed, monkeypatch):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS, trials=9,
                      bc_policy=BCPolicy.RANDOM_ENTANGLED, m_ancillas=1, master_seed=seed)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        engine, reference = [], []
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _recording(engine, harness.measure_bell_pairs))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _recording(reference, protocol.measure_bell_pairs))
        assert run_experiment(cfg) == _reference_stats(cfg)
        for position in (0, 1):
            got = np.concatenate([record[position] for record in engine])
            want = np.concatenate([record[position] for record in reference])
            assert got.tobytes() == want.tobytes()

    def test_matrix_draws_each_trial_once(self, monkeypatch):
        # all cells share each trial's generator and Haar draws
        calls = _counting(monkeypatch, (harness, "_trial_generator"), (qcore, "random_unitary"))
        matrix = acceptance_matrix(_config(bc_policy=BCPolicy.RANDOM_LOCAL, n_pairs=3, trials=11))
        assert matrix.passed()
        assert calls == {"_trial_generator": 11, "random_unitary": 33}

    @pytest.mark.parametrize(
        "overrides",
        [dict(master_seed=8), dict(trials=26), dict(n_pairs=3),
         dict(bc_policy=BCPolicy.RANDOM_LOCAL), dict(m_ancillas=1), dict(tolerance=1e-6)],
    )
    def test_one_pass_needs_configs_that_share_their_draws(self, overrides):
        with pytest.raises(ValueError, match="agree"):
            harness._run_many(_config(), _config(**overrides))

    # the none cases guard the certain path: at 2.5 KB peaks one float per trial fails them
    @pytest.mark.parametrize(
        "n_pairs,policy,m",
        [(1, BCPolicy.NONE, 0), (8, BCPolicy.NONE, 0), (1, BCPolicy.NONE, 1), (8, BCPolicy.NONE, 1),
         (2, BCPolicy.RANDOM_LOCAL, 0)],
    )
    def test_memory_does_not_grow_with_trials(self, n_pairs, policy, m):
        def peak(trials):
            cfg = _config(n_pairs=n_pairs, trials=trials, bc_policy=policy, m_ancillas=m)
            run_experiment(cfg)  # caches filled outside the measurement
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) <= 1.1 * peak(1000)

    # the none cases guard the certain path: at 11 KB peaks one float per trial fails them
    @pytest.mark.parametrize(
        "n_pairs,policy,m",
        [(8, BCPolicy.NONE, 0), (8, BCPolicy.NONE, 1), (2, BCPolicy.RANDOM_LOCAL, 0)],
    )
    def test_matrix_memory_does_not_grow_with_trials(self, n_pairs, policy, m):
        def peak(trials):
            cfg = _config(n_pairs=n_pairs, trials=trials, bc_policy=policy, m_ancillas=m)
            acceptance_matrix(cfg)  # caches filled outside the measurement
            tracemalloc.start()
            try:
                acceptance_matrix(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) <= 1.1 * peak(1000)


class TestAcceptanceMatrix:
    def test_small_matrix_matches_predictions(self):
        matrix = acceptance_matrix(_config(trials=10))
        assert matrix.rates(Strategy.CHEAT) == [1.0, 1.0, 1.0, 1.0]
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
        kinds = [cell.config.strategy for cell in cells]
        assert kinds == [Strategy.CHEAT] * 4 + [Strategy.HONEST] * 4 + [Strategy.CONTROL] * 12
        one_accept = DetectionStats(trials=5, accepts=1, acceptance_rate=0.2,
                                    min_outcome_probability=0.0)
        cells[-1] = replace(cells[-1], stats=one_accept)
        assert not AcceptanceMatrix(tuple(cells)).passed()

    def test_cells_are_built_from_the_base_alone(self):
        base = _config(bc_policy=BCPolicy.RANDOM_LOCAL, trials=9)
        matrix = acceptance_matrix(base)
        # a cheat base revealing minus has no valid honest copy: each cell comes from the base
        cheat = replace(base, strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS)
        assert acceptance_matrix(cheat).cells == matrix.cells
        # a control run alone gives the stats it has in the matrix
        controls = [cell for cell in matrix.cells if cell.config.strategy is Strategy.CONTROL]
        assert len(controls) == 12
        for cell in controls:
            assert run_experiment(cell.config) == cell.stats

    def test_passed_checks_outcome_probabilities(self):
        matrix = acceptance_matrix(_config(trials=5))
        sloppy = DetectionStats(trials=5, accepts=5, acceptance_rate=1.0,
                                min_outcome_probability=0.99)
        cells = list(matrix.cells)
        cells[0] = replace(cells[0], stats=sloppy)
        assert not AcceptanceMatrix(tuple(cells)).passed()
        # each cell is judged at its own config's tolerance
        cells[0] = replace(cells[0], config=replace(cells[0].config, tolerance=0.5))
        assert AcceptanceMatrix(tuple(cells)).passed()


class TestHidingReport:
    @pytest.mark.parametrize(
        "policy,m",
        [(BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 2)],
    )
    def test_distances_below_threshold(self, policy, m):
        report = hiding_report(_config(bc_policy=policy, m_ancillas=m))
        assert report.passed
        assert report.max_distance <= harness.HIDING_THRESHOLD
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

    def test_a_broken_flip_fails_exactly_its_checks(self, monkeypatch):
        monkeypatch.setattr(harness, "pauli_for_flip", lambda src, dst: PauliOp.IDENTITY)
        failures = {check.name for check in selftest() if not check.passed}
        assert failures == {"cheat-undetectability", "flip-chooser"}
        assert cli.main(["selftest"]) == 1

    def test_reads_one_acceptance_matrix_per_policy(self, monkeypatch):
        calls = _counting(monkeypatch, (harness, "_run_many"))
        selftest()
        assert calls == {"_run_many": 3}


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
            lambda: acceptance_matrix(_config()),
            lambda: acceptance_matrix(_config(m_ancillas=1)),
            selftest,
        ],
        ids=["cheat-random-entangled", "matrix-certain", "matrix-none-ancilla", "selftest"],
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
