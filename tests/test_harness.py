from dataclasses import replace

import numpy as np
import pytest

from bellcommit import harness
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
from bellcommit.qcore import StateVector, receiver_states
from reference import reduced_density, trace_distance


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

    def test_outcomes_do_not_depend_on_trial_order(self, monkeypatch):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.PLUS,
                      bc_policy=BCPolicy.RANDOM_LOCAL, trials=40)
        execute = harness._execute_trial
        seen = {}

        def recording(config, index):
            seen[index] = execute(config, index)
            return seen[index]

        monkeypatch.setattr(harness, "_execute_trial", recording)
        stats = run_experiment(cfg)
        run_outcomes = dict(seen)
        backwards = {i: execute(cfg, i) for i in reversed(range(cfg.trials))}
        assert run_outcomes == backwards
        assert [accept for accept, _ in backwards.values()] == [
            run_trial(cfg, i) for i in reversed(range(cfg.trials))
        ]
        assert stats.accepts == sum(accept for accept, _ in backwards.values())
        assert stats.min_outcome_probability == min(p for _, p in backwards.values())

    def test_repeated_runs_are_identical(self):
        cfg = _config(bc_policy=BCPolicy.RANDOM_LOCAL)
        assert run_experiment(cfg) == run_experiment(cfg)


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


class TestOutputFormatEnum:
    def test_round_trip_from_strings(self):
        assert Strategy("cheat") is Strategy.CHEAT
