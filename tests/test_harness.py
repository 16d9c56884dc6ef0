import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from bellcommit import cli, harness, protocol, qcore
from bellcommit.attack import alice_commit_cheating, alice_reveal_cheat
from bellcommit.harness import (
    Cell,
    CheckResult,
    ConfigError,
    ExperimentConfig,
    HidingReport,
    Strategy,
    acceptance_matrix,
    hiding_report,
    run_experiment,
    run_trial,
    selftest,
)
from bellcommit.protocol import (
    COMMIT_VALUES,
    MAX_ANCILLAS,
    BCPolicy,
    CommitValue,
    alice_commit,
    bc_apply_operations,
    commit_label,
)
from bellcommit.qcore import ATOL_ACCUM, ATOL_EXACT, StateVector, Unitary, receiver_states
from reference import reduced_density, trace_distance
from test_acceptance import POLICY_GRID
from test_cli import _child_env
from test_qcore import _off_unitarity

HAAR_GRID = [(policy, m) for policy, m in POLICY_GRID if policy is not BCPolicy.NONE]


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


# a config is checked when it is built, and a result is what was computed,
# so neither can be changed afterwards
@pytest.mark.parametrize(
    "value",
    [_config(), Cell(_config(), 1, 1.0), HidingReport(((0.0,),)), CheckResult("check", True)],
    ids=lambda value: type(value).__name__,
)
def test_configs_and_results_are_frozen(value):
    with pytest.raises(FrozenInstanceError):
        setattr(value, fields(value)[0].name, None)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        _config()

    def test_defaults_are_the_documented_ones(self):
        # README's flag table; a subcommand passes every flag it takes
        assert ExperimentConfig(Strategy.HONEST) == ExperimentConfig(
            Strategy.HONEST, CommitValue.BIT0, CommitValue.BIT0, n_pairs=8, trials=1000,
            bc_policy=BCPolicy.NONE, m_ancillas=0, master_seed=0,
        )
        assert harness.OUTCOME_TOLERANCE == 1e-9

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
            dict(strategy=Strategy.CONTROL),  # a control announcing its commit
            # a string equals no member: each would silently pass or miss a rule below
            dict(strategy="cheat", reveal_value=CommitValue.MINUS),
            dict(strategy="honest"),
            dict(commit_value="bit0"),
            dict(reveal_value="bit0"),
            dict(bc_policy="none", m_ancillas=1),
            dict(bc_policy="random-local"),
        ],
    )
    def test_rejects_inconsistent_combinations(self, overrides):
        with pytest.raises(ConfigError):
            _config(**overrides)

    # the enum check runs first, so it is what a string field reports
    @pytest.mark.parametrize("field", ["strategy", "commit_value", "reveal_value", "bc_policy"])
    def test_an_enum_field_must_be_a_member(self, field):
        value = getattr(_config(), field).value
        with pytest.raises(ConfigError, match=f"^{field} must be a \\w+, got '{value}'$"):
            _config(n_pairs=0, **{field: value})

    # the verdict slack is the module's OUTCOME_TOLERANCE, not a setting
    @pytest.mark.parametrize(
        "build",
        [lambda: _config(tolerance=1e-9), lambda: selftest(tolerance=1e-9)],
        ids=["config", "selftest"],
    )
    def test_the_tolerance_is_no_setting(self, build):
        with pytest.raises(TypeError, match="tolerance"):
            build()

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
        cell = run_experiment(_config(bc_policy=BCPolicy.RANDOM_LOCAL))
        assert cell.config.trials == 25
        assert cell.accepts == 25
        assert cell.acceptance_rate == 1.0
        assert cell.min_outcome_probability >= 1 - 1e-9

    def test_cheat_rate_is_one(self):
        for value in COMMIT_VALUES:
            cell = run_experiment(
                _config(strategy=Strategy.CHEAT, reveal_value=value,
                        bc_policy=BCPolicy.RANDOM_ENTANGLED, m_ancillas=1)
            )
            assert cell.acceptance_rate == 1.0

    def test_outcomes_do_not_depend_on_trial_order(self):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.PLUS,
                      bc_policy=BCPolicy.RANDOM_LOCAL, trials=40)
        backwards = {i: harness._execute_trial(cfg, i) for i in reversed(range(cfg.trials))}
        assert [accept for accept, _ in backwards.values()] == [
            run_trial(cfg, i) for i in reversed(range(cfg.trials))
        ]
        cell = run_experiment(cfg)
        assert cell.accepts == sum(accept for accept, _ in backwards.values())
        assert cell.min_outcome_probability == min(p for _, p in backwards.values())

    def test_repeated_runs_are_identical(self):
        cfg = _config(bc_policy=BCPolicy.RANDOM_LOCAL)
        assert run_experiment(cfg) == run_experiment(cfg)


def _reference_cell(config):
    outcomes = [harness._execute_trial(config, i) for i in range(config.trials)]
    return Cell(config, sum(accept for accept, _ in outcomes), min(p for _, p in outcomes))


def _per_trial(config):
    """The chunk budget's entries per trial: each pair's row and receiver unitary."""
    width = protocol.op_width(config.bc_policy, config.m_ancillas)
    return config.n_pairs * (2 ** (2 + config.m_ancillas) + 4**width)


def _chunk_budget(config, per_chunk):
    """A ``_CHUNK_ENTRIES`` that gives ``per_chunk`` trials per chunk (1, 7 or all).

    Every run but a certain receiver-free one is chunked.
    """
    return {1: 1, 7: 7 * _per_trial(config), "all": 2**40}[per_chunk]


def _traced_peak(run, config):
    """The traced memory peak of ``run(config)``, with caches filled by a first, untraced call."""
    run(config)
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _recording(measured, measure, registers=1):
    """``measure`` that also appends a copy of its states, draws and outcomes to ``measured[register]``.

    A call measures whole registers, one block of rows after another once its
    leading axes are flattened: the reference one register a call, the engine
    ``registers`` a call. So each register's records hold its own states and
    draws however the engine batches and shapes them.
    """
    def wrapper(states, draws):
        outcomes, probs = measure(states, draws)
        rows = (states.reshape(-1, states.shape[-1]), draws.reshape(-1), outcomes.reshape(-1))
        blocks = zip(*(np.split(array, registers) for array in rows))
        for register, block in enumerate(blocks):
            measured.setdefault(register, []).append(tuple(array.copy() for array in block))
        return outcomes, probs
    return wrapper


def _joined(records, position):
    """The bytes of one field of ``records``, states (0) or draws (1), in the order measured."""
    return np.concatenate([record[position] for record in records]).tobytes()


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
    for states, _, outcomes in measured[0]:
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


def _mix_rows(monkeypatch):
    """Commit each label as 0.8 of its Bell row plus 0.6 of the row with ``u_j`` flipped.

    Every pair of such a register measures two labels, with probabilities
    0.64 and 0.36, so a receiver-free run of it is uncertain on any kernel,
    and a cell can accept some of its trials and reject others.
    """
    initial_row = protocol._initial_row

    def mixed(label, m_ancillas):
        # label 2*u_i + u_j, so u_j is its last bit
        row = 0.8 * initial_row(label, m_ancillas) + 0.6 * initial_row(label ^ 1, m_ancillas)
        row.setflags(write=False)
        return row

    monkeypatch.setattr(protocol, "_initial_row", mixed)


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


# the engine's work, by unit, however it batches: rows measured, rows
# applied, Haar matrices drawn, generators built and trials run step by step
_WORK = {
    "measure_bell_pairs": ("measured", lambda args, result: args[1].size),
    "apply_rows": ("applied", lambda args, result: result.size // result.shape[-1]),
    "random_unitaries": ("drawn", lambda args, result: len(result)),
    "_trial_generator": ("generators", lambda args, result: 1),
    "_execute_trial": ("stepwise", lambda args, result: 1),
}


def _work(monkeypatch, *modules):
    """Count, by unit, the work of each ``_WORK`` function that ``modules`` (default: harness) call."""
    work = dict.fromkeys([unit for unit, _ in _WORK.values()], 0)
    for module in modules or (harness,):
        for name, (unit, amount) in _WORK.items():
            if hasattr(module, name):

                def wrapper(*args, unit=unit, amount=amount, function=getattr(module, name)):
                    result = function(*args)
                    work[unit] += amount(args, result)
                    return result

                monkeypatch.setattr(module, name, wrapper)
    return work


def _one_pair_off(measure, n_pairs):
    """``measure`` whose outcomes name the next label at the last pair of every trial.

    Both callers measure trial by trial, pair by pair, once the leading axes
    are flattened: the reference one trial's pairs per call, the engine a
    chunk of whole trials per register. So every trial measures at least two
    labels, and the verifier must reject it.
    """
    def wrapper(states, draws):
        outcomes, probs = measure(states, draws)
        flat = outcomes.reshape(-1).copy()
        flat[n_pairs - 1 :: n_pairs] = (flat[n_pairs - 1 :: n_pairs] + 1) % len(qcore.BELL)
        return flat.reshape(outcomes.shape), probs
    return wrapper


def _register(cell):
    """What sets a matrix cell's register: its commit value and, for a cheat, its target."""
    config = cell.config
    return config.commit_value, config.reveal_value if config.strategy is Strategy.CHEAT else None


def _passes(experiment, cfg):
    """Whether ``cfg``'s acceptance matrix, or its cheat or honest run, passes."""
    if experiment == "matrix":
        return all(cell.passed() for cell in acceptance_matrix(cfg))
    strategy = Strategy.CHEAT if experiment == "cheat" else Strategy.HONEST
    return run_experiment(replace(cfg, strategy=strategy)).acceptance_rate == 1.0


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
        measured = {"engine": {}, "reference": {}}
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _recording(measured["engine"], harness.measure_bell_pairs))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _recording(measured["reference"], protocol.measure_bell_pairs))
        want = _reference_cell(cfg)
        # the engine's work alone: the reference has done its own
        work = _work(monkeypatch)
        assert run_experiment(cfg) == want  # accepts and min_outcome_probability compared with ==

        if _is_certain(cfg):
            # a certain run measures nothing and makes no draws, and the
            # reference's outcomes could not have been others
            assert (work["generators"], work["measured"]) == (0, 0)
            assert measured["engine"] == {}
            _assert_certain(measured["reference"])
            return
        # every pair of every trial, once
        assert work["measured"] == n_pairs * cfg.trials
        # bytes, not values: the flip commutes with the undo exactly, so only
        # the signs of zero amplitudes show the steps in the wrong order
        for position in (0, 1):
            assert _joined(measured["engine"][0], position) == _joined(measured["reference"][0], position)

    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    @pytest.mark.parametrize("policy,m", POLICY_GRID)
    def test_matrix_cells_equal_the_reference(self, policy, m, per_chunk, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, trials=9, master_seed=3)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))

        # the engine measures chunk by chunk, all distinct registers in one
        # call: the cheats' first, each in the order the cells first prepare it
        engine, reference = {}, {}
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _recording(engine, harness.measure_bell_pairs, registers=8))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _recording(reference, protocol.measure_bell_pairs))
        work = _work(monkeypatch)
        cells = acceptance_matrix(cfg)
        certain = _is_certain(*(cell.config for cell in cells))
        if certain:
            # a certain run measures nothing and makes no draws
            assert (work["generators"], work["measured"]) == (0, 0)
            assert engine == {}
        else:
            # each of the 8 registers measures every pair of every trial, once
            assert work["measured"] == 8 * cfg.n_pairs * cfg.trials
        registers = list(dict.fromkeys(map(_register, cells)))
        assert len(registers) == 8
        for cell in cells:
            reference.clear()
            assert cell == _reference_cell(cell.config)
            if certain:
                _assert_certain(reference)
                continue
            # each cell's states and draws must be its own reference's, bit for bit
            measured = engine[registers.index(_register(cell))]
            for position in (0, 1):
                assert _joined(measured, position) == _joined(reference[0], position)

    # a trial accepts only if every pair measures the announced label: with
    # one pair of every trial off, no cell accepts a trial
    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    @pytest.mark.parametrize("policy,m", HAAR_GRID)
    def test_a_trial_with_one_pair_off_is_rejected_in_every_cell(self, policy, m, per_chunk, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, n_pairs=3, trials=9, master_seed=5)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _one_pair_off(harness.measure_bell_pairs, cfg.n_pairs))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _one_pair_off(protocol.measure_bell_pairs, cfg.n_pairs))
        for cell in acceptance_matrix(cfg):
            assert cell == _reference_cell(cell.config)
            assert cell.accepts == 0

    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    def test_draws_one_matrix_per_pair_and_trial(self, per_chunk, monkeypatch):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS, n_pairs=3, trials=9,
                      bc_policy=BCPolicy.RANDOM_ENTANGLED, m_ancillas=1)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))
        want = _reference_cell(cfg)
        # the engine's draws alone: the reference has made its own
        work = _work(monkeypatch)
        assert run_experiment(cfg) == want
        assert (work["drawn"], work["generators"]) == (cfg.n_pairs * cfg.trials, cfg.trials)

    # The one test that pins the chunk loop's calls: per chunk one Haar stack
    # (none without receiver operations), one apply, one flip if any register
    # is a cheat's, one undo and one measurement, however many registers.
    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    @pytest.mark.parametrize("experiment", ["matrix", "cheat", "honest"])
    @pytest.mark.parametrize("policy,m", [(BCPolicy.NONE, 1), (BCPolicy.RANDOM_LOCAL, 0),
                                          (BCPolicy.RANDOM_ENTANGLED, 1)])
    def test_each_chunk_makes_one_call_per_step(self, policy, m, experiment, per_chunk, monkeypatch):
        if policy is BCPolicy.NONE:
            _force_a_residue(monkeypatch)
        cfg = _config(bc_policy=policy, m_ancillas=m, n_pairs=3, trials=9)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))
        calls = _counting(monkeypatch, (harness, "random_unitaries"), (harness, "apply_rows"),
                          (harness, "measure_bell_pairs"))
        assert _passes(experiment, cfg)
        chunks = {1: 9, 7: 2, "all": 1}[per_chunk]
        flips = int(experiment != "honest")
        haar = int(policy is not BCPolicy.NONE)
        # without receiver operations the certainty check flips the cheats' rows first
        assert calls == {"random_unitaries": haar * chunks, "measure_bell_pairs": chunks,
                         "apply_rows": (1 - haar) * flips + (2 + flips) * chunks}

    # The one test that pins the certain path's calls: one flip of the cheats'
    # rows (none for an honest run) and one probability table, and no draw,
    # generator or measurement.
    @pytest.mark.parametrize("experiment", ["matrix", "cheat", "honest"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_a_certain_run_makes_one_flip_and_no_draw(self, m, experiment, monkeypatch):
        cfg = _config(m_ancillas=m, trials=9)
        calls = _counting(monkeypatch, (harness, "apply_rows"), (harness, "bell_pair_probabilities"),
                          (harness, "measure_bell_pairs"), (harness, "random_unitaries"),
                          (harness, "_trial_generator"))
        assert _passes(experiment, cfg)
        assert calls == {"apply_rows": int(experiment != "honest"), "bell_pair_probabilities": 1,
                         "measure_bell_pairs": 0, "random_unitaries": 0, "_trial_generator": 0}

    @pytest.mark.parametrize("policy,m", HAAR_GRID)
    def test_a_draw_off_unitarity_in_the_last_trial_of_a_chunk_is_refused(self, policy, m, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, n_pairs=3, trials=9)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        # the last pair of trial 6, the last trial of the first chunk
        monkeypatch.setattr(qcore, "random_unitary", _off_unitarity(ATOL_ACCUM, at=7 * cfg.n_pairs))
        with pytest.raises(ValueError, match="^a Haar draw is not unitary$"):
            run_experiment(cfg)

    @pytest.mark.parametrize("policy,m", [(BCPolicy.NONE, 0), (BCPolicy.NONE, 1),
                                          (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 1)])
    def test_matrix_measures_each_distinct_register_once(self, policy, m, monkeypatch):
        cfg = _config(bc_policy=policy, m_ancillas=m, trials=9)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        work = _work(monkeypatch)
        cells = acceptance_matrix(cfg)
        assert all(cell.passed() for cell in cells)
        # a receiver-free run builds its four flipped registers once, one row
        # each, to see whether their outcomes are certain
        built = 4 if policy is BCPolicy.NONE else 0
        if _is_certain(*(cell.config for cell in cells)):
            # certain outcomes need no draw and no measurement
            assert work == {"measured": 0, "applied": built, "drawn": 0, "generators": 0, "stepwise": 0}
        else:
            # per pair of each trial: eight applies, four flips, eight undos,
            # eight measurements, and one Haar matrix shared by all
            rows = cfg.n_pairs * cfg.trials
            assert work == {"measured": 8 * rows, "applied": built + 20 * rows, "drawn": rows,
                            "generators": cfg.trials, "stepwise": 0}

    # the receiver's unitaries are ones, so the chunk loop draws no Haar
    # matrix and each trial's generator makes only its measurement draws
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_an_uncertain_receiver_free_matrix_runs_the_chunk_loop(self, m, monkeypatch):
        _force_a_residue(monkeypatch)
        cfg = _config(m_ancillas=m, trials=9)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        work = _work(monkeypatch)
        cells = acceptance_matrix(cfg)
        # the four flipped registers once, one row each, then per pair of each
        # trial eight applies of ones, four flips, eight undos and eight measurements
        rows = cfg.n_pairs * cfg.trials
        assert work == {"measured": 8 * rows, "applied": 4 + 20 * rows, "drawn": 0, "generators": cfg.trials,
                        "stepwise": 0}
        assert all(cell.passed() for cell in cells)
        for cell in cells:
            assert cell == _reference_cell(cell.config)

    @pytest.mark.parametrize("per_chunk", [1, 7, "all"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_a_mixed_receiver_free_register_equals_the_reference(self, m, seed, per_chunk, monkeypatch):
        _mix_rows(monkeypatch)
        cfg = _config(n_pairs=3, trials=9, m_ancillas=m, master_seed=seed)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, per_chunk))
        rows = cfg.n_pairs * cfg.trials
        work = _work(monkeypatch)
        cells = acceptance_matrix(cfg)
        assert work == {"measured": 8 * rows, "applied": 4 + 20 * rows, "drawn": 0, "generators": cfg.trials,
                        "stepwise": 0}
        cheat = replace(cfg, strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS)
        got = [*cells, run_experiment(cheat)]
        # the cheat run adds one register: one flipped row, then an apply, a flip and an undo per pair
        assert work == {"measured": 9 * rows, "applied": 5 + 23 * rows, "drawn": 0,
                        "generators": 2 * cfg.trials, "stepwise": 0}
        want = [_reference_cell(config) for config in [cell.config for cell in cells] + [cheat]]
        assert got == want
        assert any(0 < cell.accepts < cfg.trials for cell in want)

    def test_an_uncertain_receiver_free_run_keeps_memory_flat(self, monkeypatch):
        _force_a_residue(monkeypatch)

        # many pairs make each chunk's arrays outweigh the allocator's noise
        def peak(trials):
            return _traced_peak(run_experiment, _config(n_pairs=256, trials=trials, m_ancillas=2))

        assert peak(1000) <= 1.1 * peak(125)

    # SeedSequence hashes a seed below 2**32 as one word and a larger one as two
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_draws_equal_the_reference_at_every_seed_width(self, seed, monkeypatch):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS, trials=9,
                      bc_policy=BCPolicy.RANDOM_ENTANGLED, m_ancillas=1, master_seed=seed)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", _chunk_budget(cfg, 7))
        engine, reference = {}, {}
        monkeypatch.setattr(harness, "measure_bell_pairs",
                            _recording(engine, harness.measure_bell_pairs))
        monkeypatch.setattr(protocol, "measure_bell_pairs",
                            _recording(reference, protocol.measure_bell_pairs))
        assert run_experiment(cfg) == _reference_cell(cfg)
        for position in (0, 1):
            assert _joined(engine[0], position) == _joined(reference[0], position)

    def test_matrix_draws_each_trial_once(self, monkeypatch):
        # all cells share each trial's generator and Haar draws
        work = _work(monkeypatch)
        cells = acceptance_matrix(_config(bc_policy=BCPolicy.RANDOM_LOCAL, n_pairs=3, trials=11))
        assert all(cell.passed() for cell in cells)
        assert (work["generators"], work["drawn"]) == (11, 33)

    @pytest.mark.parametrize(
        "overrides",
        [dict(master_seed=8), dict(trials=26), dict(n_pairs=3),
         dict(bc_policy=BCPolicy.RANDOM_LOCAL), dict(m_ancillas=1)],
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
            return _traced_peak(run_experiment, _config(n_pairs=n_pairs, trials=trials, bc_policy=policy,
                                                        m_ancillas=m))

        assert peak(8000) <= 1.1 * peak(1000)

    # At the production budget, 8 chunks peak where one does only if each chunk
    # is drawn after the last one's generators and unitaries are freed. Before
    # that fix these peaked 1.51x, 1.23x and 1.24x as high.
    @pytest.mark.parametrize(
        "n_pairs,policy,m",
        [(1, BCPolicy.RANDOM_LOCAL, 0), (2, BCPolicy.RANDOM_LOCAL, 0), (8, BCPolicy.RANDOM_ENTANGLED, 2)],
    )
    def test_memory_does_not_grow_with_chunks(self, n_pairs, policy, m):
        cfg = _config(n_pairs=n_pairs, bc_policy=policy, m_ancillas=m)
        chunk = harness._CHUNK_ENTRIES // _per_trial(cfg)

        def peak(chunks):
            return _traced_peak(run_experiment, replace(cfg, trials=chunks * chunk))

        assert peak(8) <= 1.1 * peak(1)

    # the none cases guard the certain path: at 11 KB peaks one float per trial fails them
    @pytest.mark.parametrize(
        "n_pairs,policy,m",
        [(8, BCPolicy.NONE, 0), (8, BCPolicy.NONE, 1), (2, BCPolicy.RANDOM_LOCAL, 0)],
    )
    def test_matrix_memory_does_not_grow_with_trials(self, n_pairs, policy, m):
        def peak(trials):
            return _traced_peak(acceptance_matrix, _config(n_pairs=n_pairs, trials=trials, bc_policy=policy,
                                                           m_ancillas=m))

        assert peak(8000) <= 1.1 * peak(1000)

    # OpenBLAS picks a kernel for the host at run time unless OPENBLAS_CORETYPE
    # names one: Haswell is an AVX2 kernel, Prescott SSE3. Each child checks
    # 4 bases x 2 chunk sizes x (20 cells + 2 runs) against the reference.
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_equals_the_reference_on_every_kernel(self, coretype):
        env = _child_env()
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), env["PYTHONPATH"]])
        env["OPENBLAS_CORETYPE"] = coretype
        script = "import json, test_harness\nprint(json.dumps(test_harness._cells_off_the_reference()))\n"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                                timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout) == [176, []]


def _cells_off_the_reference():
    """How many Haar results were checked, and which differ from their reference.

    The bases are 3 pairs and 9 trials at the largest seed, under
    random-local with 0 or 2 ancillas and random-entangled with 1 or 2, each
    run in chunks of 1 and of 7 trials: the 20 cells of its matrix, and a
    cheat run and an honest run, one register each, with a flip and without.
    """
    budget, checked, off = harness._CHUNK_ENTRIES, 0, []
    try:
        for policy, m in [(BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_LOCAL, 2),
                          (BCPolicy.RANDOM_ENTANGLED, 1), (BCPolicy.RANDOM_ENTANGLED, 2)]:
            cfg = _config(bc_policy=policy, m_ancillas=m, n_pairs=3, trials=9, master_seed=2**64 - 1)
            runs = [replace(cfg, strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS),
                    replace(cfg, commit_value=CommitValue.PLUS, reveal_value=CommitValue.PLUS)]
            for per_chunk in (1, 7):
                harness._CHUNK_ENTRIES = _chunk_budget(cfg, per_chunk)
                for cell in [*acceptance_matrix(cfg), *map(run_experiment, runs)]:
                    checked += 1
                    if cell != _reference_cell(cell.config):
                        off.append(f"{policy.value} m={m} chunk={per_chunk}: {cell.config}")
    finally:
        harness._CHUNK_ENTRIES = budget
    return checked, off


class TestAcceptanceMatrix:
    def test_small_matrix_matches_predictions(self):
        cells = acceptance_matrix(_config(trials=10))
        rates = {(cell.config.strategy, cell.config.commit_value, cell.config.reveal_value): cell.acceptance_rate
                 for cell in cells}
        assert [rates[Strategy.CHEAT, CommitValue.BIT0, value] for value in COMMIT_VALUES] == [1.0, 1.0, 1.0, 1.0]
        for commit in COMMIT_VALUES:
            for announce in COMMIT_VALUES:
                strategy = Strategy.HONEST if commit is announce else Strategy.CONTROL
                assert rates[strategy, commit, announce] == (1.0 if commit is announce else 0.0)
        assert all(cell.passed() for cell in cells)

    @pytest.mark.parametrize("strategy, cells", [(Strategy.CHEAT, 4), (Strategy.HONEST, 4), (Strategy.CONTROL, 12)])
    def test_rates_of_each_strategy(self, strategy, cells):
        rates = [cell.acceptance_rate for cell in acceptance_matrix(_config(trials=5))
                 if cell.config.strategy is strategy]
        assert rates == [0.0 if strategy is Strategy.CONTROL else 1.0] * cells

    def test_cells_are_built_from_the_base_alone(self):
        base = _config(bc_policy=BCPolicy.RANDOM_LOCAL, trials=9)
        cells = acceptance_matrix(base)
        # a cheat base revealing minus has no valid honest copy: each cell comes from the base
        cheat = replace(base, strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS)
        assert acceptance_matrix(cheat) == cells
        # a control run alone gives the cell it has in the matrix
        controls = [cell for cell in cells if cell.config.strategy is Strategy.CONTROL]
        assert len(controls) == 12
        for cell in controls:
            assert run_experiment(cell.config) == cell


class TestCellVerdict:
    def test_the_outcome_probability_edge_passes(self):
        # the bound is inclusive: exactly 1 - OUTCOME_TOLERANCE passes, one ulp below fails
        config = _config()
        edge = 1 - harness.OUTCOME_TOLERANCE

        def cell(low):
            return Cell(config, config.trials, low)

        assert cell(edge).passed()
        assert not cell(float(np.nextafter(edge, 0))).passed()


class TestHidingReport:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_distances_below_threshold(self, m):
        report = hiding_report(m)
        assert report.passed
        assert report.max_distance <= harness.HIDING_THRESHOLD
        for i in range(4):
            assert report.distances[i][i] == 0.0

    @pytest.mark.parametrize("n_pairs", [1, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_equals_the_per_row_reference_exactly(self, m, n_pairs):
        # the committed views against one StateVector per row, bit for bit
        n = 2 + m
        reduced = []
        for value in COMMIT_VALUES:
            states = alice_commit(value, n_pairs, m).states
            want = [reduced_density(StateVector(n, row), range(1, n)) for row in states]
            assert np.array_equal(receiver_states(states), np.stack(want))
            reduced.append(want)
        distances = tuple(
            tuple(max(trace_distance(x, y) for x, y in zip(a, b)) for b in reduced)
            for a in reduced
        )
        assert distances == ((0.0,) * 4,) * 4
        assert hiding_report(m).distances == distances

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("n_pairs", [1, 3])
    @pytest.mark.parametrize("policy,m", HAAR_GRID)
    def test_the_receivers_operations_change_no_distance(self, policy, m, n_pairs, seed):
        # the views after trial 0's Haar draw, against one StateVector per row
        # bit for bit, and within rounding of the report's undrawn distances
        n = 2 + m
        reduced = []
        for value in COMMIT_VALUES:
            session = alice_commit(value, n_pairs, m)
            bc_apply_operations(session, policy, harness._trial_generator(seed, 0))
            want = [reduced_density(StateVector(n, row), range(1, n)) for row in session.states]
            assert np.array_equal(receiver_states(session.states), np.stack(want))
            reduced.append(want)
        report = hiding_report(m)
        for a, row in zip(reduced, report.distances):
            for b, distance in zip(reduced, row):
                after = max(trace_distance(x, y) for x, y in zip(a, b))
                assert after == pytest.approx(distance, abs=ATOL_EXACT)

    def test_draws_nothing(self, monkeypatch):
        # trace distance is unitarily invariant, so the receiver's operations
        # change no distance, and none is drawn
        work = _work(monkeypatch, harness, protocol)
        for m in range(MAX_ANCILLAS + 1):
            hiding_report(m)
        assert work == dict.fromkeys(work, 0)

    @pytest.mark.parametrize("m", [MAX_ANCILLAS + 1, -1])
    def test_ancillas_out_of_range_raise_the_configs_message(self, m):
        with pytest.raises(ValueError, match=r"^ancillas must be between 0 and 2$"):
            hiding_report(m)

    def test_every_pair_of_a_commitment_shares_one_row(self):
        # what lets one committed row decide the table: the sessions of every
        # value and the cheat's hold one cached row, not 20000 copies of it
        # (5 MB each at 16 amplitudes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sessions = [alice_commit(value, 20000, 2) for value in COMMIT_VALUES]
            sessions.append(alice_commit_cheating(20000, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2**20

    def test_the_threshold_edge_passes(self):
        # the bound is inclusive: a distance of exactly the threshold passes
        at = harness.HIDING_THRESHOLD
        assert HidingReport(((0.0, at), (at, 0.0))).passed
        assert not HidingReport(((0.0, float(np.nextafter(at, 1))),)).passed

    def test_table_is_symmetric(self):
        report = hiding_report(0)
        for i in range(4):
            for j in range(4):
                assert report.distances[i][j] == pytest.approx(
                    report.distances[j][i], abs=1e-15
                )


# just above the algebra checks' bound
_DEFECT = 2 * ATOL_EXACT


def _tilt_bell_flips(shape):
    """``apply_rows`` that turns each row of a flip of ``BELL`` by a stack of ``shape``
    toward the next Bell row, for a fidelity defect of twice ATOL_EXACT."""
    theta = np.sqrt(_DEFECT)

    def tilted(states, matrices, first):
        out = qcore.apply_rows(states, matrices, first)
        if states is qcore.BELL and matrices.shape == shape:
            labels = np.abs(out @ qcore.BELL.conj().T).argmax(axis=-1)
            out = np.cos(theta) * out + np.sin(theta) * qcore.BELL[(labels + 1) % 4]
        return out

    return tilted


def _tilt_receiver_applies(states, matrices, first):
    """``apply_rows`` that also turns the committer's qubit by twice ATOL_EXACT about X after
    every receiver apply; the committer's ZX flip does not commute with that."""
    out = qcore.apply_rows(states, matrices, first)
    if first == 1:
        out = qcore.apply_rows(out, np.array([[1, -1j * _DEFECT], [-1j * _DEFECT, 1]]), 0)
    return out


_TILTED_APPLIES = {
    # every Pauli on every Bell row; every (destination, source) flip on its source row
    "pauli-label-flips": _tilt_bell_flips((4, 1, 2, 2)),
    "flip-chooser": _tilt_bell_flips((4, 4, 2, 2)),
    "flip-commutation": _tilt_receiver_applies,
}


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
        monkeypatch.setattr(harness, "pauli_for_flip", lambda src, dst: 0)
        failures = {check.name for check in selftest() if not check.passed}
        assert failures == {"cheat-undetectability", "flip-chooser"}
        assert cli.main(["selftest"]) == 1

    def test_a_receiver_apply_on_the_committer_qubit_fails_flip_commutation(self, monkeypatch):
        # the receiver's operations land on qubit 0, where the committer flips
        def on_qubit_zero(states, matrices, first):
            return qcore.apply_rows(states, matrices, 0)

        monkeypatch.setattr(harness, "apply_rows", on_qubit_zero)
        failures = {check.name for check in selftest() if not check.passed}
        assert failures == {"flip-commutation", "cheat-undetectability"}
        assert cli.main(["selftest"]) == 1

    # an algebra check's bound is ATOL_EXACT: a defect of twice that, which the
    # 1e-9 tolerance of the protocol checks absorbs, fails that check alone
    @pytest.mark.parametrize(
        "check", ["bell-orthonormality", "pauli-label-flips", "flip-commutation", "flip-chooser"]
    )
    def test_a_defect_just_above_the_bound_fails_its_check(self, check, monkeypatch):
        if check == "bell-orthonormality":
            tilted = qcore.BELL.copy()
            tilted[0] += _DEFECT * tilted[1]
            monkeypatch.setattr(harness, "BELL", tilted)
        else:
            monkeypatch.setattr(harness, "apply_rows", _TILTED_APPLIES[check])
        failures = {check.name for check in selftest() if not check.passed}
        assert failures == {check}

    def test_a_leaky_coding_table_fails_hiding(self, monkeypatch):
        # minus committed as the product state |0...0>: the receiver sees
        # |0><0| on its qubit instead of I/2
        initial_row = protocol._initial_row

        def leaky(label, m_ancillas):
            if label != commit_label(CommitValue.MINUS):
                return initial_row(label, m_ancillas)
            return np.eye(2 ** (2 + m_ancillas), dtype=np.complex128)[0]

        monkeypatch.setattr(protocol, "_initial_row", leaky)
        assert hiding_report(0).max_distance == 0.5
        # minus's honest cell measures it and fails, and so do its controls
        failures = {check.name for check in selftest() if not check.passed}
        assert failures == {"hiding", "honest-completeness", "control-rejection"}
        assert cli.main(["selftest"]) == 1
        assert cli.main(["hiding"]) == 1

    def test_the_measurement_certainty_edge_passes(self, monkeypatch):
        # the bound is inclusive: a tolerance of exactly 1 - the smallest
        # prepared outcome probability passes
        worst = float(qcore.bell_pair_probabilities(qcore.BELL).diagonal().min())
        monkeypatch.setattr(harness, "OUTCOME_TOLERANCE", 1 - worst)
        checks = {check.name: check for check in selftest()}
        assert checks["measurement-certainty"].passed

    def test_reads_the_documented_matrices(self, monkeypatch):
        # two pairs and 20 trials per policy, at seed 0 unless given
        bases = []
        matrix = harness.acceptance_matrix
        monkeypatch.setattr(harness, "acceptance_matrix", lambda base: bases.append(base) or matrix(base))
        selftest()
        assert [(base.bc_policy, base.m_ancillas) for base in bases] == [
            (BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 1)
        ]
        assert {(base.n_pairs, base.trials, base.master_seed) for base in bases} == {(2, 20, 0)}

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
