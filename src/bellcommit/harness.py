"""Monte Carlo experiment harness.

Randomness is fully determined by ``(master_seed, trial_index)``: trial
``i`` draws from ``PCG64(SeedSequence((master_seed, i)))``, and protocol
steps consume it in pair order with fixed draw counts. Trials never share
generator state, so aggregate results do not depend on the order in which
trials run, and reports are byte-reproducible.

``_execute_trial`` runs one trial step by step; it is the reference.
Experiments run on a batched engine with the same results bit for bit. It
makes the reference's draws in the reference's order and runs each protocol
step once over a bounded chunk of trials. Without receiver operations a
trial's draws are its first uniforms, which :mod:`.seeding` computes for a
block of trials at once with no generator; each such run checks its first
trial against NumPy's own generator, so a change to NumPy's seeding fails
loudly instead of changing a report. With Haar draws each trial draws from
its own NumPy generator, as the reference does. Experiments that share their
draws share the pass: the acceptance matrix draws each trial once, and all
its cells run on the same receiver operations and measurement draws. Cells
that hold the same register, set by the commit value and the cheat's flip,
share its measurement, so the matrix's 20 cells measure 8 registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .attack import (
    CHEAT_START_LABEL,
    alice_commit_cheating,
    alice_reveal_cheat,
    pauli_for_flip,
)
from .protocol import (
    COMMIT_VALUES,
    MAX_ANCILLAS,
    BCPolicy,
    CommitValue,
    RevealMessage,
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    op_width,
    verify,
)
from .qcore import (
    BELL,
    BELL_LABELS,
    BellLabel,
    PauliOp,
    apply_rows,
    measure_bell_pairs,
    random_unitaries,
    receiver_states,
    trace_distances,
)
from .seeding import pcg64_uniforms

# Two states of the receiving side's view are "identical" below this.
HIDING_THRESHOLD = 1e-12


class Strategy(Enum):
    HONEST = "honest"
    CHEAT = "cheat"


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def _check_seed(master_seed: int) -> None:
    if not 0 <= master_seed < 2**64:
        raise ConfigError("master_seed must fit in an unsigned 64-bit integer")


def _check_tolerance(tolerance: float) -> None:
    # written so that NaN fails too
    if not 0 < tolerance < 1:
        raise ConfigError("tolerance must be a finite number strictly between 0 and 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a fixed scenario replayed over independent trials."""

    strategy: Strategy
    commit_value: CommitValue = CommitValue.BIT0
    reveal_value: CommitValue = CommitValue.BIT0
    n_pairs: int = 8
    trials: int = 1000
    bc_policy: BCPolicy = BCPolicy.NONE
    m_ancillas: int = 0
    master_seed: int = 0
    tolerance: float = 1e-9

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any inconsistent combination."""
        if self.n_pairs < 1:
            raise ConfigError("n_pairs must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 <= self.m_ancillas <= MAX_ANCILLAS:
            raise ConfigError(f"ancillas must be between 0 and {MAX_ANCILLAS}")
        if self.strategy is Strategy.HONEST and self.commit_value is not self.reveal_value:
            raise ConfigError("an honest committer can only reveal the committed value")
        if self.strategy is Strategy.CHEAT and self.commit_value is not CommitValue.BIT0:
            raise ConfigError("the cheating preparation is fixed to bit0")
        if self.bc_policy is BCPolicy.RANDOM_ENTANGLED and self.m_ancillas < 1:
            raise ConfigError("the random-entangled policy requires at least one ancilla")
        _check_seed(self.master_seed)
        _check_tolerance(self.tolerance)


@dataclass(frozen=True)
class DetectionStats:
    """Aggregate over the trials of one experiment."""

    trials: int
    accepts: int
    acceptance_rate: float
    min_outcome_probability: float


def passes(stats: DetectionStats, tolerance: float) -> bool:
    """The verdict on an experiment that should accept.

    Every trial accepted, and every pair's announced outcome had probability
    within ``tolerance`` of 1 before it was sampled.
    """
    return stats.acceptance_rate == 1.0 and stats.min_outcome_probability >= 1 - tolerance


def _trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trial_index))))


def _execute_trial(config: ExperimentConfig, trial_index: int) -> tuple[bool, float]:
    """Accept flag and smallest announced outcome probability of one trial.

    The trial always announces ``config.reveal_value``. Only a cheat flips;
    an honest committer whose reveal value differs from the commit value is
    a control, which the verifier must reject.
    """
    rng = _trial_generator(config.master_seed, trial_index)
    if config.strategy is Strategy.CHEAT:
        session = alice_commit_cheating(config.n_pairs, config.m_ancillas)
        bc_apply_operations(session, config.bc_policy, rng)
        alice_reveal_cheat(session, config.reveal_value)
    else:
        session = alice_commit(config.commit_value, config.n_pairs, config.m_ancillas)
        bc_apply_operations(session, config.bc_policy, rng)
        alice_reveal_honest(session)
    report = verify(session, RevealMessage(commit_label(config.reveal_value)), rng)
    return report.accept, min(report.announced_probabilities)


def run_trial(config: ExperimentConfig, trial_index: int) -> bool:
    """One end-to-end protocol run; bit-reproducible given (config, trial_index)."""
    config.validate()
    return _execute_trial(config, trial_index)[0]


# A chunk of trials holds at most this many complex entries of state rows
# plus receiver unitaries (at least one trial), so memory stays flat in trials;
# each distinct register of a pass holds one chunk's rows and is measured once
# per chunk. Without receiver operations the uniforms of a block of whole
# chunks are derived in one pass, at most this many too unless one chunk needs
# more, and every register is measured against the same uniforms.
_CHUNK_ENTRIES = 2**11
# Trials per block of generator-free uniforms.
_SEED_BLOCK = 256
_SEEDING_CHANGED = "NumPy's SeedSequence or PCG64 seeding has changed"


def _chunk_draws(config: ExperimentConfig, width: int, chunk: int):
    """Per chunk of trials: the receiver unitaries (``None`` if there are none)
    and the ``(count, n_pairs)`` measurement draws, in the reference's order."""
    seed, n, trials = config.master_seed, config.n_pairs, config.trials
    if not width:
        # the draws are each trial's first n uniforms, so they come straight
        # from the PCG64 arithmetic
        block = chunk * max(1, min(_SEED_BLOCK, _CHUNK_ENTRIES // n) // chunk)
        for start in range(0, trials, block):
            indices = np.arange(start, min(start + block, trials), dtype=np.uint64)
            draws = pcg64_uniforms(seed, indices, n)
            if start == 0 and draws[0].tobytes() != _trial_generator(seed, 0).random(n).tobytes():
                raise RuntimeError(_SEEDING_CHANGED)
            for first in range(0, draws.shape[0], chunk):
                yield None, draws[first : first + chunk]
        return
    # the uniforms follow the Haar draws' normals, whose count varies, so
    # each trial draws from its own generator
    for first in range(0, trials, chunk):
        count = min(chunk, trials - first)
        draws = np.empty((count, n))
        matrices = []
        for t in range(count):
            rng = _trial_generator(seed, first + t)
            matrices.append(random_unitaries(width, n, rng))
            draws[t] = rng.random(n)
        yield np.concatenate(matrices), draws


# configs run in one pass agree on what their draws depend on, and on tolerance
_SHARED_FIELDS = ("master_seed", "trials", "n_pairs", "bc_policy", "m_ancillas", "tolerance")


def _run_many(*configs: ExperimentConfig) -> list[DetectionStats]:
    """All trials of every config, in one pass over the draws they share.

    One ``DetectionStats`` per config; the same results as ``_execute_trial``,
    bit for bit. Each chunk's draws and undo matrices are made once. A
    register before measurement is set by the commit value and the cheat's
    flip alone, so configs that agree on both share one register: it runs
    apply, flip, undo and measurement once per chunk, and every config reads
    its own announced label from that measurement. Without receiver
    operations each register is the same in every chunk, so it is built
    once per run.
    """
    config = configs[0]
    if any(getattr(other, name) != getattr(config, name) for other in configs for name in _SHARED_FIELDS):
        raise ValueError("configs run in one pass must agree on " + ", ".join(_SHARED_FIELDS))
    n = config.n_pairs
    width = op_width(config.bc_policy, config.m_ancillas)
    rows = {c.commit_value: alice_commit(c.commit_value, 1, config.m_ancillas).states for c in configs}
    per_trial = n * (rows[config.commit_value].shape[1] + (4**width if width else 0))
    chunk = min(max(1, _CHUNK_ENTRIES // per_trial), config.trials)

    # one register per (commit value, flip); an honest commit has no flip,
    # which keeps it apart from the cheat's identity flip
    registers: dict[tuple[CommitValue, PauliOp | None], int] = {}
    cells = []
    for c in configs:
        flip = None
        if c.strategy is Strategy.CHEAT:
            flip = pauli_for_flip(CHEAT_START_LABEL, commit_label(c.reveal_value))
        group = registers.setdefault((c.commit_value, flip), len(registers))
        cells.append((group, BELL_LABELS.index(commit_label(c.reveal_value))))
    # one initial tile per commit value, shared by the registers that commit it
    initial = {value: np.tile(row, (chunk * n, 1)) for value, row in rows.items()}
    prepared = []
    for value, flip in registers:
        tile, matrix = initial[value], None if flip is None else flip.matrix()
        if matrix is not None and not width:
            # with no receiver operations to come first, the flipped register
            # is the same in every chunk
            tile, matrix = apply_rows(tile, matrix, 0), None
        prepared.append((tile, matrix))

    # per register and Bell label: accepted trials, smallest probability
    accepts = np.zeros((len(prepared), len(BELL_LABELS)), dtype=np.int64)
    low = np.full((len(prepared), len(BELL_LABELS)), math.inf)
    for ops, draws in _chunk_draws(config, width, chunk):
        count = draws.shape[0]
        undo = None if ops is None else np.ascontiguousarray(ops.conj().swapaxes(1, 2))
        uniforms = draws.reshape(-1)
        for group, (tile, flip) in enumerate(prepared):
            states = tile[: count * n]
            if ops is not None:
                states = apply_rows(states, ops, 1)
            if flip is not None:
                states = apply_rows(states, flip, 0)
            if undo is not None:
                states = apply_rows(states, undo, 1)
            outcomes, probs = measure_bell_pairs(states, uniforms)
            outcomes = outcomes.reshape(count, n)
            # a trial accepts only the label that every one of its pairs measured
            unanimous = (outcomes == outcomes[:, :1]).all(axis=1)
            accepts[group] += np.bincount(outcomes[unanimous, 0], minlength=len(BELL_LABELS))
            np.minimum(low[group], probs.min(axis=0), out=low[group])
    accepts, low = accepts.tolist(), low.tolist()
    return [
        DetectionStats(config.trials, accepts[g][a], accepts[g][a] / config.trials, low[g][a])
        for g, a in cells
    ]


def run_experiment(config: ExperimentConfig) -> DetectionStats:
    """Aggregate ``config.trials`` independent trials."""
    config.validate()
    return _run_many(config)[0]


def run_control_experiment(
    config: ExperimentConfig, commit_value: CommitValue, announce_value: CommitValue
) -> DetectionStats:
    """Honest preparation of ``commit_value`` with a mismatched announcement.

    No flip is applied, so the verifier's unanimity test rejects every trial;
    this is the control showing acceptance is not vacuous.
    """
    if commit_value is announce_value:
        raise ConfigError("a control run requires a mismatched announcement")
    base = replace(
        config,
        strategy=Strategy.HONEST,
        commit_value=commit_value,
        reveal_value=commit_value,
    )
    base.validate()
    return _run_many(replace(base, reveal_value=announce_value))[0]


@dataclass(frozen=True)
class Cell:
    """One experiment and its statistics: one row of a report table."""

    config: ExperimentConfig
    stats: DetectionStats

    @property
    def kind(self) -> str:
        """``cheat``, ``honest``, or ``control`` (honest, mismatched announcement)."""
        config = self.config
        if config.strategy is Strategy.HONEST and config.commit_value is not config.reveal_value:
            return "control"
        return config.strategy.value

    def passed(self, tolerance: float) -> bool:
        """A control must reject every trial; any other cell must pass."""
        if self.kind == "control":
            return self.stats.accepts == 0
        return passes(self.stats, tolerance)


@dataclass(frozen=True)
class AcceptanceMatrix:
    """Every cell at the same base settings: cheat row, honest diagonal, controls."""

    cells: tuple[Cell, ...]
    values = COMMIT_VALUES

    def rates(self, kind: str) -> list[float]:
        return [cell.stats.acceptance_rate for cell in self.cells if cell.kind == kind]

    def grid_rates(self) -> list[list[float]]:
        """Honest and control rates, indexed ``[commit][announce]``."""
        grid = {
            (cell.config.commit_value, cell.config.reveal_value): cell.stats.acceptance_rate
            for cell in self.cells
            if cell.kind != "cheat"
        }
        return [[grid[(commit, announce)] for announce in self.values] for commit in self.values]

    def passed(self, tolerance: float = 1e-9) -> bool:
        """Every cell matches the exact prediction."""
        return all(cell.passed(tolerance) for cell in self.cells)


def acceptance_matrix(base: ExperimentConfig) -> AcceptanceMatrix:
    """Acceptance rates for every (strategy, commit, reveal) cell.

    The cheat row prepares the fixed label and steers to each value. The
    honest diagonal reveals what it committed; the controls are honest
    commitments announced as another value, with no flip. All cells share
    each trial's receiver operations and draws, drawn once: one receiver
    history, four cheat reveals that all accept, and controls that reject.
    The 20 cells hold 8 distinct registers (four cheat flips, four honest
    values), and each is measured once for all the cells that hold it.
    """
    base.validate()
    honest = replace(base, strategy=Strategy.HONEST)
    configs = [
        replace(base, strategy=Strategy.CHEAT, commit_value=CommitValue.BIT0, reveal_value=value)
        for value in COMMIT_VALUES
    ]
    configs += [replace(honest, commit_value=value, reveal_value=value) for value in COMMIT_VALUES]
    configs += [
        replace(honest, commit_value=commit, reveal_value=announce)
        for commit in COMMIT_VALUES
        for announce in COMMIT_VALUES
        if commit is not announce
    ]
    return AcceptanceMatrix(tuple(map(Cell, configs, _run_many(*configs))))


@dataclass(frozen=True)
class HidingReport:
    """Pairwise distinguishability of the receiving side's view.

    ``distances[a][b]`` is the maximum over pair indices of the trace
    distance between the receiving side's reduced states after committing
    ``values[a]`` versus ``values[b]`` (the same receiver-side operations
    applied to both).
    """

    values: tuple[CommitValue, ...]
    distances: tuple[tuple[float, ...], ...]
    threshold: float = HIDING_THRESHOLD

    @property
    def max_distance(self) -> float:
        return max(max(row) for row in self.distances)

    @property
    def passed(self) -> bool:
        return self.max_distance <= self.threshold


def hiding_report(base: ExperimentConfig) -> HidingReport:
    """Trace-distance table of the receiving side's post-commit states.

    The receiver-side operations are drawn once, as trial 0 of the seed
    draws them, and applied to all four commit values; any distance above
    the threshold would mean the commitment leaks before the reveal.
    """
    base.validate()
    width = op_width(base.bc_policy, base.m_ancillas)
    ops = random_unitaries(width, base.n_pairs, _trial_generator(base.master_seed, 0)) if width else None
    reduced = []
    for value in COMMIT_VALUES:
        states = alice_commit(value, base.n_pairs, base.m_ancillas).states
        if ops is not None:
            states = apply_rows(states, ops, 1)
        reduced.append(receiver_states(states))
    rows = tuple(tuple(float(trace_distances(a, b).max()) for b in reduced) for a in reduced)
    return HidingReport(COMMIT_VALUES, rows)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def selftest(master_seed: int = 0, tolerance: float = 1e-9) -> list[CheckResult]:
    """Fast invariant suite covering state algebra, protocol, and attack."""
    _check_seed(master_seed)
    _check_tolerance(tolerance)
    checks: list[CheckResult] = []

    def record(name: str, passed, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    rng = _trial_generator(master_seed, 0)

    def fidelity_defect(states: np.ndarray, targets: np.ndarray) -> float:
        # largest 1 - |<state|target>|**2 over the rows
        overlaps = np.einsum("ij,ij->i", states.conj(), targets)
        return float((1.0 - np.minimum(1.0, np.abs(overlaps) ** 2)).max())

    # Bell basis is orthonormal.
    worst = float(np.abs(BELL.conj() @ BELL.T - np.eye(4)).max())
    record("bell-orthonormality", worst <= 1e-12, f"max deviation {worst:.3e}")

    # Pauli flips permute labels as advertised (Z flips u_i, X flips u_j).
    worst = 0.0
    for flip in PauliOp:
        dst = [
            BELL_LABELS.index(BellLabel(src.u_i ^ flip.z_component, src.u_j ^ flip.x_component))
            for src in BELL_LABELS
        ]
        worst = max(worst, fidelity_defect(apply_rows(BELL, flip.matrix(), 0), BELL[dst]))
    record("pauli-label-flips", worst <= 1e-12, f"max fidelity defect {worst:.3e}")

    # The committer's flip commutes with receiver-side unitaries.
    states, ops = [], []
    for _ in range(20):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        states.append(vec / np.linalg.norm(vec))
        ops.append(random_unitaries(2, 1, rng))
    states, ops = np.stack(states), np.concatenate(ops)
    flip = PauliOp.ZX.matrix()
    a = apply_rows(apply_rows(states, flip, 0), ops, 1)
    b = apply_rows(apply_rows(states, ops, 1), flip, 0)
    worst = float(np.abs(a - b).max())
    record("flip-commutation", worst <= 1e-12, f"max amplitude delta {worst:.3e}")

    # Measuring a prepared Bell state returns its label with certainty.
    probs = (np.abs(BELL.conj() @ BELL[:, :, None]) ** 2).sum(axis=2)
    worst = float(probs.diagonal().min())
    record("measurement-certainty", worst >= 1 - tolerance, f"min outcome probability {worst!r}")

    # Honest runs accept, for every value and policy.
    ok = True
    for value in COMMIT_VALUES:
        for policy, m in ((BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 1)):
            cfg = ExperimentConfig(
                strategy=Strategy.HONEST,
                commit_value=value,
                reveal_value=value,
                n_pairs=2,
                trials=20,
                bc_policy=policy,
                m_ancillas=m,
                master_seed=master_seed,
                tolerance=tolerance,
            )
            ok = ok and passes(run_experiment(cfg), tolerance)
    record("honest-completeness", ok)

    # Cheat runs accept for every target, under the entangling policy too.
    ok = True
    for value in COMMIT_VALUES:
        cfg = ExperimentConfig(
            strategy=Strategy.CHEAT,
            commit_value=CommitValue.BIT0,
            reveal_value=value,
            n_pairs=2,
            trials=20,
            bc_policy=BCPolicy.RANDOM_ENTANGLED,
            m_ancillas=1,
            master_seed=master_seed,
            tolerance=tolerance,
        )
        ok = ok and passes(run_experiment(cfg), tolerance)
    record("cheat-undetectability", ok)

    # Mismatched announcements without the flip are rejected.
    base = ExperimentConfig(
        strategy=Strategy.HONEST,
        n_pairs=2,
        trials=20,
        master_seed=master_seed,
        tolerance=tolerance,
    )
    stats = run_control_experiment(base, CommitValue.BIT0, CommitValue.MINUS)
    record("control-rejection", stats.acceptance_rate == 0.0)

    # The closed-form flip chooser reaches every label from every label.
    worst = 0.0
    for index, dst in enumerate(BELL_LABELS):
        flips = np.stack([pauli_for_flip(src, dst).matrix() for src in BELL_LABELS])
        worst = max(worst, fidelity_defect(apply_rows(BELL, flips, 0), BELL[[index] * 4]))
    record("flip-chooser", worst <= 1e-12, f"max fidelity defect {worst:.3e}")

    # The receiving side's view is independent of the committed value.
    report = hiding_report(replace(base, bc_policy=BCPolicy.RANDOM_LOCAL))
    record("hiding", report.passed, f"max trace distance {report.max_distance:.3e}")

    return checks
