"""Monte Carlo experiment harness.

Randomness is fully determined by ``(master_seed, trial_index)``: trial
``i`` draws from ``PCG64(SeedSequence((master_seed, i)))``, and protocol
steps consume it in pair order with fixed draw counts. Trials never share
generator state, so aggregate results do not depend on the order in which
trials run, and reports are byte-reproducible.

``_execute_trial`` runs one trial step by step; it is the reference.
Experiments run on a batched engine with the same results bit for bit, which
has two paths. Without receiver operations the outcome of each register is
certain: its Bell probabilities have exactly one nonzero entry, even in
floating point, because :func:`.qcore.bell_pair_probabilities` calls no BLAS.
Every draw then measures that label, so such a run makes no draws at all and
needs no generator. With receiver operations the engine makes the
reference's draws in the reference's order and runs each protocol step once
over a bounded chunk of trials and all its registers, each trial drawing from
its own NumPy generator, as the reference does; the registers are one stack
of rows until the receiver's apply broadcasts each to every pair. A
receiver-free register that is not certain runs the same loop, with ones for
the receiver's unitaries and no Haar draw. Experiments that share their draws
share the pass: the acceptance matrix draws each trial once, and all its
cells run on the same receiver operations and measurement draws. Cells that
hold the same register, set by the commit value and the cheat's flip, share
its rows, so the matrix's 20 cells hold 8 registers, which each chunk
measures in one call.

Every acceptance experiment returns a :class:`Cell` of counts, judged by one
verdict, :meth:`Cell.passed`, with the fixed slack :data:`OUTCOME_TOLERANCE`
on probabilities. ``run``, ``matrix`` and selftest's protocol checks all
read it; ``hiding`` compares trace distances with :data:`HIDING_THRESHOLD`
instead. The acceptance matrix is a tuple of cells, and :mod:`.reports`
alone derives what a report shows of them.
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
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    op_width,
    verify,
)
from .qcore import (
    ATOL_EXACT,
    BELL,
    PAULI,
    apply_rows,
    bell_pair_probabilities,
    measure_bell_pairs,
    random_unitaries,
    receiver_states,
    trace_distances,
)

# Two states of the receiving side's view are "identical" below this.
HIDING_THRESHOLD = 1e-12
# An announced outcome is "certain" within this of probability 1.
OUTCOME_TOLERANCE = 1e-9


class Strategy(Enum):
    HONEST = "honest"
    CHEAT = "cheat"
    CONTROL = "control"  # an honest commitment announced as another value


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a fixed scenario replayed over independent trials.

    A config is checked when it is built: a field that is not a member of its
    enum, or an inconsistent combination, raises :class:`ConfigError`, and
    pairs or trials of 2**63 or more raise ``OverflowError``. An honest
    committer reveals what it committed, a control announces another value,
    and a cheat prepares bit0.
    """

    strategy: Strategy
    commit_value: CommitValue = CommitValue.BIT0
    reveal_value: CommitValue = CommitValue.BIT0
    n_pairs: int = 8
    trials: int = 1000
    bc_policy: BCPolicy = BCPolicy.NONE
    m_ancillas: int = 0
    master_seed: int = 0

    def __post_init__(self) -> None:
        # a string such as "cheat" equals no member, so every rule below would silently miss it
        for name, kind in (("strategy", Strategy), ("commit_value", CommitValue),
                           ("reveal_value", CommitValue), ("bc_policy", BCPolicy)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.n_pairs < 1:
            raise ConfigError("n_pairs must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 <= self.m_ancillas <= MAX_ANCILLAS:
            raise ConfigError(f"ancillas must be between 0 and {MAX_ANCILLAS}")
        if self.strategy is Strategy.HONEST and self.commit_value is not self.reveal_value:
            raise ConfigError("an honest committer can only reveal the committed value")
        if self.strategy is Strategy.CONTROL and self.commit_value is self.reveal_value:
            raise ConfigError("a control announces a value other than the committed one")
        if self.strategy is Strategy.CHEAT and self.commit_value is not CommitValue.BIT0:
            raise ConfigError("the cheating preparation is fixed to bit0")
        if self.bc_policy is BCPolicy.RANDOM_ENTANGLED and self.m_ancillas < 1:
            raise ConfigError("the random-entangled policy requires at least one ancilla")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")
        # accept counts are int64, and so is every index of pairs and trials on
        # a path that draws; a path that makes no draws refuses what they cannot hold too
        if max(self.n_pairs, self.trials) >= 2**63:
            raise OverflowError("pairs and trials must each be below 2**63")


@dataclass(frozen=True)
class Cell:
    """One experiment and its counts, as experiments return them.

    Its kind is ``config.strategy``: a cheat, an honest commit or a control.
    :meth:`passed` is the one verdict on an acceptance experiment; a report
    shows cells as rows of a table.
    """

    config: ExperimentConfig
    accepts: int
    min_outcome_probability: float

    @property
    def acceptance_rate(self) -> float:
        return self.accepts / self.config.trials

    def passed(self) -> bool:
        """The verdict, on counts and judged at :data:`OUTCOME_TOLERANCE`.

        A control must reject every trial. Any other cell must accept every
        trial, and every pair's announced outcome must have had probability
        within the tolerance of 1 before it was sampled. Counts, not the
        rate, decide: one rejected trial in 2**60 rounds the rate to 1.0.
        """
        if self.config.strategy is Strategy.CONTROL:
            return self.accepts == 0
        return self.accepts == self.config.trials and self.min_outcome_probability >= 1 - OUTCOME_TOLERANCE


def _trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trial_index))))


def _execute_trial(config: ExperimentConfig, trial_index: int) -> tuple[bool, float]:
    """Accept flag and smallest announced outcome probability of one trial.

    The trial always announces ``config.reveal_value``. Only a cheat flips;
    a control commits honestly and announces another value, which the
    verifier must reject.
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
    report = verify(session, commit_label(config.reveal_value), rng)
    return report.accept, min(report.announced_probabilities)


def run_trial(config: ExperimentConfig, trial_index: int) -> bool:
    """One end-to-end protocol run; bit-reproducible given (config, trial_index)."""
    return _execute_trial(config, trial_index)[0]


# A chunk has as many trials (at least one) as fit this many complex entries
# of one register's rows plus the receiver unitaries. It holds every
# register's rows, a fixed multiple of that, so memory stays flat in trials.
# Kept until a committed benchmark file backs a change: in 12 alternating
# cold pairs of cheat-entangled on a 2-core x86-64 host, 2**14 took a median
# 0.955x the work time, ahead in 7 of 12, for 0.73 MiB more peak memory.
_CHUNK_ENTRIES = 2**12


# configs run in one pass agree on what their draws depend on
_SHARED_FIELDS = ("master_seed", "trials", "n_pairs", "bc_policy", "m_ancillas")


def _run_many(*configs: ExperimentConfig) -> tuple[Cell, ...]:
    """All trials of every config, in one pass over the draws they share.

    One :class:`Cell` per config; the same counts as ``_execute_trial``,
    bit for bit. A register before measurement is set by the commit value and
    the cheat's flip alone, so configs that agree on both share one register,
    and every config reads its own announced label from that register's
    measurement. The registers' committed rows are one ``(registers, 1, 1, dim)``
    stack, the cheats' first, and each step runs once over all of them.
    Without receiver operations each register is one row, flipped once per
    run; if every one has exactly one nonzero outcome probability, the run
    makes no draws and no chunks: those probabilities are its smallest ones,
    and its one label accepts every trial. Otherwise each chunk first makes
    the reference's draws in the reference's order: each trial draws from its
    own generator, its Haar unitaries, then one uniform per pair. The chunk's
    unitaries are one ``(trials, pairs, d, d)`` stack, drawn and checked in
    one call; without receiver operations they are ones, the receiver's
    no-op, and only the uniforms are drawn. Then the chunk runs one apply,
    which broadcasts every register to every pair of every trial, one flip
    of the cheats' rows, one undo and one measurement of the whole
    ``(registers, trials, pairs, dim)`` stack against the chunk's draws.
    """
    config = configs[0]
    if any(getattr(other, name) != getattr(config, name) for other in configs for name in _SHARED_FIELDS):
        raise ValueError("configs run in one pass must agree on " + ", ".join(_SHARED_FIELDS))
    width = op_width(config.bc_policy, config.m_ancillas)
    # one register per (commit value, flip), the cheats' first so that one slice holds
    # their rows; an honest commit has no flip, which keeps it apart from the identity flip
    flip_of = {c: pauli_for_flip(CHEAT_START_LABEL, commit_label(c.reveal_value))
               for c in configs if c.strategy is Strategy.CHEAT}
    keys = [(c.commit_value, flip_of.get(c)) for c in configs]
    registers = list(dict.fromkeys(sorted(keys, key=lambda key: key[1] is None)))
    slots = [(registers.index(key), commit_label(c.reveal_value)) for key, c in zip(keys, configs)]
    committed = np.stack([alice_commit(value, 1, config.m_ancillas).states[None] for value, _ in registers])
    flips = PAULI[[flip for _, flip in registers if flip is not None]].reshape(-1, 1, 1, 2, 2)

    def flipped(states: np.ndarray) -> np.ndarray:
        # only the cheats flip: an identity flip changes the sign of zero amplitudes
        if len(flips):
            states[: len(flips)] = apply_rows(states[: len(flips)], flips, 0)
        return states

    # per register and Bell label: accepted trials, smallest probability
    accepts = np.zeros((len(registers), len(BELL)), dtype=np.int64)

    def cells(low: np.ndarray) -> tuple[Cell, ...]:
        # each config's cell, read at its (register, label) slot of the tables
        return tuple(Cell(c, accepts[g, a].item(), low[g, a].item()) for c, (g, a) in zip(configs, slots))

    if not width:
        probs = bell_pair_probabilities(flipped(committed.copy())[:, 0, 0])
        certain = probs != 0
        if (certain.sum(axis=1) == 1).all():
            # Every draw measures the one label k with nonzero p, so no draw
            # is made. The cumulative walk is 0 before k and p from k on, so a
            # draw u in [0, 1) passes the k zeros and stops at k, or, if
            # u >= p, passes all four and the slack rule takes argmax = k. The
            # reference gets these counts under any seed.
            accepts[certain] = config.trials
            return cells(probs)
    n, trials = config.n_pairs, config.trials
    per_trial = n * (committed.shape[-1] + 4**width)
    chunk = min(max(1, _CHUNK_ENTRIES // per_trial), trials)
    low = np.full(accepts.shape, math.inf)
    labels = np.arange(len(BELL))
    for first in range(0, trials, chunk):
        rngs = [_trial_generator(config.master_seed, trial) for trial in range(first, min(first + chunk, trials))]
        ops = random_unitaries(width, n, *rngs) if width else np.ones(len(rngs) * n, complex)
        ops = ops.reshape(len(rngs), n, 2**width, 2**width)
        draws = np.empty((len(rngs), n))
        for t, rng in enumerate(rngs):
            rng.random(out=draws[t])
        states = flipped(apply_rows(committed, ops, 1))
        states = apply_rows(states, ops.conj().swapaxes(-1, -2), 1)
        outcomes, probs = measure_bell_pairs(states, np.broadcast_to(draws, states.shape[:-1]))
        # a trial accepts only the label that every one of its pairs measured
        unanimous = (outcomes == outcomes[..., :1]).all(axis=-1)
        accepts += ((outcomes[..., 0, None] == labels) & unanimous[..., None]).sum(axis=1)
        np.minimum(low, probs.min(axis=(1, 2)), out=low)
        # the next chunk is drawn only after every array of this one, its
        # generators and unitaries included, has been freed
        del rngs, rng, ops, draws, states, outcomes, probs, unanimous
    return cells(low)


def run_experiment(config: ExperimentConfig) -> Cell:
    """``config``'s cell: its counts over ``config.trials`` independent trials."""
    return _run_many(config)[0]


def acceptance_matrix(base: ExperimentConfig) -> tuple[Cell, ...]:
    """Every (strategy, commit, reveal) cell at ``base``'s shared settings.

    The 4 cheats come first, then the 4 honest commits, then the 12
    controls, each group in :data:`.protocol.COMMIT_VALUES` order.
    Every cell is ``base`` with its own strategy, commit and reveal, so only
    ``base``'s shared fields are read: pairs, trials, policy, ancillas and
    seed. The cheat row prepares the fixed label and steers to each
    value. The honest diagonal reveals what it committed; the 12 controls
    commit honestly and announce another value, with no flip. All cells
    share each trial's receiver operations and draws, drawn once: one
    receiver history, four cheat reveals that all accept, and controls that
    reject. The 20 cells hold 8 distinct registers (four cheat flips, four
    honest values), and each chunk measures all 8 in one call, each once for
    all the cells that hold it.
    """
    configs = [
        replace(base, strategy=Strategy.CHEAT, commit_value=CommitValue.BIT0, reveal_value=value)
        for value in COMMIT_VALUES
    ]
    configs += [
        replace(base, strategy=Strategy.HONEST, commit_value=value, reveal_value=value)
        for value in COMMIT_VALUES
    ]
    configs += [
        replace(base, strategy=Strategy.CONTROL, commit_value=commit, reveal_value=announce)
        for commit in COMMIT_VALUES
        for announce in COMMIT_VALUES
        if commit is not announce
    ]
    return _run_many(*configs)


@dataclass(frozen=True)
class HidingReport:
    """Pairwise distinguishability of the receiving side's view.

    ``distances[a][b]`` is the trace distance between the receiving side's
    reduced states right after committing ``COMMIT_VALUES[a]`` versus
    ``COMMIT_VALUES[b]``, of one pair and so of every pair: all hold the
    same row. No receiver-side operation changes it. It passes when no
    distance exceeds :data:`HIDING_THRESHOLD`.
    """

    distances: tuple[tuple[float, ...], ...]

    @property
    def max_distance(self) -> float:
        return max(max(row) for row in self.distances)

    @property
    def passed(self) -> bool:
        return self.max_distance <= HIDING_THRESHOLD


def hiding_report(m_ancillas: int) -> HidingReport:
    """Trace-distance table of the receiving side's views with ``m_ancillas`` ancillas.

    It draws nothing. Every pair of a commitment holds the same row, so one
    committed row per value decides the table for any number of pairs: one
    stack of four reduced states, compared all against all in one call.
    Whatever the receiver does while the commitment is pending is a unitary
    U on its own qubits, and D(U rho U^dagger, U sigma U^dagger) =
    D(rho, sigma), so the distances between the views before it acts are
    the distances after any receiver operations. Any distance above the
    threshold would mean the commitment leaks before the reveal. An ancilla
    count outside ``0 .. MAX_ANCILLAS`` raises ``ValueError``.
    """
    reduced = receiver_states(np.concatenate([alice_commit(v, 1, m_ancillas).states for v in COMMIT_VALUES]))
    return HidingReport(tuple(map(tuple, trace_distances(reduced[:, None], reduced).tolist())))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def selftest(master_seed: int = 0) -> list[CheckResult]:
    """Fast invariant suite covering state algebra, protocol, and attack.

    The protocol checks read three acceptance matrices, one per receiver
    policy (none, random-local, random-entangled with one ancilla), of two
    pairs and 20 trials at ``master_seed``. Each records whether every cell
    of its strategy passed. Those cells and the measurement-certainty check
    are judged at :data:`OUTCOME_TOLERANCE`.
    """
    base = ExperimentConfig(Strategy.HONEST, n_pairs=2, trials=20, master_seed=master_seed)
    checks: list[CheckResult] = []

    def record(name: str, passed, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    rng = _trial_generator(master_seed, 0)

    def fidelity_defect(states: np.ndarray, targets: np.ndarray) -> float:
        # largest 1 - |<state|target>|**2 over the rows
        overlaps = np.einsum("...j,...j->...", states.conj(), targets)
        return float((1.0 - np.minimum(1.0, np.abs(overlaps) ** 2)).max())

    # Bell basis is orthonormal.
    worst = float(np.abs(BELL.conj() @ BELL.T - np.eye(4)).max())
    record("bell-orthonormality", worst <= ATOL_EXACT, f"max deviation {worst:.3e}")

    # Pauli flips permute labels as advertised (Z flips u_i, X flips u_j):
    # Pauli p on qubit 0 takes label k to k ^ p.
    labels = np.arange(len(BELL))
    worst = fidelity_defect(apply_rows(BELL, PAULI[:, None], 0), BELL[labels[:, None] ^ labels])
    record("pauli-label-flips", worst <= ATOL_EXACT, f"max fidelity defect {worst:.3e}")

    # The committer's flip commutes with receiver-side unitaries: the
    # receiver's apply touches only the receiver's qubits.
    states, ops = [], []
    for _ in range(20):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        states.append(vec / np.linalg.norm(vec))
        ops.append(random_unitaries(2, 1, rng))
    states, ops = np.stack(states), np.concatenate(ops)
    flip = PAULI[3]
    a = apply_rows(apply_rows(states, flip, 0), ops, 1)
    b = apply_rows(apply_rows(states, ops, 1), flip, 0)
    worst = float(np.abs(a - b).max())
    record("flip-commutation", worst <= ATOL_EXACT, f"max amplitude delta {worst:.3e}")

    # Measuring a prepared Bell state returns its label with certainty.
    probs = bell_pair_probabilities(BELL)
    worst = float(probs.diagonal().min())
    record("measurement-certainty", worst >= 1 - OUTCOME_TOLERANCE, f"min outcome probability {worst!r}")

    # One acceptance matrix per policy: honest runs and cheats accept for
    # every value, and mismatched announcements without the flip are rejected.
    cells = [
        cell
        for policy, m in ((BCPolicy.NONE, 0), (BCPolicy.RANDOM_LOCAL, 0), (BCPolicy.RANDOM_ENTANGLED, 1))
        for cell in acceptance_matrix(replace(base, bc_policy=policy, m_ancillas=m))
    ]
    for name, strategy in (
        ("honest-completeness", Strategy.HONEST),
        ("cheat-undetectability", Strategy.CHEAT),
        ("control-rejection", Strategy.CONTROL),
    ):
        record(name, all(cell.passed() for cell in cells if cell.config.strategy is strategy))

    # The closed-form flip chooser reaches every label from every label.
    worst = fidelity_defect(apply_rows(BELL, PAULI[pauli_for_flip(labels, labels[:, None])], 0), BELL[:, None])
    record("flip-chooser", worst <= ATOL_EXACT, f"max fidelity defect {worst:.3e}")

    # The receiving side's view is independent of the committed value.
    report = hiding_report(base.m_ancillas)
    record("hiding", report.passed, f"max trace distance {report.max_distance:.3e}")

    return checks
