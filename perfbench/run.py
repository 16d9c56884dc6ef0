"""End-to-end benchmark of the bellcommit command-line program.

Usage, from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload cheat-entangled --seed 0 --seconds 36 --trace 0

Each workload is one ``bellcommit`` CLI command with ``--format json``. Every
invocation is a fresh process (``perfbench/child.py``), started only after
the previous one has exited: a closed loop with one client, because the CLI
runs serially and exposes no worker setting. The loop repeats the command
for ``--seconds`` and reports medians.

Every invocation passes a correctness gate: exit code 0 and the exact
verdicts the attack predicts (cheat, honest and diagonal trials accept,
control trials reject, outcome probabilities within tolerance of 1). The
sha256 of every report must equal the first one of the run, traced or not.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and prints per-layer span metrics. Earlier
stdout lines describe the run (seed, environment, report hash); the last
line is the result object ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` counts trials run and ``failed`` counts trials whose verdict
differs from the prediction, so ``failed / attempted`` is the error rate;
an invocation that exits non-zero counts all its trials as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

CHILD = os.path.join("perfbench", "child.py")
PROGRAM = os.path.join("src", "bellcommit", "cli.py")

# A run must end well inside 180 s even if one invocation hangs.
RUN_LIMIT_S = 150.0
MIN_INVOCATIONS = 3
SETUP_ONLY_SPAWNS = 5
TOLERANCE = 1e-9  # the CLI default --tolerance, which every workload keeps


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``cells`` experiments of ``pairs`` x ``trials`` each."""

    argv: tuple[str, ...]
    pairs: int
    trials: int
    cells: int = 1

    @property
    def is_matrix(self) -> bool:
        return self.argv[0] == "matrix"

    @property
    def trial_count(self) -> int:
        return self.trials * self.cells

    @property
    def pair_trials(self) -> int:
        return self.pairs * self.trial_count


def _run_workload(strategy: str, pairs: int, trials: int, *extra: str) -> Workload:
    argv = ("run", "--strategy", strategy, "--pairs", str(pairs), "--trials", str(trials), *extra)
    return Workload(argv, pairs, trials)


def _matrix_workload(pairs: int, trials: int, *extra: str) -> Workload:
    argv = ("matrix", "--pairs", str(pairs), "--trials", str(trials), *extra)
    return Workload(argv, pairs, trials, cells=20)


# Why each workload (shares from cProfile on the parent of this benchmark):
# - cheat-entangled: the headline attack under the strongest receiver; the
#   Haar draw (random_unitary, ~47%) and state apply/undo dominate.
# - matrix-none: the default `matrix`; cheat, honest and control paths with
#   zero Haar draws, Bell measurement dominates. A Haar-layer gain should
#   not move it.
# - trials-1pair: many one-pair trials; per-trial fixed cost (seed
#   derivation, commit) dominates and aggregation holds every outcome, so
#   peak memory grows with --trials here.
WORKLOADS = {
    "cheat-entangled": _run_workload(
        "cheat", 8, 2000, "--reveal", "minus", "--bc-ops", "random-entangled", "--ancillas", "2"
    ),
    "matrix-none": _matrix_workload(8, 1000, "--bc-ops", "none"),
    "trials-1pair": _run_workload("honest", 1, 100000, "--bc-ops", "none"),
}

END_TO_END_UNITS = {
    "pair_trials_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Spans reported on their own; every layer also gets "<layer>.self_s".
SPAN_CALLS = (
    "qcore.random_unitary",
    "qcore.apply_unitary",
    "qcore.bell_measure",
    "qcore.bell_probabilities",
    "qcore.apply_pauli",
    "qcore.validate",
    "harness.trial_generator",
)
SPAN_SELF = SPAN_CALLS + (
    "protocol.alice_commit",
    "protocol.bc_apply_operations",
    "protocol.verify",
    "attack.alice_reveal_cheat",
)
LAYERS = ("cli", "reports", "harness", "protocol", "attack", "qcore")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in SPAN_CALLS}
    units.update({f"{name}.self_s": "s" for name in SPAN_SELF})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["qcore.apply_unitary.flops"] = "flop"
    units["qcore.calls_per_pair_trial"] = "calls/pair-trial"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit 2, no result line)."""


def _now() -> float:
    # CLOCK_MONOTONIC is what the child stamps "ready" with
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Invocation:
    """One child process: exit code, report bytes and its measurements."""

    code: int
    report: bytes
    wall_s: float
    measured: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float | None:
        return self.measured.get("setup_s")

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report).hexdigest()


def invoke(cli_args: list[str], trace: bool = False, timeout: float = RUN_LIMIT_S) -> Invocation:
    """Run one child process to completion and collect what it measured."""
    cmd = [sys.executable, CHILD, "1" if trace else "0", *cli_args]
    spawned = _now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return Invocation(-9, out, _now() - spawned)
    wall_s = _now() - spawned
    measured = {}
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith("PERFBENCH "):
            measured = json.loads(line[len("PERFBENCH "):])
            measured["setup_s"] = measured.pop("ready") - spawned
            break
    if proc.returncode != 0 and err:
        sys.stderr.write(err.decode(errors="replace"))
    return Invocation(proc.returncode, out, wall_s, measured)


def wrong_verdicts(workload: Workload, inv: Invocation) -> int:
    """Trials of one invocation whose verdict differs from the exact prediction.

    Cheat, honest and diagonal trials must accept; control trials must
    reject. A failed invocation, an unreadable report, or one whose config
    or outcome-probability gate does not match counts every trial as wrong.
    The matrix report carries rates, not counts, and no per-cell outcome
    probability; accepts are ``rate * trials`` there, and the report's own
    ``passed`` flag stands for the probability gate.
    """
    everything = workload.trial_count
    if inv.code != 0 or not inv.measured:
        return everything
    try:
        doc = json.loads(inv.report)
        config, stats = doc["config"], doc["stats"]
    except (ValueError, KeyError, TypeError):
        return everything
    echoed = (config.get("pairs"), config.get("trials"), config.get("tolerance"))
    if echoed != (workload.pairs, workload.trials, TOLERANCE):
        return everything
    if not workload.is_matrix:
        accepts = stats.get("accepts")
        if stats.get("trials") != workload.trials or not isinstance(accepts, int):
            return everything
        if not stats.get("min_outcome_probability", 0.0) >= 1 - TOLERANCE:
            return everything
        return abs(workload.trials - accepts)
    matrix = doc.get("matrix", {})
    grid, cheat = matrix.get("grid_rates"), matrix.get("cheat_rates")
    if not (stats.get("passed") is True and matrix.get("passed") is True and grid and cheat):
        return everything
    if len(cheat) + sum(len(row) for row in grid) != workload.cells:
        return everything
    wrong = 0
    for rate in cheat:
        wrong += round((1.0 - rate) * workload.trials)
    for i, row in enumerate(grid):
        for j, rate in enumerate(row):
            expected = 1.0 if i == j else 0.0
            wrong += round(abs(expected - rate) * workload.trials)
    return wrong


@dataclass
class Tally:
    """Gate results over every invocation of one run."""

    attempted: int = 0
    failed: int = 0
    hashes: set = field(default_factory=set)

    def add(self, workload: Workload, inv: Invocation) -> None:
        self.attempted += workload.trial_count
        self.failed += wrong_verdicts(workload, inv)
        self.hashes.add(inv.sha256)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.hashes) == 1


def _median(values) -> float:
    return float(statistics.median(values))


def measure_setup(count: int) -> list[float]:
    """Spawn-to-ready times of processes that only import the CLI."""
    samples = []
    for _ in range(count):
        inv = invoke([])
        if inv.code != 0 or inv.setup_s is None:
            raise BenchError("the program's CLI could not be imported")
        samples.append(inv.setup_s)
    return samples


def end_to_end(
    workload: Workload, cli_args: list[str], seconds: float, tally: Tally
) -> tuple[dict, int]:
    """End-to-end metrics of untraced invocations repeated for ``seconds``."""
    deadline = _now() + seconds
    stop = _now() + RUN_LIMIT_S
    setup = measure_setup(SETUP_ONLY_SPAWNS)
    runs: list[Invocation] = []
    while len(runs) < MIN_INVOCATIONS or _now() + _median(r.wall_s for r in runs) <= deadline:
        inv = invoke(cli_args, timeout=stop - _now())
        tally.add(workload, inv)
        runs.append(inv)
        if inv.setup_s is not None:
            setup.append(inv.setup_s)
        if _now() >= stop:
            break
    good = [r for r in runs if r.code == 0 and r.measured]
    if not good:  # the gate has counted every trial as failed
        return {name: 0.0 for name in END_TO_END_UNITS}, len(runs)
    return {
        "pair_trials_per_s": _median(workload.pair_trials / r.measured["work_s"] for r in good),
        "wall_s": _median(r.wall_s for r in good),
        "setup_s": _median(setup),
        "peak_rss_mb": _median(r.measured["peak_rss_mb"] for r in good),
    }, len(runs)


def traced(
    workload: Workload, cli_args: list[str], seconds: float, tally: Tally
) -> tuple[dict, int]:
    """Per-layer span metrics: untraced and traced invocations alternate."""
    deadline = _now() + seconds
    stop = _now() + RUN_LIMIT_S
    plain: list[Invocation] = []
    spans: list[Invocation] = []
    while len(spans) < 2 or _now() + _median(
        a.wall_s + b.wall_s for a, b in zip(plain, spans)
    ) <= deadline:
        for trace, bucket in ((False, plain), (True, spans)):
            inv = invoke(cli_args, trace=trace, timeout=stop - _now())
            tally.add(workload, inv)
            bucket.append(inv)
        if _now() >= stop:
            break
    good = [r for r in spans if r.code == 0 and "calls" in r.measured]
    if not good:  # the gate has counted every trial as failed
        return {name: 0.0 for name in per_layer_units()}, len(plain) + len(spans)
    counts = good[0].measured["calls"]
    if any(r.measured["calls"] != counts for r in good):
        tally.failed += workload.trial_count  # span counts must repeat exactly
    self_s = {name: _median(r.measured["self_s"][name] for r in good) for name in counts}
    metrics = {f"{name}.calls": counts.get(name, 0) for name in SPAN_CALLS}
    metrics.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SPAN_SELF})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    metrics["qcore.apply_unitary.flops"] = good[0].measured["flops"]
    qcore_calls = sum(v for k, v in counts.items() if k.startswith("qcore."))
    metrics["qcore.calls_per_pair_trial"] = qcore_calls / workload.pair_trials
    metrics["trace.overhead_s"] = _median(r.wall_s for r in spans) - _median(r.wall_s for r in plain)
    return metrics, len(plain) + len(spans)


def _commit() -> str | None:
    """HEAD of a git checkout in the working directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(probe: Invocation) -> dict:
    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": probe.measured.get("numpy"),
        "blas": probe.measured.get("blas"),
        "blas_threads": {name: os.environ.get(name) for name in blas_env},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if not os.path.isfile(PROGRAM):
            raise BenchError(f"{PROGRAM} not found; run from the root of a bellcommit checkout")
        workload = WORKLOADS[args.workload]
        cli_args = [*workload.argv, "--seed", str(args.seed), "--format", "json"]
        # first import writes bytecode caches; keep that out of the samples
        probe = invoke([])
        if probe.code != 0 or not probe.measured:
            raise BenchError("the program's CLI could not be imported")
        tally = Tally()
        measure = traced if args.trace else end_to_end
        values, invocations = measure(workload, cli_args, args.seconds, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "command": ["bellcommit", *cli_args],
        "invocations": invocations,
        "report_sha256": sorted(tally.hashes),
        "environment": environment(probe),
    }))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
