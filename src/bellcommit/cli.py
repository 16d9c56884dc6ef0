"""Command-line interface.

Subcommands:

* ``run``      one experiment, reporting the acceptance rate
* ``matrix``   acceptance rates for every cheat/honest/control cell
* ``hiding``   trace distances of the receiving side's view across values
* ``selftest`` built-in invariant checks

Exit codes: 0 all assertions hold, 1 an expected property failed,
2 a :class:`.protocol.ConfigError`, out of memory, or an unwritable
``--out``. A fault of the program propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

from . import reports
from .harness import (
    ExperimentConfig,
    Strategy,
    acceptance_matrix,
    hiding_report,
    run_experiment,
    selftest,
)
from .protocol import BCPolicy, CommitValue, ConfigError

_VALUE_NAMES = [value.value for value in CommitValue]
_POLICY_NAMES = [policy.value for policy in BCPolicy]


# every flag, declared once, with the config's defaults; each subcommand takes only the flags it reads
_FLAGS = {
    "--pairs": dict(type=int, default=ExperimentConfig.n_pairs, help="Bell pairs per commitment"),
    "--trials": dict(type=int, default=ExperimentConfig.trials, help="independent trials (per cell in matrix)"),
    "--strategy": dict(choices=["honest", "cheat"], default="honest"),
    "--reveal": dict(choices=_VALUE_NAMES, default=ExperimentConfig.reveal_value.value,
                     help="revealed value (honest runs commit it too)"),
    "--bc-ops": dict(choices=_POLICY_NAMES, default=ExperimentConfig.bc_policy.value,
                     help="receiver-side operation policy during the commit phase"),
    "--ancillas": dict(type=int, default=ExperimentConfig.m_ancillas, help="receiver-side ancillas per pair"),
    "--seed": dict(type=int, default=ExperimentConfig.master_seed, help="master seed for all randomness"),
    "--format": dict(choices=reports.FORMATS, default="text", help="report format"),
    "--out": dict(default=None, help="write the report to this file instead of stdout"),
}

_OUTPUT = ("--format", "--out")
_SUBCOMMANDS = {
    "run": (
        "run one experiment and report the acceptance rate",
        ("--pairs", "--bc-ops", "--ancillas", "--seed", "--trials", "--strategy", "--reveal", *_OUTPUT),
    ),
    "matrix": (
        "acceptance rates for every cheat, honest, and control cell",
        ("--pairs", "--bc-ops", "--ancillas", "--seed", "--trials", *_OUTPUT),
    ),
    "hiding": (
        "trace distances of the receiving side's view across commit values",
        ("--ancillas", *_OUTPUT),
    ),
    "selftest": ("run the built-in invariant checks", ("--seed", *_OUTPUT)),
}


class _Parser(argparse.ArgumentParser):
    # a rejected argument prints one error line, without the usage block;
    # subparsers are made of the same class, so they print it the same way
    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellcommit",
        description="Simulate a Bell-pair commitment scheme and its retroactive-flip attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _SUBCOMMANDS.items():
        command_p = sub.add_parser(command, help=help_text)
        for flag in flags:
            command_p.add_argument(flag, **_FLAGS[flag])
    return parser


def _shared(args: argparse.Namespace) -> dict:
    # the fields every acceptance experiment of run and matrix takes from its flags
    return dict(
        n_pairs=args.pairs,
        trials=args.trials,
        bc_policy=BCPolicy(args.bc_ops),
        m_ancillas=args.ancillas,
        master_seed=args.seed,
    )


def _report(args: argparse.Namespace) -> reports.Report:
    if args.command == "run":
        # an honest committer commits what it reveals; a cheat prepares bit0
        strategy, reveal = Strategy(args.strategy), CommitValue(args.reveal)
        commit = reveal if strategy is Strategy.HONEST else CommitValue.BIT0
        config = ExperimentConfig(strategy, commit, reveal, **_shared(args))
        return reports.build_run(run_experiment(config))
    if args.command == "matrix":
        return reports.build_matrix(acceptance_matrix(ExperimentConfig(Strategy.HONEST, **_shared(args))))
    if args.command == "hiding":
        return reports.build_hiding(args.ancillas, hiding_report(args.ancillas))
    return reports.build_selftest(args.seed, selftest(master_seed=args.seed))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _report(args)
    except ConfigError as exc:
        # from a config or from a register that protocol refuses, such as hiding's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a register too large to allocate is a configuration this host cannot run
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    rendered = report.render(args.format)
    if args.out is not None:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
