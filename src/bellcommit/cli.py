"""Command-line interface.

Subcommands:

* ``run``      one experiment, reporting the acceptance rate
* ``matrix``   acceptance rates for every cheat/honest/control cell
* ``hiding``   trace distances of the receiving side's view across values
* ``selftest`` built-in invariant checks

Exit codes: 0 all assertions hold, 1 an expected property failed,
2 invalid configuration or an unwritable ``--out``.
"""

from __future__ import annotations

import argparse
import sys

from . import reports
from .harness import (
    Cell,
    ExperimentConfig,
    OutputFormat,
    Strategy,
    acceptance_matrix,
    hiding_report,
    passes,
    run_experiment,
    selftest,
)
from .protocol import BCPolicy, CommitValue, ProtocolError

_VALUE_NAMES = [value.value for value in CommitValue]
_POLICY_NAMES = [policy.value for policy in BCPolicy]
_FORMAT_NAMES = [fmt.value for fmt in OutputFormat]


def _add_register_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairs", type=int, default=8, help="Bell pairs per commitment")
    parser.add_argument(
        "--bc-ops",
        choices=_POLICY_NAMES,
        default="none",
        dest="bc_ops",
        help="receiver-side operation policy during the commit phase",
    )
    parser.add_argument("--ancillas", type=int, default=0, help="receiver-side ancillas per pair")
    parser.add_argument("--seed", type=int, default=0, help="master seed for all randomness")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMAT_NAMES, default="text", help="report format")
    parser.add_argument("--out", default=None, help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcommit",
        description="Simulate a Bell-pair commitment scheme and its retroactive-flip attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and report the acceptance rate")
    _add_register_flags(run_p)
    run_p.add_argument("--trials", type=int, default=1000, help="independent trials")
    run_p.add_argument("--strategy", choices=["honest", "cheat"], default="honest")
    run_p.add_argument("--commit", choices=_VALUE_NAMES, default="bit0", help="committed value")
    run_p.add_argument("--reveal", choices=_VALUE_NAMES, default="bit0", help="revealed value")
    run_p.add_argument("--tolerance", type=float, default=1e-9, help="outcome probability slack")
    _add_output_flags(run_p)

    matrix_p = sub.add_parser(
        "matrix", help="acceptance rates for every cheat, honest, and control cell"
    )
    _add_register_flags(matrix_p)
    matrix_p.add_argument("--trials", type=int, default=1000, help="independent trials per cell")
    matrix_p.add_argument("--tolerance", type=float, default=1e-9, help="outcome probability slack")
    _add_output_flags(matrix_p)

    hiding_p = sub.add_parser(
        "hiding", help="trace distances of the receiving side's view across commit values"
    )
    _add_register_flags(hiding_p)
    _add_output_flags(hiding_p)

    selftest_p = sub.add_parser("selftest", help="run the built-in invariant checks")
    selftest_p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    selftest_p.add_argument(
        "--tolerance", type=float, default=1e-9, help="outcome probability slack"
    )
    _add_output_flags(selftest_p)

    return parser


def _config_from(args: argparse.Namespace, strategy: Strategy | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        strategy=strategy if strategy is not None else Strategy(args.strategy),
        commit_value=CommitValue(getattr(args, "commit", "bit0")),
        reveal_value=CommitValue(getattr(args, "reveal", "bit0")),
        n_pairs=args.pairs,
        trials=getattr(args, "trials", 1),
        bc_policy=BCPolicy(args.bc_ops),
        m_ancillas=args.ancillas,
        master_seed=args.seed,
        tolerance=getattr(args, "tolerance", 1e-9),
    )


def _dispatch(args: argparse.Namespace) -> tuple[str, bool]:
    fmt = OutputFormat(args.format)

    if args.command == "run":
        config = _config_from(args)
        stats = run_experiment(config)
        ok = passes(stats, config.tolerance)
        if fmt is OutputFormat.JSON:
            report = reports.build_report(config=config, stats=reports.stats_dict(stats))
            return reports.render_json(report), ok
        if fmt is OutputFormat.CSV:
            return reports.render_csv_cells((Cell(config, stats),)), ok
        return reports.render_text_run(config, stats, ok), ok

    if args.command == "matrix":
        config = _config_from(args, strategy=Strategy.HONEST)
        matrix = acceptance_matrix(config)
        ok = matrix.passed(config.tolerance)
        if fmt is OutputFormat.JSON:
            summary = {
                "cheat_min_rate": min(matrix.rates("cheat")),
                "honest_min_rate": min(matrix.rates("honest")),
                "control_max_rate": max(matrix.rates("control")),
                "passed": ok,
            }
            report = reports.build_report(config=config, stats=summary, matrix=matrix)
            return reports.render_json(report), ok
        if fmt is OutputFormat.CSV:
            return reports.render_csv_cells(matrix.cells), ok
        return reports.render_text_matrix(config, matrix), ok

    if args.command == "hiding":
        config = _config_from(args, strategy=Strategy.HONEST)
        report = hiding_report(config)
        ok = report.passed
        if fmt is OutputFormat.JSON:
            summary = {
                "max_distance": report.max_distance,
                "threshold": report.threshold,
                "passed": ok,
            }
            doc = reports.build_report(config=config, stats=summary, hiding=report)
            return reports.render_json(doc), ok
        if fmt is OutputFormat.CSV:
            return reports.render_csv_hiding(report), ok
        return reports.render_text_hiding(config, report), ok

    # selftest
    checks = selftest(master_seed=args.seed, tolerance=args.tolerance)
    ok = all(check.passed for check in checks)
    if fmt is OutputFormat.JSON:
        summary = {
            "checks": len(checks),
            "failures": sum(1 for check in checks if not check.passed),
        }
        doc = reports.build_report(stats=summary, checks=checks)
        doc["config"] = {"seed": args.seed, "tolerance": args.tolerance, "format": "json"}
        return reports.render_json(doc), ok
    if fmt is OutputFormat.CSV:
        return reports.render_csv_selftest(checks), ok
    return reports.render_text_selftest(checks), ok


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rendered, ok = _dispatch(args)
    except (ProtocolError, ValueError) as exc:
        # ConfigError, plus bad combinations surfaced below the config layer
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
