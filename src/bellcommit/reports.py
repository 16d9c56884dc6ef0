"""Render experiment results as text, JSON, or CSV.

JSON reports are deterministic: keys are sorted, floats use repr, and no
timestamps or environment data are included, so identical configs produce
byte-identical files. The top-level JSON shape is::

    {
      "version": "<package version>",
      "config":  {...},            # echo of the experiment settings
      "stats":   {...},            # headline numbers for the subcommand
      "matrix":  {...},            # only for the matrix subcommand
      "hiding":  {...},            # only for the hiding subcommand
      "selftest": [...]            # only for the selftest subcommand
    }

``run`` and ``matrix`` both report a table of :class:`~.harness.Cell` rows,
one row per (strategy, commit, reveal, policy) experiment with its
acceptance rate; ``run`` is a one-row table.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__
from .harness import (
    AcceptanceMatrix,
    Cell,
    CheckResult,
    DetectionStats,
    ExperimentConfig,
    HidingReport,
)

_CELL_FIELDS = ("strategy", "commit", "reveal", "policy", "acceptance_rate")


def config_dict(config: ExperimentConfig) -> dict:
    return {
        "strategy": config.strategy.value,
        "commit": config.commit_value.value,
        "reveal": config.reveal_value.value,
        "pairs": config.n_pairs,
        "trials": config.trials,
        "bc_policy": config.bc_policy.value,
        "ancillas": config.m_ancillas,
        "seed": config.master_seed,
        "tolerance": config.tolerance,
        "format": "json",
    }


def stats_dict(stats: DetectionStats) -> dict:
    return {
        "trials": stats.trials,
        "accepts": stats.accepts,
        "acceptance_rate": stats.acceptance_rate,
        "min_outcome_probability": stats.min_outcome_probability,
    }


def cell_rows(cells: tuple[Cell, ...]) -> list[tuple]:
    """One ``_CELL_FIELDS`` row per cell, in the given order."""
    return [
        (
            cell.kind,
            cell.config.commit_value.value,
            cell.config.reveal_value.value,
            cell.config.bc_policy.value,
            cell.stats.acceptance_rate,
        )
        for cell in cells
    ]


def matrix_dict(matrix: AcceptanceMatrix, config: ExperimentConfig) -> dict:
    return {
        "values": [value.value for value in matrix.values],
        "cheat_rates": matrix.cheat_rates(),
        "grid_rates": matrix.grid_rates(),
        "rows": [dict(zip(_CELL_FIELDS, row)) for row in cell_rows(matrix.cells)],
        "passed": matrix.passed(config.tolerance),
    }


def hiding_dict(report: HidingReport) -> dict:
    return {
        "values": [value.value for value in report.values],
        "distances": [list(row) for row in report.distances],
        "max_distance": report.max_distance,
        "threshold": report.threshold,
        "passed": report.passed,
    }


def selftest_list(checks: list[CheckResult]) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks]


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def build_report(
    config: ExperimentConfig | None = None,
    stats: dict | None = None,
    matrix: AcceptanceMatrix | None = None,
    hiding: HidingReport | None = None,
    checks: list[CheckResult] | None = None,
) -> dict:
    report: dict = {"version": __version__}
    if config is not None:
        report["config"] = config_dict(config)
        if matrix is not None:
            report["matrix"] = matrix_dict(matrix, config)
    if stats is not None:
        report["stats"] = stats
    if hiding is not None:
        report["hiding"] = hiding_dict(hiding)
    if checks is not None:
        report["selftest"] = selftest_list(checks)
    return report


# ---------------------------------------------------------------------------
# text rendering


def _kv_block(items: list[tuple[str, object]]) -> str:
    width = max(len(key) for key, _ in items)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in items)


def render_text_run(config: ExperimentConfig, stats: DetectionStats, ok: bool) -> str:
    items = [
        ("strategy", config.strategy.value),
        ("commit", config.commit_value.value),
        ("reveal", config.reveal_value.value),
        ("pairs", config.n_pairs),
        ("trials", config.trials),
        ("bc policy", config.bc_policy.value),
        ("ancillas", config.m_ancillas),
        ("seed", config.master_seed),
        ("accepts", f"{stats.accepts}/{stats.trials}"),
        ("acceptance rate", stats.acceptance_rate),
        ("min outcome probability", stats.min_outcome_probability),
        ("result", "PASS" if ok else "FAIL"),
    ]
    return _kv_block(items) + "\n"


def render_text_matrix(config: ExperimentConfig, matrix: AcceptanceMatrix) -> str:
    lines = [
        f"acceptance matrix (pairs={config.n_pairs}, trials={config.trials}, "
        f"policy={config.bc_policy.value}, ancillas={config.m_ancillas}, "
        f"seed={config.master_seed})",
        "",
        f"{'strategy':<8}  {'commit':<6}  {'reveal':<6}  rate",
    ]
    for strategy, commit, reveal, _, rate in cell_rows(matrix.cells):
        lines.append(f"{strategy:<8}  {commit:<6}  {reveal:<6}  {rate:.6f}")
    lines.append("")
    verdict = "PASS" if matrix.passed(config.tolerance) else "FAIL"
    lines.append(f"result  {verdict}")
    return "\n".join(lines) + "\n"


def render_text_hiding(config: ExperimentConfig, report: HidingReport) -> str:
    names = [value.value for value in report.values]
    lines = [
        f"receiver-side trace distances (pairs={config.n_pairs}, "
        f"policy={config.bc_policy.value}, ancillas={config.m_ancillas}, "
        f"seed={config.master_seed})",
        "",
        "        " + "  ".join(f"{name:>9}" for name in names),
    ]
    for name, row in zip(names, report.distances):
        lines.append(f"{name:<6}  " + "  ".join(f"{value:9.2e}" for value in row))
    lines.append("")
    lines.append(f"max distance  {report.max_distance:.3e}")
    lines.append(f"threshold     {report.threshold:.3e}")
    lines.append(f"result        {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_text_selftest(checks: list[CheckResult]) -> str:
    lines = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        suffix = f"  ({check.detail})" if check.detail else ""
        lines.append(f"{verdict}  {check.name}{suffix}")
    failures = sum(1 for check in checks if not check.passed)
    lines.append("")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# csv rendering


def _csv(rows: list[tuple], header: tuple) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv_cells(cells: tuple[Cell, ...]) -> str:
    return _csv(cell_rows(cells), _CELL_FIELDS)


def render_csv_hiding(report: HidingReport) -> str:
    rows = []
    for a, row in zip(report.values, report.distances):
        for b, value in zip(report.values, row):
            rows.append((a.value, b.value, value))
    return _csv(rows, ("value_a", "value_b", "trace_distance"))


def render_csv_selftest(checks: list[CheckResult]) -> str:
    rows = [(c.name, str(c.passed).lower(), c.detail) for c in checks]
    return _csv(rows, ("check", "passed", "detail"))
