"""One report per subcommand, rendered as text, JSON, or CSV.

Each builder (:func:`build_run`, :func:`build_matrix`, :func:`build_hiding`,
:func:`build_selftest`) turns one subcommand's results into a
:class:`Report`: its verdict ``ok``, the JSON body, the CSV header and rows,
and the text layout. :meth:`Report.render` picks one of :data:`FORMATS`, so
adding a field or a subcommand touches one builder.

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
acceptance rate; ``run`` is a one-row table. The builders take the cells
that experiments return and derive everything else from them alone: a
run's ``stats`` are its cell's counts, and a matrix report's settings,
per-strategy summary, cheat row, ``[commit][announce]`` grid of the honest
and control rates, and verdict that every cell passes come from its cells.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import __version__
from .harness import (
    HIDING_THRESHOLD,
    OUTCOME_TOLERANCE,
    Cell,
    CheckResult,
    ExperimentConfig,
    HidingReport,
    Strategy,
)
from .protocol import COMMIT_VALUES

FORMATS = ("text", "json", "csv")

_CELL_FIELDS = ("strategy", "commit", "reveal", "policy", "acceptance_rate")


@dataclass(frozen=True)
class Report:
    """A subcommand's verdict and its content in every output format."""

    ok: bool
    body: dict
    csv_header: tuple[str, ...]
    csv_rows: list[tuple]
    text: str

    def render(self, fmt: str) -> str:
        """The report as ``fmt``, one of :data:`FORMATS`."""
        if fmt == "text":
            return self.text
        if fmt == "json":
            return json.dumps(self.body, indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.csv_header)
            writer.writerows(self.csv_rows)
            return buf.getvalue()
        raise ValueError(f"unknown report format {fmt!r}")


def _body(config: dict, stats: dict, **sections) -> dict:
    return {"version": __version__, "config": config, "stats": stats, **sections}


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def config_dict(config: ExperimentConfig) -> dict:
    """The settings an acceptance matrix shares across its cells, and the fixed tolerance, as echoed."""
    return {
        "pairs": config.n_pairs,
        "trials": config.trials,
        "bc_policy": config.bc_policy.value,
        "ancillas": config.m_ancillas,
        "seed": config.master_seed,
        "tolerance": OUTCOME_TOLERANCE,
    }


def cell_rows(cells: tuple[Cell, ...]) -> list[tuple]:
    """One ``_CELL_FIELDS`` row per cell, in the given order."""
    return [
        (
            cell.config.strategy.value,
            cell.config.commit_value.value,
            cell.config.reveal_value.value,
            cell.config.bc_policy.value,
            cell.acceptance_rate,
        )
        for cell in cells
    ]


def build_run(cell: Cell) -> Report:
    config, ok = cell.config, cell.passed
    # the run's own settings; the rest it shares with a matrix
    values = {"strategy": config.strategy.value, "commit": config.commit_value.value,
              "reveal": config.reveal_value.value}
    items = [
        *values.items(),
        ("pairs", config.n_pairs),
        ("trials", config.trials),
        ("bc policy", config.bc_policy.value),
        ("ancillas", config.m_ancillas),
        ("seed", config.master_seed),
        ("accepts", f"{cell.accepts}/{config.trials}"),
        ("acceptance rate", cell.acceptance_rate),
        ("min outcome probability", cell.min_outcome_probability),
        ("result", _verdict(ok)),
    ]
    stats = {"trials": config.trials, "accepts": cell.accepts, "acceptance_rate": cell.acceptance_rate,
             "min_outcome_probability": cell.min_outcome_probability}
    width = max(len(key) for key, _ in items)
    return Report(
        ok=ok,
        body=_body({**values, **config_dict(config)}, stats),
        csv_header=_CELL_FIELDS,
        csv_rows=cell_rows((cell,)),
        text="".join(f"{key.ljust(width)}  {value}\n" for key, value in items),
    )


def build_matrix(cells: tuple[Cell, ...]) -> Report:
    config, ok = cells[0].config, all(cell.passed for cell in cells)
    rows = cell_rows(cells)
    rates = {strategy: [cell.acceptance_rate for cell in cells if cell.config.strategy is strategy]
             for strategy in Strategy}
    # honest and control rates by (commit, announce)
    grid = {(cell.config.commit_value, cell.config.reveal_value): cell.acceptance_rate
            for cell in cells if cell.config.strategy is not Strategy.CHEAT}
    summary = {
        "cheat_min_rate": min(rates[Strategy.CHEAT]),
        "honest_min_rate": min(rates[Strategy.HONEST]),
        "control_max_rate": max(rates[Strategy.CONTROL]),
        "passed": ok,
    }
    # cheat_rates, grid_rates and passed repeat rows and stats: perfbench/run.py's gate reads them
    section = {
        "cheat_rates": rates[Strategy.CHEAT],
        "grid_rates": [[grid[commit, announce] for announce in COMMIT_VALUES] for commit in COMMIT_VALUES],
        "rows": [dict(zip(_CELL_FIELDS, row)) for row in rows],
        "passed": ok,
    }
    lines = [
        f"acceptance matrix (pairs={config.n_pairs}, trials={config.trials}, "
        f"policy={config.bc_policy.value}, ancillas={config.m_ancillas}, "
        f"seed={config.master_seed})",
        "",
        f"{'strategy':<8}  {'commit':<6}  {'reveal':<6}  rate",
    ]
    for strategy, commit, reveal, _, rate in rows:
        lines.append(f"{strategy:<8}  {commit:<6}  {reveal:<6}  {rate:.6f}")
    lines += ["", f"result  {_verdict(ok)}"]
    return Report(
        ok=ok,
        body=_body(config_dict(config), summary, matrix=section),
        csv_header=_CELL_FIELDS,
        csv_rows=rows,
        text="\n".join(lines) + "\n",
    )


def build_hiding(m_ancillas: int, report: HidingReport) -> Report:
    ok = report.passed
    names = [value.value for value in COMMIT_VALUES]
    summary = {"max_distance": report.max_distance, "threshold": HIDING_THRESHOLD, "passed": ok}
    section = {"values": names, "distances": [list(row) for row in report.distances]}
    lines = [
        f"receiver-side trace distances (ancillas={m_ancillas})",
        "",
        "        " + "  ".join(f"{name:>9}" for name in names),
    ]
    for name, row in zip(names, report.distances):
        lines.append(f"{name:<6}  " + "  ".join(f"{value:9.2e}" for value in row))
    lines += [
        "",
        f"max distance  {report.max_distance:.3e}",
        f"threshold     {HIDING_THRESHOLD:.3e}",
        f"result        {_verdict(ok)}",
    ]
    return Report(
        ok=ok,
        body=_body({"ancillas": m_ancillas}, summary, hiding=section),
        csv_header=("value_a", "value_b", "trace_distance"),
        csv_rows=[
            (a, b, value)
            for a, row in zip(names, report.distances)
            for b, value in zip(names, row)
        ],
        text="\n".join(lines) + "\n",
    )


def build_selftest(master_seed: int, checks: list[CheckResult]) -> Report:
    failures = sum(1 for check in checks if not check.passed)
    lines = [
        f"{_verdict(c.passed)}  {c.name}" + (f"  ({c.detail})" if c.detail else "")
        for c in checks
    ]
    lines += ["", f"{len(checks) - failures}/{len(checks)} checks passed"]
    return Report(
        ok=failures == 0,
        body=_body(
            {"seed": master_seed, "tolerance": OUTCOME_TOLERANCE},
            {"checks": len(checks), "failures": failures},
            selftest=[{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        ),
        csv_header=("check", "passed", "detail"),
        csv_rows=[(c.name, str(c.passed).lower(), c.detail) for c in checks],
        text="\n".join(lines) + "\n",
    )
