import csv
import io
import json
from dataclasses import replace

import pytest

from bellcommit import __version__, harness
from bellcommit.harness import (
    ExperimentConfig,
    Strategy,
    acceptance_matrix,
    hiding_report,
    run_experiment,
    selftest,
)
from bellcommit.protocol import CommitValue
from bellcommit import reports


def _config(**overrides):
    base = dict(strategy=Strategy.HONEST, n_pairs=2, trials=10, master_seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


VALUES = ["bit0", "bit1", "plus", "minus"]
# a matrix's cells in order: the cheat row, the honest diagonal, then the controls by commit
CELL_ORDER = ([("cheat", "bit0", value) for value in VALUES] + [("honest", value, value) for value in VALUES]
              + [("control", commit, announce) for commit in VALUES for announce in VALUES if commit != announce])


def _verdicts(cells):
    """The matrix report's three statements of its verdict: ``ok`` and the JSON's two ``passed``."""
    report = reports.build_matrix(tuple(cells))
    doc = json.loads(report.render("json"))
    return report.ok, doc["stats"]["passed"], doc["matrix"]["passed"]


class TestJsonReports:
    def test_run_report_shape(self):
        cfg = _config()
        parsed = json.loads(reports.build_run(run_experiment(cfg)).render("json"))
        assert parsed["version"] == __version__
        assert parsed["config"]["strategy"] == "honest"
        assert parsed["config"]["seed"] == 5
        assert parsed["stats"]["acceptance_rate"] == 1.0
        assert "matrix" not in parsed
        assert "hiding" not in parsed

    def test_rendering_is_deterministic(self):
        cfg = _config()
        a = reports.build_run(run_experiment(cfg)).render("json")
        b = reports.build_run(run_experiment(cfg)).render("json")
        assert a == b

    def test_no_timestamps_or_environment_leaks(self):
        cfg = _config()
        text = reports.build_run(run_experiment(cfg)).render("json").lower()
        for needle in ("time", "date", "host", "path"):
            assert needle not in text

    def test_matrix_report_includes_rows_and_grid(self):
        cfg = _config(trials=5)
        matrix = acceptance_matrix(cfg)
        parsed = json.loads(reports.build_matrix(matrix).render("json"))
        assert parsed["matrix"]["values"] == ["bit0", "bit1", "plus", "minus"]
        assert len(parsed["matrix"]["rows"]) == 20  # 4 cheat + 4 honest + 12 control
        assert parsed["matrix"]["cheat_rates"] == [1.0, 1.0, 1.0, 1.0]
        grid = parsed["matrix"]["grid_rates"]
        assert all(grid[i][i] == 1.0 for i in range(4))

    def test_hiding_report_shape(self):
        parsed = json.loads(reports.build_hiding(1, hiding_report(1)).render("json"))
        assert parsed["hiding"]["passed"] is True
        assert len(parsed["hiding"]["distances"]) == 4
        assert parsed["hiding"]["threshold"] == 1e-12
        assert parsed["config"] == {"ancillas": 1, "format": "json"}


class TestCsvReports:
    def test_run_csv_single_row(self):
        cfg = _config(strategy=Strategy.CHEAT, reveal_value=CommitValue.MINUS)
        rows = list(csv.reader(io.StringIO(reports.build_run(run_experiment(cfg)).render("csv"))))
        assert rows[0] == ["strategy", "commit", "reveal", "policy", "acceptance_rate"]
        assert rows[1] == ["cheat", "bit0", "minus", "none", "1.0"]
        assert len(rows) == 2

    def test_matrix_csv_has_a_row_per_cell(self):
        cfg = _config(trials=5)
        matrix = acceptance_matrix(cfg)
        rows = list(csv.reader(io.StringIO(reports.build_matrix(matrix).render("csv"))))
        assert len(rows) == 21  # header + 20 cells
        strategies = {row[0] for row in rows[1:]}
        assert strategies == {"cheat", "honest", "control"}
        for row in rows[1:]:
            if row[0] == "control":
                assert row[4] == "0.0"
            else:
                assert row[4] == "1.0"

    def test_hiding_csv(self):
        rows = list(csv.reader(io.StringIO(reports.build_hiding(0, hiding_report(0)).render("csv"))))
        assert rows[0] == ["value_a", "value_b", "trace_distance"]
        assert len(rows) == 17

    def test_selftest_csv(self):
        checks = selftest(master_seed=2)
        rows = list(csv.reader(io.StringIO(reports.build_selftest(2, checks).render("csv"))))
        assert rows[0] == ["check", "passed", "detail"]
        assert all(row[1] == "true" for row in rows[1:])


class TestTextReports:
    def test_run_text_mentions_the_verdict(self):
        cfg = _config()
        text = reports.build_run(run_experiment(cfg)).render("text")
        assert "PASS" in text
        assert "acceptance rate" in text

    def test_matrix_text_lists_all_cells(self):
        cfg = _config(trials=5)
        text = reports.build_matrix(acceptance_matrix(cfg)).render("text")
        assert text.count("cheat") >= 4
        assert text.count("control") == 12
        assert "PASS" in text

    def test_selftest_text_one_line_per_check(self):
        checks = selftest(master_seed=2)
        lines = reports.build_selftest(2, checks).render("text").strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == len(checks)


class TestMatrixLayout:
    # cell i accepts K[i] of 20 trials: every rate distinct, so a grid read
    # as [announce][commit], or a summary taking the wrong extreme, shows
    K = [(13 * i + 5) % 20 for i in range(20)]

    def test_every_number_comes_from_its_own_cell(self):
        cfg = _config(trials=20)
        cells = [replace(cell, accepts=k, min_outcome_probability=1.0)
                 for cell, k in zip(acceptance_matrix(cfg), self.K)]
        report = reports.build_matrix(tuple(cells))
        doc = json.loads(report.render("json"))
        assert doc["matrix"]["cheat_rates"] == [0.25, 0.9, 0.55, 0.2]
        # [commit][announce]: the honest diagonal, each control off it
        assert doc["matrix"]["grid_rates"] == [[k / 20 for k in row] for row in
                                               [[17, 9, 2, 15], [8, 10, 1, 14], [7, 0, 3, 13], [6, 19, 12, 16]]]
        assert doc["stats"] == {"cheat_min_rate": 0.2, "honest_min_rate": 0.15, "control_max_rate": 0.95,
                                "passed": False}
        rows = list(csv.reader(io.StringIO(report.render("csv"))))
        assert rows[1:] == [[*key, "none", repr(k / 20)] for key, k in zip(CELL_ORDER, self.K)]
        text = report.render("text").splitlines()
        assert text[3:23] == [f"{s:<8}  {c:<6}  {r:<6}  {k / 20:.6f}" for (s, c, r), k in zip(CELL_ORDER, self.K)]
        assert text[23:] == ["", "result  FAIL"]


class TestMatrixVerdict:
    def test_passed_flags_a_bad_cell(self):
        cfg = _config(trials=5)
        cells = list(acceptance_matrix(cfg))
        assert _verdicts(cells) == (True, True, True)
        # the cheat cell revealing plus
        cells[2] = replace(cells[2], accepts=4, min_outcome_probability=0.5)
        assert _verdicts(cells) == (False, False, False)

    def test_passed_flags_an_accepting_control(self):
        cfg = _config(trials=5)
        cells = list(acceptance_matrix(cfg))
        kinds = [cell.config.strategy for cell in cells]
        assert kinds == [Strategy.CHEAT] * 4 + [Strategy.HONEST] * 4 + [Strategy.CONTROL] * 12
        cells[-1] = replace(cells[-1], accepts=1, min_outcome_probability=0.0)
        assert _verdicts(cells) == (False, False, False)

    # one trial off the count: a cheat or honest cell that rejects one trial,
    # a control that accepts one; at 2**60 trials the first two rates still read 1.0
    @pytest.mark.parametrize("trials", [10, 2**60])
    @pytest.mark.parametrize("index", [0, 4, 19], ids=["cheat", "honest", "control"])
    def test_one_trial_off_the_count_fails(self, index, trials):
        cells = list(acceptance_matrix(_config(trials=trials)))
        control = cells[index].config.strategy is Strategy.CONTROL
        cells[index] = replace(cells[index], accepts=1 if control else trials - 1)
        assert not cells[index].passed()
        run = reports.build_run(cells[index])
        assert not run.ok
        assert run.render("text").splitlines()[-1].split() == ["result", "FAIL"]
        assert _verdicts(cells) == (False, False, False)

    def test_passed_checks_outcome_probabilities(self):
        cfg = _config(trials=5)
        cells = list(acceptance_matrix(cfg))
        cells[0] = replace(cells[0], accepts=5, min_outcome_probability=0.99)
        assert _verdicts(cells) == (False, False, False)

    def test_every_cell_is_judged_at_the_fixed_tolerance(self, monkeypatch):
        cfg = _config(trials=5)
        cells = list(acceptance_matrix(cfg))
        cells[0] = replace(cells[0], accepts=5, min_outcome_probability=0.99)
        assert _verdicts(cells) == (False, False, False)
        monkeypatch.setattr(harness, "OUTCOME_TOLERANCE", 0.5)
        assert _verdicts(cells) == (True, True, True)


class TestRender:
    def test_unknown_format_is_rejected(self):
        cfg = _config()
        with pytest.raises(ValueError):
            reports.build_run(run_experiment(cfg)).render("xml")
