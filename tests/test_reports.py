import csv
import io
import json

import pytest

from bellcommit import __version__
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


class TestJsonReports:
    def test_run_report_shape(self):
        cfg = _config()
        stats = run_experiment(cfg)
        parsed = json.loads(reports.build_run(cfg, stats).render("json"))
        assert parsed["version"] == __version__
        assert parsed["config"]["strategy"] == "honest"
        assert parsed["config"]["seed"] == 5
        assert parsed["stats"]["acceptance_rate"] == 1.0
        assert "matrix" not in parsed
        assert "hiding" not in parsed

    def test_rendering_is_deterministic(self):
        cfg = _config()
        a = reports.build_run(cfg, run_experiment(cfg)).render("json")
        b = reports.build_run(cfg, run_experiment(cfg)).render("json")
        assert a == b

    def test_no_timestamps_or_environment_leaks(self):
        cfg = _config()
        text = reports.build_run(cfg, run_experiment(cfg)).render("json").lower()
        for needle in ("time", "date", "host", "path"):
            assert needle not in text

    def test_matrix_report_includes_rows_and_grid(self):
        cfg = _config(trials=5)
        matrix = acceptance_matrix(cfg)
        parsed = json.loads(reports.build_matrix(cfg, matrix).render("json"))
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
        stats = run_experiment(cfg)
        rows = list(csv.reader(io.StringIO(reports.build_run(cfg, stats).render("csv"))))
        assert rows[0] == ["strategy", "commit", "reveal", "policy", "acceptance_rate"]
        assert rows[1] == ["cheat", "bit0", "minus", "none", "1.0"]
        assert len(rows) == 2

    def test_matrix_csv_has_a_row_per_cell(self):
        cfg = _config(trials=5)
        matrix = acceptance_matrix(cfg)
        rows = list(csv.reader(io.StringIO(reports.build_matrix(cfg, matrix).render("csv"))))
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
        stats = run_experiment(cfg)
        text = reports.build_run(cfg, stats).render("text")
        assert "PASS" in text
        assert "acceptance rate" in text

    def test_matrix_text_lists_all_cells(self):
        cfg = _config(trials=5)
        text = reports.build_matrix(cfg, acceptance_matrix(cfg)).render("text")
        assert text.count("cheat") >= 4
        assert text.count("control") == 12
        assert "PASS" in text

    def test_selftest_text_one_line_per_check(self):
        checks = selftest(master_seed=2)
        lines = reports.build_selftest(2, checks).render("text").strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == len(checks)


class TestRender:
    def test_unknown_format_is_rejected(self):
        cfg = _config()
        with pytest.raises(ValueError):
            reports.build_run(cfg, run_experiment(cfg)).render("xml")
