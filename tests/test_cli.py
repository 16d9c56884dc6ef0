import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bellcommit import cli, reports
from bellcommit.harness import Cell, ExperimentConfig, Strategy, run_experiment
from bellcommit.protocol import BCPolicy, CommitValue

FAST = ["--pairs", "2", "--trials", "10"]
README = Path(__file__).resolve().parents[1] / "README.md"
VALUES = ["bit0", "bit1", "plus", "minus"]


def _child_env():
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``.

    A child process then imports the ``bellcommit`` under test, not whichever
    one the inherited environment finds.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_line_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestRunCommand:
    def test_honest_defaults_pass(self, capsys):
        code, out, _ = _run(["run", *FAST], capsys)
        assert code == 0
        assert "PASS" in out

    def test_cheat_json_report(self, capsys):
        code, out, _ = _run(
            ["run", *FAST, "--strategy", "cheat", "--reveal", "minus",
             "--bc-ops", "random-entangled", "--ancillas", "1",
             "--seed", "9", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["strategy"] == "cheat"
        assert doc["config"]["reveal"] == "minus"
        assert doc["stats"]["acceptance_rate"] == 1.0
        assert doc["stats"]["min_outcome_probability"] >= 1 - 1e-9

    def test_defaults_are_the_documented_ones(self, capsys):
        # README's flag table
        code, out, _ = _run(["run", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {
            "strategy": "honest", "commit": "bit0", "reveal": "bit0", "pairs": 8, "trials": 1000,
            "bc_policy": "none", "ancillas": 0, "seed": 0, "tolerance": 1e-9,
        }

    # the commit is derived: an honest committer commits what it reveals, and
    # the cheating preparation is fixed to bit0
    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("strategy", ["honest", "cheat"])
    def test_the_commit_follows_from_the_strategy_and_the_reveal(self, strategy, value, capsys):
        code, out, _ = _run(["run", *FAST, "--strategy", strategy, "--reveal", value, "--format", "json"],
                            capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["commit"], config["reveal"]) == (value if strategy == "honest" else "bit0", value)

    # the derived commit gives the bytes of a library run that names it
    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("strategy", ["honest", "cheat"])
    def test_the_derived_commit_gives_the_explicit_commit_report(self, strategy, value, capsys):
        seed = 2**64 - 1
        code, out, _ = _run(["run", *FAST, "--strategy", strategy, "--reveal", value,
                             "--bc-ops", "random-local", "--seed", str(seed), "--format", "json"], capsys)
        assert code == 0
        config = ExperimentConfig(
            Strategy(strategy), CommitValue(value if strategy == "honest" else "bit0"), CommitValue(value),
            n_pairs=2, trials=10, bc_policy=BCPolicy.RANDOM_LOCAL, master_seed=seed,
        )
        assert out == reports.build_run(run_experiment(config)).render("json")

    def test_csv_format(self, capsys):
        code, out, _ = _run(["run", *FAST, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "strategy"
        assert rows[1][4] == "1.0"

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = _run(["run", *FAST, "--format", "json", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["stats"]["accepts"] == 10


class TestInvalidConfigurations:
    def test_entangled_policy_without_ancillas_exits_two(self, capsys):
        code, _, _ = _run(["run", *FAST, "--bc-ops", "random-entangled"], capsys)
        assert code == 2

    def test_too_many_ancillas_exits_two(self, capsys):
        code, _, _ = _run(["run", *FAST, "--ancillas", "9"], capsys)
        assert code == 2

    @pytest.mark.parametrize("ancillas", ["3", "-1"])
    @pytest.mark.parametrize("argv", [["run", *FAST], ["matrix", *FAST], ["hiding"]],
                             ids=["run", "matrix", "hiding"])
    def test_ancillas_out_of_range_give_the_same_line(self, argv, ancillas, capsys):
        # hiding checks its count below the config layer, in the config's words
        code, out, err = _run([*argv, "--ancillas", ancillas], capsys)
        _assert_one_line_error(code, out, err)
        assert err == "error: ancillas must be between 0 and 2\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", [["run", *FAST], ["matrix", *FAST], ["selftest"]],
                             ids=["run", "matrix", "selftest"])
    def test_seed_outside_uint64_exits_two(self, argv, seed, capsys):
        code, out, err = _run([*argv, "--seed", seed], capsys)
        _assert_one_line_error(code, out, err)
        assert err == "error: master_seed must fit in an unsigned 64-bit integer\n"

    def test_out_naming_a_directory_exits_two(self, tmp_path, capsys):
        code, out, err = _run(["run", *FAST, "--out", str(tmp_path)], capsys)
        _assert_one_line_error(code, out, err)
        assert repr(str(tmp_path)) in err

    def test_an_empty_out_exits_two(self, capsys):
        # an empty path names no file: it must not fall back to stdout
        code, out, err = _run(["run", *FAST, "--out", ""], capsys)
        _assert_one_line_error(code, out, err)
        assert "''" in err

    def test_out_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out, err = _run(["run", *FAST, "--out", str(target)], capsys)
        _assert_one_line_error(code, out, err)
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("run_experiment", ["run", *FAST]),
            ("acceptance_matrix", ["matrix", *FAST]),
            ("hiding_report", ["hiding"]),
        ],
        ids=["run", "matrix", "hiding"],
    )
    def test_register_too_large_to_allocate_exits_two(self, entry, argv, capsys, monkeypatch):
        # a real oversized --pairs fails fast or not depending on the host's
        # overcommit setting, so the allocation failure is injected
        def out_of_memory(config):
            raise MemoryError("Unable to allocate 512. TiB for an array")

        monkeypatch.setattr(cli, entry, out_of_memory)
        code, out, err = _run(argv, capsys)
        _assert_one_line_error(code, out, err)
        assert "512. TiB" in err

    def test_huge_haar_register_exits_two_at_once(self):
        # the first array allocated is random_unitaries' Ginibre stack of the
        # trial's receiver matrices, made before any draw (559 TiB, more than a
        # process's address space under any overcommit setting); the timeout
        # turns a run that computes without bound into a failure instead of a hang
        result = subprocess.run(
            [sys.executable, "-m", "bellcommit", "run", "--bc-ops", "random-entangled", "--ancillas", "2",
             "--pairs", "600000000000", "--trials", "1"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        _assert_one_line_error(result.returncode, result.stdout, result.stderr)
        assert result.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in result.stderr

    # certain outcomes need no draw, so a --bc-ops none run makes no array
    # of its pairs or trials; only the int64 counts can refuse them
    @pytest.mark.parametrize(
        "argv",
        [[command, "--bc-ops", "none", *counts]
         for command in ("run", "matrix")
         for counts in (["--pairs", str(2**63), "--trials", "1"], ["--trials", str(2**63)])],
        ids=["run-pairs", "run-trials", "matrix-pairs", "matrix-trials"],
    )
    def test_counts_beyond_int64_exit_two(self, argv, capsys):
        code, out, err = _run(argv, capsys)
        _assert_one_line_error(code, out, err)
        assert err == "error: too large to run: pairs and trials must each be below 2**63\n"

    # control is a library strategy only: the CLI offers honest and cheat;
    # hiding takes no --bc-ops or --seed, since no receiver operation and no
    # seed changes a trace distance, and no --pairs, since every pair holds
    # the same row; run derives its commit from the strategy and the reveal,
    # and every verdict is judged at the fixed OUTCOME_TOLERANCE, so no
    # subcommand takes --commit or --tolerance
    @pytest.mark.parametrize(
        "argv",
        [["run", "--strategy", "sneaky"], ["run", "--strategy", "control"],
         ["hiding", "--bc-ops", "none"], ["hiding", "--seed", "3"], ["hiding", "--pairs", "2"],
         ["run", "--commit", "bit1"], ["run", "--tolerance", "1e-9"], ["matrix", "--tolerance", "1e-9"],
         ["selftest", "--tolerance", "1e-9"], ["run", "--pairs", "1x"]],
        ids=["sneaky", "control", "hiding-bc-ops", "hiding-seed", "hiding-pairs", "run-commit",
             "run-tolerance", "matrix-tolerance", "selftest-tolerance", "malformed-int"],
    )
    def test_unknown_flag_value_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        # one error line, without argparse's usage block
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_a_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
        assert "required" in capsys.readouterr().err


class TestCertainOutcomes:
    # OpenBLAS picks a kernel for the host at run time unless
    # OPENBLAS_CORETYPE names one: Haswell is an AVX2 kernel, Prescott SSE3
    @pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
    @pytest.mark.parametrize("ancillas", [0, 1, 2])
    def test_default_matrix_never_imports_numpy_random(self, ancillas, coretype):
        # every receiver-free outcome is certain on every BLAS kernel, so the
        # run makes no draw and needs no generator
        script = (
            "import sys\n"
            "from bellcommit import cli\n"
            f"code = cli.main(['matrix', '--ancillas', '{ancillas}'])\n"
            "sys.stderr.write(f\"{code} {'numpy.random' in sys.modules}\\n\")\n"
        )
        env = _child_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, timeout=120)
        assert result.stderr == "0 False\n"
        assert "result  PASS" in result.stdout

    def test_the_largest_int64_trial_count_runs(self, capsys):
        trials = 2**63 - 1
        code, out, _ = _run(["run", "--bc-ops", "none", "--trials", str(trials), "--format", "json"],
                            capsys)
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["trials"] == stats["accepts"] == trials
        assert stats["acceptance_rate"] == 1.0


class TestMatrixCommand:
    def test_text_output_passes(self, capsys):
        code, out, _ = _run(["matrix", *FAST, "--seed", "4"], capsys)
        assert code == 0
        assert "result  PASS" in out

    def test_json_summary(self, capsys):
        code, out, _ = _run(["matrix", *FAST, "--seed", "4", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["stats"]["cheat_min_rate"] == 1.0
        assert doc["stats"]["honest_min_rate"] == 1.0
        assert doc["stats"]["control_max_rate"] == 0.0
        assert doc["stats"]["passed"] is True
        assert len(doc["matrix"]["rows"]) == 20

    def test_json_config_echoes_only_the_shared_settings(self, capsys):
        # every cell sets its own strategy, commit and reveal, so none is echoed
        code, out, _ = _run(["matrix", *FAST, "--seed", "4", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {
            "pairs": 2, "trials": 10, "bc_policy": "none", "ancillas": 0, "seed": 4, "tolerance": 1e-9,
        }

    def test_csv_rows(self, capsys):
        code, out, _ = _run(["matrix", *FAST, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 21


class TestHidingCommand:
    def test_text(self, capsys):
        code, out, _ = _run(["hiding"], capsys)
        assert code == 0
        assert "result        PASS" in out

    def test_json(self, capsys):
        code, out, _ = _run(["hiding", "--ancillas", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"ancillas": 2}
        assert doc["stats"]["passed"] is True
        assert doc["stats"]["max_distance"] <= 1e-12


class TestSelftestCommand:
    def test_text(self, capsys):
        code, out, _ = _run(["selftest", "--seed", "2"], capsys)
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = _run(["selftest", "--seed", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["stats"]["failures"] == 0
        assert all(check["passed"] for check in doc["selftest"])

    def test_json_echoes_the_fixed_tolerance(self, capsys):
        code, out, _ = _run(["selftest", "--seed", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {"seed": 2, "tolerance": 1e-9}


class TestExitCodeOne:
    def test_failed_assertion_maps_to_one(self, capsys, monkeypatch):
        # a rejected trial cannot be produced honestly, so fake one
        monkeypatch.setattr(cli, "run_experiment", lambda config: Cell(config, 9, 1.0))
        code, out, _ = _run(["run", *FAST], capsys)
        assert code == 1
        assert "FAIL" in out


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "bellcommit", "run", "--pairs", "1", "--trials", "2"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=120,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout


class TestReadme:
    def test_the_flag_table_lists_every_flag(self):
        # README's "### Flags" table names each flag once, in its first cell
        section = README.read_text().split("### Flags\n", 1)[1].split("\n#", 1)[0]
        documented = re.findall(r"^\| `(--[a-z-]+)`", section, re.MULTILINE)
        taken = {flag for _, flags in cli._SUBCOMMANDS.values() for flag in flags}
        assert sorted(documented) == sorted(taken)
