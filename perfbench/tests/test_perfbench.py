"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

TINY_CHEAT = bench._run_workload(
    "cheat", 2, 3, "--reveal", "minus", "--bc-ops", "random-entangled", "--ancillas", "2"
)
TINY_MATRIX = bench._matrix_workload(2, 2, "--bc-ops", "none")


@pytest.fixture(autouse=True)
def _at_checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _cli_args(workload, seed=0):
    return [*workload.argv, "--seed", str(seed), "--format", "json"]


def _forge(inv, edit):
    doc = json.loads(inv.report)
    edit(doc)
    return dataclasses.replace(inv, report=json.dumps(doc).encode())


@pytest.mark.parametrize("workload", [TINY_CHEAT, TINY_MATRIX])
def test_gate_passes_real_reports(workload):
    inv = bench.invoke(_cli_args(workload))
    assert inv.code == 0
    assert bench.wrong_verdicts(workload, inv) == 0


def test_gate_flags_one_wrong_accept_count():
    inv = bench.invoke(_cli_args(TINY_CHEAT))

    def drop_one_accept(doc):
        doc["stats"]["accepts"] -= 1

    tally = bench.Tally()
    tally.add(TINY_CHEAT, _forge(inv, drop_one_accept))
    assert tally.failed / tally.attempted > 0
    assert not tally.correct


def test_gate_flags_an_accepting_control_cell():
    inv = bench.invoke(_cli_args(TINY_MATRIX))

    def accept_half_a_control(doc):
        doc["matrix"]["grid_rates"][0][1] = 0.5

    assert bench.wrong_verdicts(TINY_MATRIX, _forge(inv, accept_half_a_control)) == 1


def test_gate_flags_a_low_outcome_probability():
    inv = bench.invoke(_cli_args(TINY_CHEAT))

    def lower_probability(doc):
        doc["stats"]["min_outcome_probability"] = 0.5

    forged = _forge(inv, lower_probability)
    assert bench.wrong_verdicts(TINY_CHEAT, forged) == TINY_CHEAT.trial_count


def test_failed_invocation_counts_every_trial():
    inv = bench.invoke([*_cli_args(TINY_CHEAT), "--tolerance", "-1"])
    assert inv.code == 2
    assert bench.wrong_verdicts(TINY_CHEAT, inv) == TINY_CHEAT.trial_count


def test_differing_reports_are_not_correct():
    inv = bench.invoke(_cli_args(TINY_CHEAT))
    tally = bench.Tally()
    tally.add(TINY_CHEAT, inv)
    tally.add(TINY_CHEAT, dataclasses.replace(inv, report=inv.report + b" "))
    assert tally.failed == 0
    assert not tally.correct


@pytest.mark.parametrize(
    "workload, haar_draws",
    [(TINY_CHEAT, TINY_CHEAT.pairs * TINY_CHEAT.trials), (TINY_MATRIX, 0)],
)
def test_traced_counts_and_tracing_is_observational(workload, haar_draws):
    plain = bench.invoke(_cli_args(workload))
    spans = bench.invoke(_cli_args(workload), trace=True)
    assert spans.code == 0
    assert spans.measured["calls"]["qcore.random_unitary"] == haar_draws
    assert spans.report == plain.report


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(monkeypatch, capsys, trace):
    monkeypatch.setitem(bench.WORKLOADS, "cheat-entangled", TINY_CHEAT)
    monkeypatch.setattr(bench, "SETUP_ONLY_SPAWNS", 1)
    argv = ["--workload", "cheat-entangled", "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert info["seed"] == 7
    assert "--seed" in info["command"] and "7" in info["command"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= TINY_CHEAT.trials
    units = bench.per_layer_units() if trace else bench.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["qcore.random_unitary.calls"]["value"] == 6
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-none", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
