"""Recorded mutants of the source, each of which its named tests must kill.

Each entry names a file under ``src/bellcommit``, one exact source string,
its replacement, and the tests that must fail once the replacement is made.
The string must occur exactly once, so a refactor that moves the site fails
here and the table is updated with it. For each mutant, ``src/`` is copied
to a temporary directory, mutated there, and the named tests run against the
copy in a child pytest with ``-x``. The child gets ``-o pythonpath=<copy>``
because ``pyproject.toml`` puts the checkout's ``src`` first on the path, so
``PYTHONPATH`` alone would import the unmutated code.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (name, file, source string, replacement, node ids that must fail)
MUTANTS = [
    (
        "unanimity-any",
        "harness.py",
        "unanimous = (outcomes == outcomes[..., :1]).all(axis=-1)",
        "unanimous = (outcomes == outcomes[..., :1]).any(axis=-1)",
        ["tests/test_harness.py::TestBatchedEngine::test_a_mixed_receiver_free_register_equals_the_reference"],
    ),
    (
        "passed-on-rate",
        "harness.py",
        "return self.accepts == self.config.trials and",
        "return self.acceptance_rate == 1.0 and",
        ["tests/test_reports.py::TestMatrixVerdict::test_one_trial_off_the_count_fails"],
    ),
    (
        "matrix-verdict-any",
        "reports.py",
        "all(cell.passed for cell in cells)",
        "any(cell.passed for cell in cells)",
        ["tests/test_reports.py::TestMatrixVerdict::test_passed_flags_a_bad_cell"],
    ),
    (
        "undo-in-forward-order",
        "protocol.py",
        "for ops in reversed(session.ops):",
        "for ops in session.ops:",
        ["tests/test_protocol.py::TestRevealAndVerify::test_announced_probabilities_match_the_undone_state"],
    ),
    (
        "flip-by-or",
        "attack.py",
        "return src ^ dst",
        "return src | dst",
        ["tests/test_attack.py::TestPauliForFlip::test_agrees_with_exhaustive_search_on_all_sixteen_pairs"],
    ),
    (
        "selftest-receiver-on-qubit-0",
        "harness.py",
        "b = apply_rows(apply_rows(states, ops, 1), flip, 0)",
        "b = apply_rows(apply_rows(states, ops, 0), flip, 0)",
        ["tests/test_harness.py::TestSelftest::test_all_checks_pass"],
    ),
    (
        "matrix-grid-transposed",
        "reports.py",
        "grid[commit, announce]",
        "grid[announce, commit]",
        ["tests/test_reports.py::TestMatrixLayout::test_every_number_comes_from_its_own_cell"],
    ),
]


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, node_ids: list[str]) -> subprocess.CompletedProcess:
    # no PYTHONPATH, so nothing but the copy can supply the package; no
    # plugin autoload, which costs a second per child and no named test uses
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *node_ids]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name, file, source, replacement, node_ids", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_the_named_tests_kill_the_mutant(name, file, source, replacement, node_ids, tmp_path):
    src = _copy_src(tmp_path)
    path = src / "bellcommit" / file
    text = path.read_text()
    assert text.count(source) == 1, f"{name}: the site moved; update its source string"
    path.write_text(text.replace(source, replacement))
    result = _pytest(src, node_ids)
    # exit code 1 is failed tests; a usage or collection error would be another code
    assert result.returncode == 1, result.stdout + result.stderr


def test_an_unmutated_copy_passes_every_named_test(tmp_path):
    result = _pytest(_copy_src(tmp_path), sorted({node for *_, node_ids in MUTANTS for node in node_ids}))
    assert result.returncode == 0, result.stdout + result.stderr
