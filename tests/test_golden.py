"""Byte-for-byte comparison of CLI reports against pinned golden files.

The files under ``tests/golden/`` were produced by the CLI with the
arguments in ``COMMANDS`` below. Regenerate one with, for example::

    PYTHONPATH=src python -m bellcommit run --strategy cheat --reveal minus \
        --pairs 2 --trials 50 --bc-ops random-entangled --ancillas 1 \
        --format json --out tests/golden/run.json

A golden changes only when the report format or the simulated physics does,
and every such change must be deliberate.
"""

import re
from pathlib import Path

import pytest

from bellcommit import __version__, cli

GOLDEN = Path(__file__).parent / "golden"
HAAR = ["--bc-ops", "random-entangled", "--ancillas", "1"]
COMMANDS = {
    "run": ["run", "--strategy", "cheat", "--reveal", "minus", "--pairs", "2", "--trials", "50",
            *HAAR],
    "matrix": ["matrix", "--pairs", "2", "--trials", "50", *HAAR],
    # the largest seed, two entropy words, over several chunks of Haar draws
    "run-seed-max": ["run", "--strategy", "cheat", "--reveal", "plus", "--pairs", "3",
                     "--trials", "300", "--bc-ops", "random-local", "--ancillas", "1",
                     "--seed", "18446744073709551615"],
    # no receiver operations and no ancilla: every outcome is certain, and
    # the run makes no draws
    "run-none-seed-max": ["run", "--strategy", "cheat", "--reveal", "plus", "--pairs", "3",
                          "--trials", "3000", "--bc-ops", "none",
                          "--seed", "18446744073709551615"],
    "matrix-none": ["matrix", "--pairs", "8", "--trials", "1000", "--bc-ops", "none"],
    # with an ancilla too, every receiver-free outcome is certain, and the
    # run makes no draws
    "matrix-none-ancilla-seed-max": ["matrix", "--pairs", "3", "--trials", "700", "--bc-ops", "none",
                                     "--ancillas", "1", "--seed", "18446744073709551615"],
    "hiding": ["hiding", "--pairs", "2", *HAAR],
    "selftest": ["selftest"],
    "selftest-20260819": ["selftest", "--seed", "20260819"],
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_matches_golden(command, fmt, tmp_path):
    out = tmp_path / f"{command}.{fmt}"
    code = cli.main([*COMMANDS[command], "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.{fmt}").read_bytes()


def test_package_and_project_versions_agree():
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert match.group(1) == __version__
