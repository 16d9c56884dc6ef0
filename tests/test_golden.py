"""Byte-for-byte comparison of CLI reports against pinned golden files.

The files under ``tests/golden/`` were produced by the CLI with the
arguments in ``COMMANDS`` below. Regenerate one with, for example::

    PYTHONPATH=src python -m bellcommit run --strategy cheat --reveal minus \
        --pairs 2 --trials 50 --bc-ops random-entangled --ancillas 1 \
        --format json --out tests/golden/run.json

A golden changes only when the report format or the simulated physics does,
and every such change must be deliberate.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bellcommit import __version__, cli
from test_cli import _child_env

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
    "hiding": ["hiding", "--ancillas", "1"],
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


# The `hiding` and `selftest` reports hold byte for byte on every kernel.
# The Haar `run` goldens (`run`, `run-seed-max`) stay out until ROADMAP
# item 6 makes the Haar QR and the receiver's apply kernel-independent: on
# an AVX2 kernel, `run`'s `min outcome probability` moves in its last digits.
KERNEL_FREE = ("hiding", "selftest", "selftest-20260819")


# OpenBLAS picks a kernel for the host at run time unless OPENBLAS_CORETYPE
# names one: Haswell is an AVX2 kernel, Prescott SSE3
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_kernel_free_reports_match_golden_on_every_kernel(coretype, tmp_path):
    argvs = [[*COMMANDS[command], "--format", fmt, "--out", str(tmp_path / f"{command}.{fmt}")]
             for command in KERNEL_FREE for fmt in ("text", "json", "csv")]
    script = (
        "import json, sys\n"
        "from bellcommit import cli\n"
        "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    env = _child_env()
    env["OPENBLAS_CORETYPE"] = coretype
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True,
                            text=True, env=env, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    written = sorted(tmp_path.iterdir())
    assert len(written) == 3 * len(KERNEL_FREE)
    assert [path.name for path in written if path.read_bytes() != (GOLDEN / path.name).read_bytes()] == []


def test_package_and_project_versions_agree():
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert match.group(1) == __version__
