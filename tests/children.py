"""Child processes that import the checkout's ``bellcommit``, under a named BLAS kernel.

OpenBLAS picks a kernel for the host at run time unless OPENBLAS_CORETYPE
names one: Haswell is an AVX2 kernel, Prescott SSE3. A test that must hold
on every kernel runs its work in a child process per kernel.
"""

import os
import subprocess
import sys
from pathlib import Path

KERNELS = ["Haswell", "Prescott"]
TESTS = Path(__file__).resolve().parent


def child_env():
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``.

    A child process then imports the ``bellcommit`` under test, not whichever
    one the inherited environment finds.
    """
    env = dict(os.environ)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_on_kernel(coretype, script, *args):
    """Run ``python -c script *args`` under OpenBLAS kernel ``coretype`` (``None``: the host's pick).

    The child also imports the test modules, which come first on its path.
    """
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), env["PYTHONPATH"]])
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env,
                          timeout=120)
