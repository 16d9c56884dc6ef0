import inspect
import re
from pathlib import Path

import bellcommit
from bellcommit import qcore

README = Path(__file__).resolve().parent.parent / "README.md"

# kernel and oracle names that live in bellcommit.qcore, not at the top level
QCORE_ONLY = (
    "ATOL_ACCUM",
    "ATOL_EXACT",
    "BELL",
    "PAULI",
    "StateVector",
    "Unitary",
    "apply_rows",
    "apply_unitary",
    "bell_pair_probabilities",
    "bell_probabilities",
    "measure_bell_pairs",
    "random_unitaries",
    "random_unitary",
    "receiver_states",
    "trace_distances",
)


def test_every_exported_name_resolves():
    missing = [name for name in bellcommit.__all__ if not hasattr(bellcommit, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(bellcommit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(bellcommit.__all__) - {"__version__"}


def test_the_top_level_exports_only_the_protocol():
    # labels and Paulis are plain ints, so no qcore name is needed at the top level
    from_qcore = {
        name
        for name, value in vars(bellcommit).items()
        if not name.startswith("_") and vars(qcore).get(name, object()) is value
    }
    assert from_qcore == set()
    assert [name for name in QCORE_ONLY if not hasattr(qcore, name)] == []


def test_the_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block.group(1), str(README), "exec"), {})
