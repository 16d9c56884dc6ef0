import inspect

import bellcommit


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
