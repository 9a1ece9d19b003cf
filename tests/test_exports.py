"""Every exported name of every ``polymg`` module exists."""

import importlib
import pkgutil

import pytest

import polymg

MODULES = ["polymg"] + [f"polymg.{info.name}" for info in pkgutil.iter_modules(polymg.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deleted function must take its __all__ entry with it
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
