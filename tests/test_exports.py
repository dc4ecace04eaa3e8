import importlib
import inspect
import pkgutil

import pytest

import zdalab

MODULES = ["zdalab"] + [f"zdalab.{m.name}" for m in pkgutil.iter_modules(zdalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is gone breaks
    ``from zdalab.<module> import *``."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_exported_callables_are_defined_in_their_module(name):
    """A submodule exports only the classes and functions it defines, not
    aliases of another module's names."""
    module = importlib.import_module(name)
    foreign = [
        n
        for n in getattr(module, "__all__", [])
        if (inspect.isclass(getattr(module, n)) or inspect.isfunction(getattr(module, n)))
        and getattr(module, n).__module__ != name
    ]
    assert foreign == []
