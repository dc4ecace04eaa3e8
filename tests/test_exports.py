import importlib
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
