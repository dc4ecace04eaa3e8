import importlib
import importlib.util
import inspect
import os
import pkgutil
import sys

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


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    """The benchmark's tracer wraps public zdalab attributes; a hook whose
    target is gone is reported as missing, and the per-layer metrics it feeds
    silently drop out of every traced run."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = [(m, a) for m, a, *_ in tracing.HOOKS if not callable(getattr(getattr(zdalab, m), a, None))]
    assert tracing.HOOKS and missing == []
