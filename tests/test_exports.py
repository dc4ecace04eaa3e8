import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import sys

import pytest

import zdalab
from zdalab import cli

from test_scenario_cli import _inline_attack_doc

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


def bench_tracing(monkeypatch):
    """The benchmark's ``bench/tracing.py`` module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    """The benchmark's tracer wraps public zdalab attributes; a hook whose
    target is gone is reported as missing, and the per-layer metrics it feeds
    silently drop out of every traced run."""
    tracing = bench_tracing(monkeypatch)
    missing = [(m, a) for m, a, *_ in tracing.HOOKS if not callable(getattr(getattr(zdalab, m), a, None))]
    assert tracing.HOOKS and missing == []


@pytest.mark.parametrize("rate", [0.05, 40.0], ids=["stable", "overflow"])
def test_benchmark_tracer_hooks_collect_their_metrics(monkeypatch, tmp_path, capsys, rate):
    """A hook that reads its call's arguments or result reports its metrics
    missing when they change shape.  One traced in-process ``run`` of an
    attacked document with an observer feeds every work counter, also when
    the plant overflows (rate 40) and the run ends with a partial trace."""
    tracing = bench_tracing(monkeypatch)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_inline_attack_doc(rate)))
    tracer = tracing.Tracer(zdalab)
    tracer.install()
    try:
        tracer.begin_op(0)
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == set()
    metrics = tracer.metrics()
    for name in ("simulation.samples", "simulation.segments", "scheduling.switches",
                 "observer.expm_calls", "simulation.csv_bytes"):
        assert metrics[name] > 0, name
