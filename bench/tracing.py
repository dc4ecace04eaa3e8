"""Spans and counters for the traced benchmark run.

The tracer wraps public attributes of the zdalab modules at run time and
restores them afterwards; nothing in the package itself is changed.  Each
wrapped call records a span (name, start, end, parent) and, where a hook
asks for it, counters.  Spans live in memory and are reduced to per-layer
metrics when the run ends.  A hook whose target no longer exists is
reported as missing, and the metrics it feeds are left out rather than
reported as zero.
"""
from __future__ import annotations

import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

EXPM_BUCKETS = ((16, "d_le16"), (64, "d_le64"), (256, "d_le256"))


def expm_bucket(dim: int) -> str:
    """Name of the matrix-dimension bucket of one expm call."""
    for limit, name in EXPM_BUCKETS:
        if dim <= limit:
            return name
    return "d_gt256"


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int | None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_simulate(tr, args, kwargs, result):
    tr.count("scheduling.switches", len(_arg(args, kwargs, 1, "sched").switch_times))
    tr.count("simulation.samples", len(result.times))
    tr.count("simulation.segments", len(result.segments))


def _after_synthesize(tr, args, kwargs, result):
    tr.count("attacks.calls")
    tr.count("attacks.found", result is not None)


def _after_csv(tr, args, kwargs, result):
    tr.count("simulation.csv_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _expm_counter(layer):
    def after(tr, args, kwargs, result):
        tr.count(f"{layer}.expm_calls")
        tr.count(f"{layer}.expm_calls.{expm_bucket(args[0].shape[0])}")

    return after


def _pencil_counter(tr, args, kwargs, result):
    tr.count("attacks.pencil_evals")


_EXPM_METRICS = ("expm_calls",) + tuple(f"expm_calls.{b}" for _, b in EXPM_BUCKETS) + (
    "expm_calls.d_gt256",
)

# (module, attribute, span name or None for counters only, after-hook,
#  per-layer metrics the hook feeds)
HOOKS = (
    ("scenario", "run", "scenario.run", None,
     ("scenario.run.self_s", "cli.sweep.run_busy_s", "cli.sweep.overlap")),
    ("scenario", "build_schedule", "scheduling.schedule", None, ("scheduling.schedule_s",)),
    ("scenario", "validate", "scenario.validate", None, ("scenario.validate_s",)),
    ("attacks", "synthesize", "attacks.synthesize", _after_synthesize,
     ("attacks.synthesize_s", "attacks.calls", "attacks.found", "attacks.found_ratio")),
    ("attacks", "rosenbrock_pencil", None, _pencil_counter, ("attacks.pencil_evals",)),
    ("simulation", "simulate", "simulation.simulate", _after_simulate,
     ("simulation.simulate_s", "simulation.samples", "simulation.segments",
      "scheduling.switches")),
    ("simulation", "expm", None, _expm_counter("simulation"),
     tuple(f"simulation.{m}" for m in _EXPM_METRICS)),
    ("simulation", "consensus_error", "simulation.consensus_error", None,
     ("scenario.run.self_s",)),
    ("simulation", "trace_to_csv", "simulation.csv", _after_csv,
     ("simulation.csv_s", "simulation.csv_bytes")),
    ("observer", "run_observer", "observer.run_observer", None, ("observer.run_observer_s",)),
    ("observer", "expm", None, _expm_counter("observer"),
     tuple(f"observer.{m}" for m in _EXPM_METRICS)),
    ("observer", "detect", "observer.detect", None, ("observer.detect_s",)),
)

# per-layer metric -> span whose summed duration it reports
SPAN_TIMES = {
    "scheduling.schedule_s": "scheduling.schedule",
    "scenario.validate_s": "scenario.validate",
    "attacks.synthesize_s": "attacks.synthesize",
    "simulation.simulate_s": "simulation.simulate",
    "simulation.csv_s": "simulation.csv",
    "observer.run_observer_s": "observer.run_observer",
    "observer.detect_s": "observer.detect",
    "cli.sweep.run_busy_s": "scenario.run",
}

COUNTS = (
    "scheduling.switches",
    "attacks.calls",
    "attacks.found",
    "attacks.pencil_evals",
    "simulation.samples",
    "simulation.segments",
    "simulation.csv_bytes",
    "scenario.warnings",
) + tuple(f"simulation.{m}" for m in _EXPM_METRICS) + tuple(
    f"observer.{m}" for m in _EXPM_METRICS
)


class Tracer:
    """Collects spans and counters from wrapped zdalab attributes."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self.missing: set[str] = set()
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(self.op, name, time.perf_counter(), 0.0, parent)
            )
        stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value=1):
        with self._lock:
            self.counts[self.op][name] += int(value)

    def begin_op(self, op: int):
        """Open the root span of one traced operation."""
        self.op = op
        self._root = self._open("op")

    def end_op(self, warnings_caught: int):
        self._close(self._root)
        self.count("scenario.warnings", warnings_caught)
        self._root = None

    def _wrap(self, module, attr, span_name, after, metrics):
        orig = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(span_name) if span_name else None
            try:
                result = orig(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer._close(idx)
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the call's arguments or result changed shape
                    tracer.missing.update(metrics)
            return result

        wrapper.__wrapped__ = orig
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def install(self):
        for mod_name, attr, span_name, after, metrics in HOOKS:
            module = getattr(self.modules, mod_name)
            if not callable(getattr(module, attr, None)):
                self.missing.update(metrics)
                continue
            self._wrap(module, attr, span_name, after, metrics)

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def metrics(self) -> dict:
        """Per-layer metrics: the median over traced operations of each
        operation's summed span time or counter."""
        ops = sorted({s.op for s in self.spans if s.name == "op"})
        per_op = []
        for op in ops:
            spans = [(k, s) for k, s in enumerate(self.spans) if s.op == op]
            total = Counter()
            for _, s in spans:
                total[s.name] += s.end - s.start
            m = {name: total[span] for name, span in SPAN_TIMES.items()}
            counts = self.counts[op]
            for name in COUNTS:
                m[name] = counts[name]
            calls = counts["attacks.calls"]
            m["attacks.found_ratio"] = counts["attacks.found"] / calls if calls else 0.0
            wall = total["op"]
            m["cli.sweep.overlap"] = total["scenario.run"] / wall if wall > 0 else 0.0
            # self time of scenario.run: its span minus its direct children
            run_ids = {k for k, s in spans if s.name == "scenario.run"}
            child = sum(s.end - s.start for _, s in spans if s.parent in run_ids)
            m["scenario.run.self_s"] = total["scenario.run"] - child
            per_op.append(m)
        out = {}
        for name in per_op[0] if per_op else ():
            if name not in self.missing:
                out[name] = statistics.median(m[name] for m in per_op)
        return out
