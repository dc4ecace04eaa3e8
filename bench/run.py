"""Benchmark of the zdalab package.

Run from the repository root:

    python3 bench/run.py --workload stealth-n4 --seed 1 --seconds 55 --trace 0

The run writes its seeded scenario files under ``.bench_work/``, measures
set-up in fresh interpreters, then alternates the warm in-process operation
with the workload's CLI verb as a subprocess for the given number of
seconds, checking every output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it interleaves untraced and traced
operations and reports the per-layer metrics of ``bench/metrics.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and sample counts.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("attacks", "cli", "graphs", "observer", "scenario", "scheduling", "simulation")
# each round sets up once, so this is also the least number of set-ups
MIN_ROUNDS = 5
# extra time allowed for reaching MIN_ROUNDS, so that a run on a stalled
# program still ends well within the three minutes a run may take
GRACE_S = 60.0
# synthesize calls per round, as a share of the round's other work, when
# the workload's own operation is not synthesis
SYNTH_SHARE = 0.4
SUBPROCESS_TIMEOUT_S = 30
# latencies per block when taking the 95th percentile: ten lie beyond it
TAIL_BLOCK = 200

# what the console script ``zdalab`` runs
CLI_STUB = "import sys; from zdalab.cli import main; sys.exit(main())"
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import zdalab
t1 = time.perf_counter()
from zdalab import scenario
for path in sys.argv[1:]:
    scenario.load_scenario(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


def p95(values) -> float:
    """95th percentile of a run's latencies, taken over consecutive blocks of
    at least TAIL_BLOCK of them (one block when there are fewer), with the
    median over the blocks reported.  On a shared host a busy neighbour
    slows a stretch of calls at a time and shows most in the tail, so one
    such stretch moves one block's percentile, not the run's."""
    n = max(1, len(values) // TAIL_BLOCK)
    blocks = [values[i * len(values) // n:(i + 1) * len(values) // n] for i in range(n)]
    return statistics.median(
        statistics.quantiles(b, n=20, method="inclusive")[18] for b in blocks
    )


class NoSamples(Exception):
    """Every attempt behind a metric failed."""


def metric_units() -> dict:
    with open(os.path.join(HERE, "metrics.json")) as fh:
        table = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in table[kind]} for kind in ("end_to_end", "per_layer")
    }


class Run:
    """One benchmark run: a workload, its measurements and its failures."""

    def __init__(self, args, root: str, work: str):
        self.args = args
        self.work = work
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, work)
        # the batch's own operation yields the synthesize latencies
        self.batch = isinstance(self.wl, workloads.SynthBatch)
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list] = {}
        self.missing: list[str] = []

    def attempt(self, what: str, fn, *fn_args):
        """Run fn, counting it; a raised exception or failed check is a
        failure, reported on stderr, and yields None."""
        self.attempted += 1
        try:
            return fn(*fn_args)
        except Exception:  # noqa: BLE001 - every failure is counted, none stops the run
            self.failed += 1
            print(f"bench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def values(self, name: str) -> list:
        if not self.samples.get(name):
            raise NoSamples(name)
        return self.samples[name]

    def _subprocess(self, argv):
        return subprocess.run(
            argv,
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )

    def setup_once(self, timed: bool):
        proc = self._subprocess([sys.executable, "-c", SETUP_CHILD, *self.wl.paths])
        workloads.require(proc.returncode == 0, f"set-up exited with {proc.returncode}:\n{proc.stderr}")
        if timed:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            self.sample("setup_s", rec["import_s"] + rec["load_s"])
            self.sample("cli.import_s", rec["import_s"])
            self.sample("scenario.load_s", rec["load_s"])

    def timed_op(self, name: str, out: str):
        t0 = time.perf_counter()
        result = self.wl.op(self.zl, out)
        self.sample(name, time.perf_counter() - t0)
        if self.batch:
            for lat in result[0]:
                self.sample("synth_ms", lat * 1e3)
        self.wl.check_op(self.zl, result, out)

    def timed_cli(self, k: int, out: str):
        argv = [sys.executable, "-c", CLI_STUB, *self.wl.cli(k, out)]
        t0 = time.perf_counter()
        proc = self._subprocess(argv)
        self.sample("cli_wall_s", time.perf_counter() - t0)
        if proc.returncode not in (0, 3):
            print(proc.stderr, file=sys.stderr)
        self.wl.check_cli(k, proc.returncode, out)

    def timed_synth(self, call):
        t0 = time.perf_counter()
        result = call()
        self.sample("synth_ms", (time.perf_counter() - t0) * 1e3)
        self.wl.check_synth(result)

    def traced_op(self, tracer, k: int, out: str):
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tracer.begin_op(k)
                t0 = time.perf_counter()
                try:
                    result = self.wl.op(self.zl, out)
                finally:
                    tracer.end_op(len(caught))
                self.sample("trace.run_s", time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        self.wl.check_op(self.zl, result, out)

    def prepare(self):
        # the first interpreter also compiles the package's bytecode
        self.attempt("set-up warm-up", self.setup_once, False)
        self.zl = types.SimpleNamespace(
            **{m: importlib.import_module(f"zdalab.{m}") for m in MODULES}
        )
        self.out_op = os.path.join(self.work, "out_op")
        self.out_cli = os.path.join(self.work, "out_cli")
        self.attempt("scenario load", self.wl.load, self.zl)
        self.attempt("warm-up operation", self.wl.reference, self.zl, self.out_op)

    def rounds(self):
        """Yield round numbers until the measuring time is over.  Every kind
        of measurement is made in every round, so slow drifts of the
        machine's speed reach all metrics alike."""
        end = time.perf_counter() + self.args.seconds
        k = 0
        while True:
            now = time.perf_counter()
            if now >= end + GRACE_S or (now >= end and k >= MIN_ROUNDS):
                return
            yield k
            k += 1

    def measure(self):
        calls = [] if self.batch else self.wl.synth_calls(self.zl)
        n_synth = 0
        for k in self.rounds():
            t0 = time.perf_counter()
            self.attempt("set-up", self.setup_once, True)
            self.attempt("operation", self.timed_op, "run_s", self.out_op)
            self.attempt("CLI", self.timed_cli, k, self.out_cli)
            if calls:
                until = time.perf_counter() + SYNTH_SHARE * (time.perf_counter() - t0)
                while True:
                    self.attempt("synthesize", self.timed_synth, calls[n_synth % len(calls)])
                    n_synth += 1
                    if time.perf_counter() >= until:
                        break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": statistics.median(self.values("setup_s")),
            "cli_wall_s": statistics.median(self.values("cli_wall_s")),
            "run_s": statistics.median(self.values("run_s")),
            "synth_ms.p50": statistics.median(self.values("synth_ms")),
            "synth_ms.p95": p95(self.values("synth_ms")),
            "peak_rss_mb": rss_mb,
        }

    def measure_traced(self):
        tracer = tracing.Tracer(self.zl)
        for k in self.rounds():
            self.attempt("set-up", self.setup_once, True)
            self.attempt("operation", self.timed_op, "trace.untraced_run_s", self.out_op)
            self.attempt("traced operation", self.traced_op, tracer, k, self.out_op)
        metrics = tracer.metrics()
        for name in ("cli.import_s", "scenario.load_s", "trace.run_s", "trace.untraced_run_s"):
            metrics[name] = statistics.median(self.values(name))
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        self.missing = sorted(tracer.missing)
        return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zdalab", "__init__.py")):
        print("bench: no src/zdalab here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import zdalab

    if not os.path.realpath(zdalab.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"bench: zdalab imported from {zdalab.__file__}, not {src}", file=sys.stderr)
        return 2

    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        run = Run(args, root, work)
        run.prepare()
        metrics = run.measure_traced() if args.trace else run.measure()
    except NoSamples as exc:
        print(f"bench: no samples for {exc}; every attempt failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics["error_rate"] = run.failed / run.attempted
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": envinfo.environment(root),
        "samples": {name: len(v) for name, v in sorted(run.samples.items())},
        "error_rate": run.failed / run.attempted,
        "missing": run.missing,
    }
    print(json.dumps(info))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
