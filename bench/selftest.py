"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root.  Runs every workload of bench/workloads.py
(BENCHMARK.json names a subset) on tiny inputs, untraced and traced, and
checks that each run passes its output checks and emits every metric that
BENCHMARK.json names, with its unit.  It also checks that
bench/metrics.json agrees with BENCHMARK.json and that the benchmark
refuses to run where there is no package source.  Exits 0 when all pass.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_bench(cwd, workload, trace, seed=5, seconds="0.5"):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        table = json.load(fh)
    problems = []

    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        documented = {m["name"]: (m["unit"], m["better"]) for m in table[kind]}
        if declared != documented:
            problems.append(f"{kind}: BENCHMARK.json and bench/metrics.json disagree")

    unknown = {w["name"] for w in spec["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(root, name, trace)
            label = f"{name} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: output checks failed\n{proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            if got != want:
                missing = sorted(set(want) - set(got))
                wrong = sorted(k for k in got if k in want and got[k] != want[k])
                extra = sorted(set(got) - set(want))
                problems.append(f"{label}: missing {missing}, wrong unit {wrong}, extra {extra}")
            print(f"{'ok' if len(problems) == before else 'FAIL'}  {label}", flush=True)

    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
