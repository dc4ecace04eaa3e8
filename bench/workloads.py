"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload writes its scenario files into a work directory from a seed;
the program only ever sees those files (or the scenarios loaded from them).
A workload supplies

- ``op(zl, out)``: the warm in-process operation, timed by bench/run.py;
- ``check_op(zl, result, out)``: the output check of one operation;
- ``cli(k, out)``: argv of the CLI verb run as a subprocess, and
  ``check_cli(k, code, out)`` for its outputs;
- ``reference(zl, out)``: the full check of the untimed warm-up operation,
  which may look inside the program and fixes the reference outputs;
- ``synth_calls(zl)``: the ``attacks.synthesize`` calls that
  ``zdalab synthesize`` makes on the workload's scenarios.

``zl`` is a namespace holding the imported zdalab modules.  A failed check
raises ``CheckFailed``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

TAU = math.pi / 2 + 0.2

# README stealth pair: topologies 1 and 2 differ only on links among agents
# {1, 3, 4}, so with agent 1 observed the pair cannot detect an attack.
STEALTH_EDGES = (
    [[1, 2, 1.0], [2, 3, 1.0], [2, 4, 1.0], [3, 4, 1.0]],
    [[1, 2, 1.0], [2, 3, 1.0], [2, 4, 1.0], [3, 4, 0.5], [1, 3, 1.0], [1, 4, 1.0]],
)

# Weighted complete 4-agent graph with Laplacian spectrum {0, 1, 4, 9}
# (rational square-root ratios); divided by 9 it lies within alpha = 2 of 1,
# so dwell times can be derived from its modal period.
K4_WEIGHTS = (
    (1, 2, 0.23278588565716107),
    (1, 3, 2.2174750085926673),
    (1, 4, 3.444083512674263),
    (2, 3, 0.16102969997834743),
    (2, 4, 0.36250371637275364),
    (3, 4, 0.5821221767248053),
)


class CheckFailed(Exception):
    """An operation's outputs are wrong."""


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cli_main(zl, argv) -> int:
    """Run the CLI in-process with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return zl.cli.main(argv)


def _connected(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(adj[i]):
            if int(j) not in seen:
                seen.add(int(j))
                stack.append(int(j))
    return len(seen) == n


def random_connected_adjacency(rng, n, lo=0.2, hi=2.0, p_extra=0.5) -> np.ndarray:
    """Random weighted graph that is connected by construction: a random
    spanning tree plus each remaining edge with probability ``p_extra``."""
    a = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(0, k)]
        a[i, j] = a[j, i] = rng.uniform(lo, hi)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] == 0.0 and rng.random() < p_extra:
                a[i, j] = a[j, i] = rng.uniform(lo, hi)
    return a


def edges_of(adj: np.ndarray) -> list:
    n = adj.shape[0]
    return [
        [i + 1, j + 1, float(adj[i, j])]
        for i in range(n)
        for j in range(i + 1, n)
        if adj[i, j] != 0.0
    ]


def instance_shape(k: int) -> tuple:
    """(n, topology count, observed-set size, attack exists) of instance k.
    Cycling through the shapes gives every batch the proportions acceptance
    criterion 2 draws at random (n uniform in 3..5, 2 or 3 topologies,
    observed-set size uniform in 1..n-1), and 2 instances in 5 admit an
    attack, so a seed changes graphs and agents, not the mix."""
    n = 3 + k % 3
    return n, 2 + (k // 3) % 2, 1 + (k // 6) % (n - 1), k % 5 in (1, 3)


def uncovered(adjs, observed) -> bool:
    """True when some component of the union difference graph of the
    topologies holds no observed agent, i.e. when an attack exists."""
    n = adjs[0].shape[0]
    diff = np.zeros((n, n))
    for a in adjs[1:]:
        diff += np.abs(a - adjs[0]) > 1e-12
    for i in range(1, len(adjs)):
        for b in adjs[i + 1:]:
            diff += np.abs(b - adjs[i]) > 1e-12
    comp = list(range(n))

    def root(i):
        while comp[i] != i:
            i = comp[i]
        return i

    for i, j in zip(*np.nonzero(diff)):
        comp[root(i)] = root(j)
    covered = {root(i - 1) for i in observed}
    return any(root(i) not in covered for i in range(n))


def random_instance(rng, n: int, n_topologies: int, m_size: int) -> tuple:
    """A topology set, observed set and attacked set drawn the way acceptance
    criterion 2 draws them: connected topologies that perturb a common base,
    a random observed set, every agent attacked."""
    base = random_connected_adjacency(rng, n)
    adjs = [base]
    while len(adjs) < n_topologies:
        a = base.copy()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    if a[i, j] > 0 and rng.random() < 0.3:
                        a[i, j] = a[j, i] = 0.0
                    else:
                        a[i, j] = a[j, i] = rng.uniform(0.2, 2.0)
        if _connected(a):
            adjs.append(a)
    observed = sorted(int(i) for i in rng.choice(np.arange(1, n + 1), size=m_size, replace=False))
    return adjs, observed, list(range(1, n + 1))


def _initial(rng, n) -> dict:
    return {
        "x": [float(v) for v in rng.uniform(0.5, 4.5, n)],
        "v": [float(v) for v in rng.uniform(0.5, 4.5, n)],
    }


def _read_alarm(out: str, sid: str):
    with open(os.path.join(out, f"{sid}_alarm.json")) as fh:
        return json.load(fh)["alarm_time"]


def _peak_residual(csv_path: str) -> tuple:
    """Largest absolute residual over the r* columns of a trace CSV, and the
    number of rows."""
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        cols = [k for k, c in enumerate(header) if c.startswith("r")]
        require(bool(cols), "trace CSV has no residual column")
        peak = 0.0
        rows = 0
        for line in fh:
            fields = line.split(",")
            peak = max(peak, max(abs(float(fields[k])) for k in cols))
            rows += 1
    return peak, rows


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, work: str):
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.paths = []
        for k, doc in enumerate(self.make_docs()):
            path = os.path.join(work, f"{doc['id']}_{k}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.paths.append(path)
        self.scenarios = []

    def make_docs(self) -> list:
        raise NotImplementedError

    def load(self, zl):
        self.scenarios = [zl.scenario.load_scenario(p) for p in self.paths]

    def synth_calls(self, zl) -> list:
        """One callable per scenario doing what ``zdalab synthesize`` does on
        it; each returns the (attack, certificate) pair or None."""
        calls = []
        for sc in self.scenarios:
            if sc.synthesize_directive is not None:
                calls.append(lambda sc=sc: zl.scenario.synthesize_for(sc))
            else:
                calls.append(
                    lambda sc=sc: zl.attacks.synthesize(
                        list(sc.topologies), sc.observed, sc.attacked, rho=0.0
                    )
                )
        return calls

    @staticmethod
    def check_synth(result):
        if result is not None:
            require(bool(result[1].valid), "synthesized attack has an invalid certificate")


class CliWorkload(Workload):
    """A workload whose operation is one CLI verb on its scenario, run
    in-process; the subprocess runs the same verb."""

    def argv(self, out) -> list:
        return ["run", "--scenario", self.paths[0], "--out", out]

    def op(self, zl, out):
        return cli_main(zl, self.argv(out))

    def cli(self, k, out):
        return self.argv(out)

    def check_cli(self, k, code, out):
        self.check_op(None, code, out)

    def reference(self, zl, out):
        self.check_op(zl, self.op(zl, out), out)


class StealthN4(CliWorkload):
    name = "stealth-n4"

    def make_docs(self):
        horizon, rho = (30.0, 10.0) if self.tiny else (420.0, 110.0)
        self.expected = (617, 18) if self.tiny else (8637, 239)
        return [{
            "schema": 1,
            "id": "stealth",
            "topologies": [
                {"id": 1, "n": 4, "edges": STEALTH_EDGES[0]},
                {"id": 2, "n": 4, "edges": STEALTH_EDGES[1]},
            ],
            "order": [1, 2],
            "dwell": {"1": 1.7708, "2": 1.7708},
            "horizon": horizon,
            "dt": 0.05,
            "initial": _initial(self.rng, 4),
            "observed": [1],
            "attacked": [1, 2, 3, 4],
            "attack": {"synthesize": True, "rho": rho, "eta_target": 0.05},
            "observer": {"psi": [1e-6], "theta": [1e-6], "threshold": 1e-6, "window": 5},
        }]

    def reference(self, zl, out):
        traces = []
        simulate = zl.simulation.simulate

        def capture(*args, **kwargs):
            tr = simulate(*args, **kwargs)
            traces.append(tr)
            return tr

        zl.simulation.simulate = capture
        try:
            code = self.op(zl, out)
        finally:
            zl.simulation.simulate = simulate
        require(code == 0, f"run exited with {code}")
        require(len(traces) == 1, f"run simulated {len(traces)} times, expected 1")
        samples, segments = len(traces[0].times), len(traces[0].segments)
        require(
            (samples, segments) == self.expected,
            f"trace has {samples} samples and {segments} segments, expected {self.expected}",
        )
        csv_path = os.path.join(out, "stealth_trace.csv")
        peak, rows = _peak_residual(csv_path)
        require(rows == samples, f"trace CSV has {rows} rows for {samples} samples")
        require(peak < 1e-6, f"peak residual {peak:.3g} reaches the 1e-6 alarm threshold")
        self.csv_hash = file_sha256(csv_path)
        self.check_op(zl, code, out)

    def check_op(self, zl, code, out):
        require(code == 0, f"run exited with {code}")
        require(_read_alarm(out, "stealth") is None, "stealthy attack raised the alarm")
        digest = file_sha256(os.path.join(out, "stealth_trace.csv"))
        require(digest == self.csv_hash, "trace CSV bytes differ between repeats")


class ScaleN64(CliWorkload):
    name = "scale-n64"

    def make_docs(self):
        n, horizon = (8, 10.0) if self.tiny else (64, 52.5)
        self.rho = horizon / 2
        topologies = []
        for tid in (1, 2):
            adj = random_connected_adjacency(self.rng, n)
            # a fixed largest weighted degree fixes the Laplacian's 1-norm,
            # which sets the scaling-and-squaring depth of every expm, so
            # seeds change the graphs but not the cost per sample
            adj *= (n / 2) / adj.sum(axis=1).max()
            topologies.append({"id": tid, "n": n, "edges": edges_of(adj)})
        initial = _initial(self.rng, n)
        delta = [0.0] * (2 * n)
        delta[0] = 1e-3
        # the observer starts from the true initial state, so only the
        # injected signal can move the residual
        reported = {
            "x": [x + d for x, d in zip(initial["x"], delta[:n])],
            "v": [v + d for v, d in zip(initial["v"], delta[n:])],
        }
        attack = {
            "eta": {"re": 0.1, "im": 0.0},
            "rho": self.rho,
            "g0": {"re": [1.0, -0.5], "im": [0.0, 0.0]},
            "delta_z0": delta,
            "attacked": [2, 3],
        }
        return [{
            "schema": 1,
            "id": "scale",
            "topologies": topologies,
            "order": [1, 2],
            "dwell": {"1": TAU, "2": TAU},
            "horizon": horizon,
            "dt": 0.05,
            "initial": initial,
            "reported_initial": reported,
            "observed": [1],
            "attacked": [2, 3],
            "attack": attack,
            "observer": {"psi": [1.0], "theta": [1.0], "threshold": 1e-6, "window": 5},
        }]

    def check_op(self, zl, code, out):
        require(code == 0, f"run exited with {code}")
        alarm = _read_alarm(out, "scale")
        require(alarm is not None, "attack on agents {2, 3} raised no alarm")
        require(alarm > self.rho, f"alarm at t={alarm} precedes the attack start {self.rho}")


class SweepM4(CliWorkload):
    name = "sweep-m4"
    M_VALUES = ("1", "2", "3", "4")

    def make_docs(self):
        horizon = 20.0 if self.tiny else 150.0
        base = [[i, j, w / 9.0] for i, j, w in K4_WEIGHTS]
        # an agent-relabelled copy has the same spectrum, hence the same
        # modal period and dwell, but a different switching signal.  The
        # relabelling is an involution: for those, synthesis finds an attack
        # at the first candidate rate, while for 3- and 4-cycles it runs the
        # whole candidate ladder, so mixing them would let the seed decide
        # what synth_ms measures.
        perm = self.rng.permutation(4)
        while np.all(perm == np.arange(4)) or not np.all(perm[perm] == np.arange(4)):
            perm = self.rng.permutation(4)
        twin = [[int(perm[i - 1]) + 1, int(perm[j - 1]) + 1, w] for i, j, w in base]
        return [{
            "schema": 1,
            "id": "sweep",
            "topologies": [
                {"id": 1, "n": 4, "edges": base},
                {"id": 2, "n": 4, "edges": twin},
            ],
            "order": [1, 2],
            "dwell_params": {"tau_hat_max": 0.2},
            "horizon": horizon,
            "dt": 0.02,
            "initial": _initial(self.rng, 4),
            "observed": [1],
            "attacked": [1, 2, 3, 4],
            "observer": {"psi": [0.5], "theta": [0.5], "threshold": 1e-6, "window": 5},
        }]

    def argv(self, out):
        return ["sweep", "--scenario", self.paths[0], "--out", out, "--m-min", "1", "--m-max", "4"]

    def check_op(self, zl, code, out):
        require(code == 0, f"sweep exited with {code}")
        with open(os.path.join(out, "sweep_sweep.json")) as fh:
            table = json.load(fh)
        require(tuple(sorted(table)) == self.M_VALUES, f"sweep entries {sorted(table)}")
        for m, entry in table.items():
            require("error" not in entry, f"sweep m={m} failed: {entry.get('error')}")
            require("switch_count" in entry, f"sweep m={m} has no switch_count")


class SynthBatch(Workload):
    name = "synth-batch"

    def make_docs(self):
        docs = []
        for k in range(12 if self.tiny else 200):
            n, n_topologies, m_size, attackable = instance_shape(k)
            while True:
                adjs, observed, attacked = random_instance(self.rng, n, n_topologies, m_size)
                if uncovered(adjs, observed) == attackable:
                    break
            docs.append({
                "schema": 1,
                "id": f"inst{k}",
                "topologies": [
                    {"id": tid, "n": n, "edges": edges_of(a)} for tid, a in enumerate(adjs, 1)
                ],
                "order": list(range(1, len(adjs) + 1)),
                "horizon": 1.0,
                "initial": {"x": [0.0] * n, "v": [0.0] * n},
                "observed": observed,
                "attacked": attacked,
            })
        return docs

    def op(self, zl, out):
        """Synthesize against every instance; returns the per-call latencies
        (s) and results."""
        lat, results = [], []
        for call in self.synth_calls(zl):
            t0 = time.perf_counter()
            res = call()
            lat.append(time.perf_counter() - t0)
            results.append(res)
        return lat, results

    def reference(self, zl, out):
        # an attack exists exactly when the coverage test fails
        self.expect_found = [
            not zl.graphs.detectability(list(sc.topologies), sc.observed).ok
            for sc in self.scenarios
        ]
        require(
            self.expect_found == [instance_shape(k)[3] for k in range(len(self.scenarios))],
            "graphs.detectability disagrees with the coverage the instances were drawn with",
        )
        self.check_op(zl, self.op(zl, out), out)

    def check_op(self, zl, result, out):
        _, results = result
        for k, (res, found) in enumerate(zip(results, self.expect_found)):
            require(
                (res is not None) == found,
                f"instance {k}: attack found={res is not None}, detectability says {found}",
            )
            self.check_synth(res)

    def cli(self, k, out):
        return ["synthesize", "--scenario", self.paths[k % len(self.paths)], "--out", out]

    def check_cli(self, k, code, out):
        k %= len(self.paths)
        if not self.expect_found[k]:
            require(code == 3, f"synthesize on instance {k} exited with {code}, expected 3")
            return
        require(code == 0, f"synthesize on instance {k} exited with {code}, expected 0")
        with open(os.path.join(out, f"inst{k}_attack.json")) as fh:
            cert = json.load(fh)["certificate"]
        require(cert["valid"] is True, f"instance {k}: written certificate is not valid")


WORKLOADS = {w.name: w for w in (StealthN4, ScaleN64, SweepM4, SynthBatch)}
