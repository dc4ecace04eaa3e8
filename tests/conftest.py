"""Shared fixtures: the 4-agent topology family used across tests, and a
check after every test that it left no child process.

Topologies 1 and 2 disagree only on links among agents {1, 3, 4}, leaving
agent 2's links untouched, so with agent 1 observed the pair is undetectable.
Topology 3 changes the (2, 3) link, making the union difference graph
connected; the set {1, 2, 3} is still undetectable, because the direction
e2 + e3 - e4 cancels every Laplacian difference.
"""
import os

import numpy as np
import pytest
import scipy.linalg

from zdalab import graphs


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every test reaps the processes it starts, the trace writer's forked
    child included, whether the writer returns or raises."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({pid or 'still running'})")


@pytest.fixture(scope="session")
def topo1():
    return graphs.Topology.from_edges(
        1, 4, [(1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
    )


@pytest.fixture(scope="session")
def topo2():
    return graphs.Topology.from_edges(
        2,
        4,
        [(1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 0.5), (1, 3, 1.0), (1, 4, 1.0)],
    )


@pytest.fixture(scope="session")
def topo3():
    return graphs.Topology.from_edges(
        3, 4, [(1, 2, 1.0), (2, 3, 2.0), (2, 4, 1.0), (3, 4, 1.0)]
    )


# Weighted complete 4-agent graph with Laplacian spectrum {0, 1, 4, 9}:
# distinct eigenvalues with exactly rational square-root ratios (1 : 2 : 3),
# so the common modal period is 2*pi.
K4_WEIGHTS = [
    (1, 2, 0.23278588565716107),
    (1, 3, 2.2174750085926673),
    (1, 4, 3.444083512674263),
    (2, 3, 0.16102969997834743),
    (2, 4, 0.36250371637275364),
    (3, 4, 0.5821221767248053),
]


@pytest.fixture(scope="session")
def k4_149():
    return graphs.Topology.from_edges(1, 4, K4_WEIGHTS)


@pytest.fixture(scope="session")
def k4_149_twin():
    perturbed = [
        (i, j, w + (1e-9 if (i, j) == (3, 4) else 0.0)) for i, j, w in K4_WEIGHTS
    ]
    return graphs.Topology.from_edges(2, 4, perturbed)


def random_connected_topology(rng, n, id=1, lo=0.2, hi=2.0):
    """Random weighted graph guaranteed connected: a random spanning tree
    plus each remaining edge with probability 1/2."""
    a = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(0, k)]
        a[i, j] = a[j, i] = rng.uniform(lo, hi)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] == 0.0 and rng.random() < 0.5:
                a[i, j] = a[j, i] = rng.uniform(lo, hi)
    return graphs.Topology(id=id, n=n, adjacency=a)


def random_topology_set(rng):
    """Two or three connected topologies on 3 to 5 agents, each reweighting
    or cutting random links of a random base graph, with a random observed
    set and every agent attacked."""
    n = int(rng.integers(3, 6))
    base = random_connected_topology(rng, n, id=1)
    topos = [base]
    target = int(rng.integers(2, 4))
    tid = 2
    while len(topos) < target:
        a = base.adjacency.copy()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    if a[i, j] > 0 and rng.random() < 0.3:
                        a[i, j] = a[j, i] = 0.0
                    else:
                        a[i, j] = a[j, i] = rng.uniform(0.2, 2.0)
        t = graphs.Topology(id=tid, n=n, adjacency=a)
        if graphs.spectrum(graphs.laplacian(t)).connected:
            topos.append(t)
            tid += 1
    m_size = int(rng.integers(1, n))
    M = tuple(sorted(rng.choice(np.arange(1, n + 1), size=m_size, replace=False)))
    return topos, M, tuple(range(1, n + 1))


# The scan oracles' own kernel test and zero candidates, kept apart from the
# synthesis code they check.
def stacked_pencil_has_attack(A_list, B_K, C, eta) -> bool:
    """Whether the kernel of the stacked pencil [[eta I - A_r, B_K], [-C, 0]]
    over every A_r in the list holds a vector with a nonzero signal part."""
    n2 = A_list[0].shape[0]
    rows = []
    for A in A_list:
        rows.append(np.hstack([eta * np.eye(n2) - A, B_K]))
        rows.append(np.hstack([-C, np.zeros((C.shape[0], B_K.shape[1]))]))
    Z = scipy.linalg.null_space(np.vstack(rows))
    return Z.shape[1] > 0 and np.linalg.norm(Z[n2:], 2) > 1e-8


def _invariant_zero_candidates(A_list, B_K, C) -> list:
    """Finite generalized eigenvalues of each square single-topology pencil.

    Only defined when the pencil is square (as many attack channels as
    outputs); fat pencils have kernels at generic eta and are covered by
    probe values instead.
    """
    n2 = A_list[0].shape[0]
    if B_K.shape[1] != C.shape[0]:
        return []
    out = []
    E = np.zeros((n2 + C.shape[0], n2 + B_K.shape[1]))
    E[:n2, :n2] = np.eye(n2)
    for A in A_list:
        F = np.vstack(
            [
                np.hstack([-A, B_K]),
                np.hstack([-C, np.zeros((C.shape[0], B_K.shape[1]))]),
            ]
        )
        vals = scipy.linalg.eigvals(F, -E)
        out.extend(complex(v) for v in vals if np.isfinite(v))
    return out


def predicted_state(atk, clean_state_at_t, discrepancy_at_rho, t: float) -> np.ndarray:
    """Closed-form attacked state, the oracle of the attacked trajectory:
    clean state plus the start-time discrepancy amplified by e^{eta (t - rho)}."""
    if t < atk.rho:
        raise ValueError("prediction only applies at or after the attack start")
    disc = np.asarray(discrepancy_at_rho)
    return np.asarray(clean_state_at_t, dtype=float) + np.real(
        disc * np.exp(atk.eta * (t - atk.rho))
    )


# The row-at-a-time trace writer the block writer replaced, kept as the
# oracle for its bytes.
def trace_to_csv_oracle(tr, path, residuals=None) -> None:
    """Write the trace as CSV with deterministic 17-significant-digit
    formatting.  Columns: t, topology, x*, v*, y*, r*, attack*."""
    n = tr.n
    cols = ["t", "topology"]
    cols += [f"x{i}" for i in range(1, n + 1)]
    cols += [f"v{i}" for i in range(1, n + 1)]
    cols += [f"y{i}" for i in tr.observed]
    if residuals is not None:
        cols += [f"r{i}" for i in tr.observed]
    cols += [f"attack{i}" for i in tr.attacked]

    def fmt(v: float) -> str:
        return format(float(v), ".17g")

    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(tr.times)):
            row = [fmt(tr.times[k]), str(int(tr.topology_ids[k]))]
            row += [fmt(v) for v in tr.states[k]]
            row += [fmt(v) for v in tr.outputs[k]]
            if residuals is not None:
                row += [fmt(v) for v in residuals[k]]
            row += [fmt(v) for v in tr.attack_values[k]]
            fh.write(",".join(row) + "\n")
