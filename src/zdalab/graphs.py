"""Weighted undirected topologies, Laplacian spectra, and difference-graph
machinery for switched multi-agent networks.

Agent ids are 1-based everywhere in the public interface; adjacency matrices
are indexed 0-based internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Topology",
    "LaplacianSpectrum",
    "DiffGraph",
    "ComponentPartition",
    "DetectabilityReport",
    "RatioCertificate",
    "laplacian",
    "spectrum",
    "difference_graph",
    "union_difference_graph",
    "components",
    "detectability",
    "has_distinct_eigenvalues",
    "rational_ratio_certificate",
]


# a Laplacian is connected when lambda_2 exceeds CONNECTED_RTOL * max(1, ||L||_2)
CONNECTED_RTOL = 1e-9
# two topologies differ on a link whose weights differ by more than WEIGHT_TOL
WEIGHT_TOL = 1e-12
# eigenvalues are distinct when every gap exceeds SEPARATION_RTOL * max(1, |lambda|)
SEPARATION_RTOL = 1e-9
# a modal ratio is rational when a convergent lies within RATIO_TOL of it
RATIO_TOL = 1e-9
# continued-fraction terms tried before the last convergent stands
_MAX_CONVERGENTS = 64


class GraphError(ValueError):
    """Invalid topology data or incompatible graph arguments."""


@dataclass(frozen=True)
class Topology:
    """Weighted undirected communication graph.

    Invariants: symmetric adjacency, zero diagonal (no self-loops),
    nonnegative weights.
    """

    id: int
    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.shape != (self.n, self.n):
            raise GraphError(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if not np.allclose(a, a.T, atol=0.0):
            raise GraphError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise GraphError("adjacency must have zero diagonal (no self-loops)")
        if np.any(a < 0.0):
            raise GraphError("edge weights must be nonnegative")
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, id: int, n: int, edges) -> "Topology":
        """Build from an iterable of (i, j, weight) with 1-based ids."""
        a = np.zeros((n, n))
        for i, j, w in edges:
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise GraphError(f"bad edge ({i}, {j}) for n={n}")
            a[i - 1, j - 1] = a[j - 1, i - 1] = float(w)
        return cls(id=id, n=n, adjacency=a)


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Ascending eigenvalues and orthonormal eigenvectors of a Laplacian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    connected: bool


@dataclass(frozen=True)
class DiffGraph:
    """Unweighted graph marking where two (or more) topologies disagree."""

    n: int
    vertices: frozenset
    edges: frozenset  # of (i, j) pairs, i < j, 1-based


@dataclass(frozen=True)
class ComponentPartition:
    """Maximal connected subgraphs; isolated vertices are trivial components."""

    components: tuple  # of frozensets of 1-based agent ids

    @property
    def d(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class DetectabilityReport:
    ok: bool
    uncovered: tuple  # components (frozensets) with no observed agent
    margin: float  # smallest singular value of the stacked kernel matrix N


@dataclass(frozen=True)
class RatioCertificate:
    """Rationality certificate for sqrt-eigenvalue ratios, anchored to the
    smallest nonzero eigenvalue."""

    ok: bool
    ratios: tuple  # of Fraction, one per eigenvalue index 2..n


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: l_ii = sum_j a_ij, l_ij = -a_ij for i != j."""
    a = t.adjacency
    return np.diag(a.sum(axis=1)) - a


def spectrum(L: np.ndarray) -> LaplacianSpectrum:
    """Eigendecomposition of a symmetric Laplacian.

    ``connected`` is true when the second-smallest eigenvalue exceeds
    CONNECTED_RTOL * max(1, ||L||_2).
    """
    L = np.asarray(L, dtype=float)
    if not np.allclose(L, L.T, atol=1e-12 * max(1.0, abs(L).max())):
        raise GraphError("Laplacian must be symmetric")
    try:
        vals, vecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise GraphError(f"eigensolver failed: {exc}") from exc
    tol = CONNECTED_RTOL * max(1.0, np.linalg.norm(L, 2))
    connected = bool(vals[1] > tol) if len(vals) > 1 else True
    return LaplacianSpectrum(eigenvalues=vals, eigenvectors=vecs, connected=connected)


def difference_graph(r: Topology, s: Topology) -> DiffGraph:
    """Edges where the two topologies' weights differ by more than WEIGHT_TOL."""
    if r.n != s.n:
        raise GraphError(f"topology sizes differ: {r.n} vs {s.n}")
    d = np.abs(r.adjacency - s.adjacency)
    edges = set()
    for i in range(r.n):
        for j in range(i + 1, r.n):
            if d[i, j] > WEIGHT_TOL:
                edges.add((i + 1, j + 1))
    return DiffGraph(n=r.n, vertices=frozenset(range(1, r.n + 1)), edges=frozenset(edges))


def union_difference_graph(S) -> DiffGraph:
    """Edge union of the pairwise difference graphs over all pairs in S."""
    S = list(S)
    if len(S) < 2:
        raise GraphError("need at least two topologies for a union difference graph")
    n = S[0].n
    edges = set()
    for a in range(len(S)):
        for b in range(a + 1, len(S)):
            edges |= difference_graph(S[a], S[b]).edges
    return DiffGraph(n=n, vertices=frozenset(range(1, n + 1)), edges=frozenset(edges))


def components(g: DiffGraph) -> ComponentPartition:
    """Connected components of a difference graph, singletons included."""
    adj = {v: set() for v in g.vertices}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = set()
    comps = []
    for v in sorted(g.vertices):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return ComponentPartition(components=tuple(comps))


def detectability(S, M) -> DetectabilityReport:
    """Exact detectability of the switching set S from the observed agents M
    when every agent may be attacked: a stealthy attack exists exactly when
    N = [E_M^T; L_2 - L_1; ...] has a nontrivial kernel, so ``ok`` needs the
    smallest singular value of N (``margin``) above 1e-10 * max(sigma_max, 1).

    ``uncovered`` lists the union difference graph's components without an
    observed agent.  Their indicators lie in the kernel of N, so each one
    makes ``ok`` false; sign-cancelling weight changes can defeat a covered
    set too."""
    M = sorted(M)
    n = S[0].n if S else 0
    if any(not (1 <= m <= n) for m in M):
        raise GraphError(f"observed set {M} not within 1..{n}")
    part = components(union_difference_graph(S))
    uncovered = tuple(comp for comp in part.components if not comp & set(M))
    L1 = laplacian(S[0])
    N = np.vstack([np.eye(n)[[m - 1 for m in M]]] + [laplacian(t) - L1 for t in S[1:]])
    s = np.linalg.svd(N, compute_uv=False)
    ok = bool(s[-1] > 1e-10 * max(s[0], 1.0))
    return DetectabilityReport(ok=ok, uncovered=uncovered, margin=float(s[-1]))


def has_distinct_eigenvalues(spec: LaplacianSpectrum) -> bool:
    """True when the minimum consecutive eigenvalue gap exceeds
    SEPARATION_RTOL * max(1, |lambda|)."""
    vals = spec.eigenvalues
    if len(vals) < 2:
        return True
    return bool(np.min(np.diff(vals)) > SEPARATION_RTOL * max(1.0, abs(vals).max()))


def _first_convergent_within(x: float, tol: float) -> Fraction:
    """Smallest-denominator continued-fraction convergent of x within tol."""
    h0, h1 = 1, int(math.floor(x))
    k0, k1 = 0, 1
    frac = x - math.floor(x)
    for _ in range(_MAX_CONVERGENTS):
        if abs(x - h1 / k1) <= tol:
            break
        if frac <= 0:
            break
        frac = 1.0 / frac
        a = int(math.floor(frac))
        frac -= a
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    return Fraction(h1, k1)


def rational_ratio_certificate(spec: LaplacianSpectrum, max_den: int = 10**6) -> RatioCertificate:
    """Certify that sqrt(lambda_i / lambda_2) is rational (within RATIO_TOL)
    for every nonzero eigenvalue, with denominators at most ``max_den``.

    Ratios are anchored to lambda_2; pairwise rationality follows.
    """
    vals = spec.eigenvalues
    if not spec.connected or len(vals) < 2:
        raise GraphError("rationality certificate needs a connected spectrum (lambda_2 > 0)")
    lam2 = vals[1]
    ratios = []
    ok = True
    for lam in vals[1:]:
        x = math.sqrt(lam / lam2)
        f = _first_convergent_within(x, RATIO_TOL)
        if f.denominator > max_den or abs(x - float(f)) > RATIO_TOL:
            ok = False
        ratios.append(f)
    return RatioCertificate(ok=ok, ratios=tuple(ratios))
