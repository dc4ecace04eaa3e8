"""Weighted undirected topologies, Laplacian spectra, and the detectability
test for switched multi-agent networks.

Agent ids are 1-based everywhere in the public interface; adjacency matrices
are indexed 0-based internally.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Topology",
    "LaplacianSpectrum",
    "DetectabilityReport",
    "agent_set",
    "detection_matrix",
    "detectability",
    "has_distinct_eigenvalues",
    "modal_period",
]


# a matrix's rank counts its singular values above RANK_RTOL * max(1, sigma_max)
RANK_RTOL = 1e-10
# a Laplacian is connected when lambda_2 exceeds CONNECTED_RTOL * max(1, ||L||_2)
CONNECTED_RTOL = 1e-9
# eigenvalues are distinct when every gap exceeds SEPARATION_RTOL * max(1, |lambda|)
SEPARATION_RTOL = 1e-9
# a modal ratio is rational when a fraction lies within RATIO_TOL of it
RATIO_TOL = 1e-9
# largest denominator of a modal ratio's fraction.  Two fractions with
# denominators at most 1000 differ by at least 1e-6, far more than
# 2 * RATIO_TOL, so a fraction within tolerance is unique; and only about
# 6e-4 of irrational ratios (6/pi^2 * 1000^2 * RATIO_TOL) pass by chance
MAX_DENOMINATOR = 1000


class GraphError(ValueError):
    """Invalid topology data or incompatible graph arguments."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Weighted undirected communication graph; the one owner of its
    Laplacian ``L``, ``spectrum`` and modal ``period``, each cached.
    Two topologies are equal only when they are the same object.

    Invariants: an integer id within int64, an exactly symmetric read-only
    adjacency, zero diagonal (no self-loops), finite nonnegative weights.
    """

    id: int
    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        if not _is_id(self.id):
            raise GraphError(f"topology id {self.id!r} is not an integer")
        if not -(2**63) <= self.id < 2**63:
            raise GraphError(f"topology id {self.id} is outside int64")
        a = np.array(self.adjacency, dtype=float)
        if a.shape != (self.n, self.n):
            raise GraphError(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise GraphError("edge weights must be finite")
        if not np.array_equal(a, a.T):
            raise GraphError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise GraphError("adjacency must have zero diagonal (no self-loops)")
        if np.any(a < 0.0):
            raise GraphError("edge weights must be nonnegative")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, id: int, n: int, edges) -> "Topology":
        """Build from an iterable of (i, j, weight) with 1-based ids."""
        a = np.zeros((n, n))
        for i, j, w in edges:
            if not (_is_id(i) and _is_id(j) and 1 <= i <= n and 1 <= j <= n) or i == j:
                raise GraphError(f"bad edge ({i}, {j}) for n={n}")
            if isinstance(w, bool):
                raise GraphError(f"edge ({i}, {j}) weight {w!r} is not a number")
            a[i - 1, j - 1] = a[j - 1, i - 1] = float(w)
        return cls(id=id, n=n, adjacency=a)

    @functools.cached_property
    def L(self) -> np.ndarray:
        """Graph Laplacian: l_ii = sum_j a_ij, l_ij = -a_ij for i != j."""
        return np.diag(self.adjacency.sum(axis=1)) - self.adjacency

    @functools.cached_property
    def spectrum(self) -> LaplacianSpectrum:
        """Eigendecomposition of ``L``; ``connected`` is true when the
        second-smallest eigenvalue exceeds CONNECTED_RTOL * max(1, ||L||_2),
        where ||L||_2 is the largest eigenvalue of the symmetric PSD ``L``."""
        try:
            vals, vecs = np.linalg.eigh(self.L)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise GraphError(f"eigensolver failed: {exc}") from exc
        connected = len(vals) < 2 or bool(vals[1] > CONNECTED_RTOL * max(1.0, vals[-1]))
        return LaplacianSpectrum(eigenvalues=vals, eigenvectors=vecs, connected=connected)

    @functools.cached_property
    def period(self) -> float | None:
        """The spectrum's ``modal_period``; GraphError when disconnected."""
        return modal_period(self.spectrum)


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Ascending eigenvalues and orthonormal eigenvectors of a Laplacian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    connected: bool


@dataclass(frozen=True)
class DetectabilityReport:
    ok: bool
    margin: float  # smallest singular value of N = detection_matrix(S, M)


def _is_id(i) -> bool:
    """Whether i has an agent id's type: an integer, not a bool."""
    return hasattr(i, "__index__") and not isinstance(i, bool)


def _real(v, what: str) -> float:
    """v as a float; ValueError for a JSON boolean or string, which float() takes."""
    if isinstance(v, (bool, str)):
        raise ValueError(f"{what} must be a number, not {v!r}")
    return float(v)


def _rank(s: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL relative to max(s_max, 1)."""
    return int(np.count_nonzero(s > RANK_RTOL * s.max(initial=1.0)))


def agent_set(S, n: int, what: str) -> tuple:
    """The agent ids S (1-based) in ascending order; GraphError naming the
    set unless it is nonempty and its ids are distinct integers within 1..n
    (1.7, 2.0 and true are not ids)."""
    ids = tuple(S)
    for i in ids:
        if not _is_id(i):
            raise GraphError(f"{what} set holds {i!r}, which is not an integer agent id")
    ids = tuple(sorted(ids))
    if not ids:
        raise GraphError(f"{what} set must be nonempty")
    if not 1 <= ids[0] <= ids[-1] <= n:
        raise GraphError(f"{what} set {list(ids)} not within 1..{n}")
    if len(set(ids)) < len(ids):
        raise GraphError(f"{what} set repeats agent {max(ids, key=ids.count)}")
    return ids


def detection_matrix(S, M) -> np.ndarray:
    """N = [E_M^T; L_2 - L_1; ...] for the topologies S and observed agents M
    (possibly none): every stealthy attack on S has its positions in ker N."""
    S = list(S)
    n = S[0].n
    if any(t.n != n for t in S):
        raise GraphError(f"topology sizes differ: {sorted({t.n for t in S})}")
    M = agent_set(M, n, "observed") if len(M) else ()
    return np.vstack([np.eye(n)[[m - 1 for m in M]]] + [t.L - S[0].L for t in S[1:]])


def detectability(S, M) -> DetectabilityReport:
    """Exact detectability of the switching set S from the observed agents M
    when every agent may be attacked: a stealthy attack exists exactly when
    ``detection_matrix(S, M)`` has a nontrivial kernel, so ``ok`` needs full
    column rank by ``_rank``; ``margin`` is the smallest singular value."""
    S = list(S)
    if len(S) < 2:
        raise GraphError("detectability needs at least two topologies")
    s = np.linalg.svd(detection_matrix(S, M), compute_uv=False)
    return DetectabilityReport(ok=_rank(s) == S[0].n, margin=float(s[-1]))


def has_distinct_eigenvalues(spec: LaplacianSpectrum) -> bool:
    """True when the minimum consecutive eigenvalue gap exceeds
    SEPARATION_RTOL * max(1, |lambda|)."""
    vals = spec.eigenvalues
    if len(vals) < 2:
        return True
    return bool(np.min(np.diff(vals)) > SEPARATION_RTOL * max(1.0, abs(vals).max()))


def modal_period(spec: LaplacianSpectrum) -> float | None:
    """Common period of all oscillatory modes: the smallest T that is an
    integer multiple of every modal period 2*pi/sqrt(lambda_i), that is
    T = (2*pi/sqrt(lambda_2)) * lcm(q_i) for the ratios
    sqrt(lambda_i / lambda_2) = p_i / q_i.  None when some ratio has no
    fraction with q_i <= MAX_DENOMINATOR within RATIO_TOL; GraphError for a
    disconnected spectrum, or for a period that no float holds."""
    vals = spec.eigenvalues
    if not spec.connected or len(vals) < 2:
        raise GraphError("modal period needs a connected spectrum (lambda_2 > 0)")
    mult = 1
    for lam in vals[2:]:
        x = math.sqrt(lam / vals[1])
        f = Fraction(x).limit_denominator(MAX_DENOMINATOR)
        if abs(x - f) > RATIO_TOL:
            return None
        mult = math.lcm(mult, f.denominator)
    T = 2.0 * math.pi / math.sqrt(vals[1]) * mult if mult.bit_length() < 1024 else math.inf  # no float holds 2**1024
    if not math.isfinite(T):
        raise GraphError(f"common modal period overflows: {mult.bit_length()}-bit multiple")
    return T
