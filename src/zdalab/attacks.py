"""Synthesis of stealthy exponential attacks on the switched network.

An attack is the pair (initial-state discrepancy, injected signal
g0 * e^{eta (t - rho)}) chosen so the observed output never changes: the
discrepancy starts in the unobservable subspace of the topologies that run
before the start time and, from the start time on, the pair (discrepancy,
-g0) sits in the kernel of the system pencil [[eta I - A, B], [-C, 0]] for
every topology the attacker expects to face.
Such attacks exist only at that stacked pencil's zeros (at every rate when
it is rank-deficient).  Synthesis finds the zeros and the kernel in one
reduced pencil; only the certificate evaluates each topology's full pencil.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .graphs import RANK_RTOL, _rank, _real, agent_set, detection_matrix
from .scheduling import SwitchingSchedule
from .simulation import assemble_A, assemble_C, attack_injection, schedule_transition

__all__ = [
    "SynthesisError",
    "ZdaAttack",
    "StealthCertificate",
    "unobservable_subspace",
    "rosenbrock_pencil",
    "synthesize",
    "attack_to_json",
    "attack_from_json",
]

# largest relative pencil and observability residual a certified attack has
CERT_TOL = 1e-8


class SynthesisError(ValueError):
    """No stealthy attack exists for the requested configuration."""


@dataclass(frozen=True)
class ZdaAttack:
    """Exponential stealthy attack.

    ``delta_z0`` is the falsification of the initial state reported to the
    defender; ``g0`` is the injected signal at the start time ``rho``, one
    entry per ``attacked`` agent for its velocity channel, sorted along with
    it.  ``eta`` may be complex; the injected signal is Re(g0 e^{eta (t - rho)}).
    """

    eta: complex
    rho: float
    g0: np.ndarray
    delta_z0: np.ndarray
    attacked: tuple

    def __post_init__(self):
        g0 = np.asarray(self.g0)
        dz = np.asarray(self.delta_z0, dtype=float)
        if not (np.isfinite(self.eta) and np.isfinite(self.rho)
                and np.isfinite(g0).all() and np.isfinite(dz).all()):
            raise ValueError("attack eta, rho, g0 and delta_z0 must be finite")
        if self.rho < 0.0:
            raise ValueError("attack start time must be nonnegative")
        if not np.any(np.abs(g0) > 0.0):
            raise ValueError("attack signal g0 must be nonzero")
        if not np.any(np.abs(dz) > 0.0):
            raise ValueError("initial-state discrepancy must be nonzero")
        if len(g0) != len(self.attacked):
            raise ValueError("g0 length must match the attacked set size")
        order = sorted(range(len(g0)), key=lambda k: self.attacked[k])
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "g0", g0[order])
        object.__setattr__(self, "delta_z0", dz)
        object.__setattr__(self, "attacked", tuple(self.attacked[k] for k in order))


@dataclass(frozen=True)
class StealthCertificate:
    """Numerical evidence that an attack is output-invisible.

    ``pencil_residuals`` holds one relative kernel residual per stealth-set
    topology; ``observability_residual`` measures how far the initial
    discrepancy leaves the unobservable subspace of the topologies that run
    before the start time (zero when rho = 0);
    ``max_output_gap`` stays None until a verification run measures it.
    """

    valid: bool
    pencil_residuals: tuple
    observability_residual: float
    max_output_gap: float | None = None


def _nullspace(M: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Orthonormal kernel basis: the right singular vectors past ``rank``, by default ``_rank``'s."""
    # a tall M needs only the thin V^H; a fat one needs all of V^H for its kernel
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return Vh[_rank(s) if rank is None else rank :].conj().T


def _spaces(M: np.ndarray):
    """Orthonormal bases of the range, left kernel, row space and kernel of a
    real M, all from one full SVD."""
    Q, s, Vh = np.linalg.svd(M)
    r = _rank(s)
    return Q[:, :r], Q[:, r:], Vh[:r].T, Vh[r:].T


def _blkdiag(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix [[P, 0], [0, Q]]."""
    B = np.zeros((len(P) + len(Q), P.shape[1] + Q.shape[1]))
    B[: len(P), : P.shape[1]], B[len(P) :, P.shape[1] :] = P, Q
    return B


def unobservable_subspace(L_list, M) -> np.ndarray:
    """Orthonormal basis blkdiag(X, X) of the largest subspace of ker C that
    every A_r = [[0, I], [-L_r, 0]] maps into itself, C reading the positions
    of agents M; no columns when every discrepancy shows.  X is the complement
    of the smallest subspace holding range E_M^T that every L_r maps into
    itself (Sun, Ge & Lee, Automatica 38(5), 2002), from one Krylov closure."""
    # scale-free ranks: L / ||L||_F, after a power-of-two prescale that is
    # exact and keeps the norm of weights near the float limit finite
    L_list = [np.ldexp(L, -np.frexp(np.abs(L).max())[1]) for L in L_list]
    L_list = [L / (np.linalg.norm(L) or 1.0) for L in L_list]
    n = len(L_list[0])
    Q = new = np.eye(n)[:, [i - 1 for i in agent_set(M, n, "observed")]]
    while new.shape[1]:
        Z = np.hstack([L @ new for L in L_list])
        Z -= Q @ (Q.T @ Z)
        Z -= Q @ (Q.T @ Z)
        new = _spaces(Z)[0]
        Q = np.hstack([Q, new])
    X = _nullspace(Q.T)
    return _blkdiag(X, X)


def rosenbrock_pencil(A: np.ndarray, B_K: np.ndarray, C: np.ndarray, eta: complex) -> np.ndarray:
    """System pencil [[eta I - A, B_K], [-C, 0]] evaluated at eta."""
    A = np.asarray(A, dtype=float)
    n2 = A.shape[0]
    top = np.hstack([eta * np.eye(n2) - A, B_K])
    bot = np.hstack([-np.asarray(C, dtype=float), np.zeros((C.shape[0], B_K.shape[1]))])
    return np.vstack([top, bot])


def _kernel_pair(A1, B_K, U, eta):
    """Kernel vector (w, -g) of the stacked pencil with the largest signal
    part, split as (w, g).  Its state part is w = U a for a kernel vector
    (a, -g) of the reduced pencil [eta U - A1 U, B_K], so a real eta gives a
    real pair.  None when the kernel carries no signal, or when its state
    part vanishes, which happens only for |eta| far above the norm of A1."""
    Z = _nullspace(np.hstack([eta * U - A1 @ U, B_K]))
    d = U.shape[1]
    _, s, Vh = np.linalg.svd(Z[d:], full_matrices=False)
    if len(s) == 0 or s[0] <= 1e-8:
        return None
    v = Z @ Vh[0].conj()
    if np.linalg.norm(v[:d]) <= 1e-10:
        return None
    return U @ v[:d], -v[d:]


def _candidate_rates(A, B_K, U, target):
    """The target rate, then the finite zeros of the reduced pencil
    [eta U - A U, B_K], destabilizing ones first and nearest the target next;
    nothing when it has none.  Without the injected rows the pencil is
    eta E - F, which a staircase (Van Dooren 1979) reduces until E is square
    and invertible: it solves for the columns of ker E, and the rows of E's
    left kernel L, free of eta, restrict the kernel to ker L^T F.  A
    rank-deficient F ker E means a kernel at every eta; the target suffices."""
    # B_K selects columns of the identity: its zero rows are the complement
    keep = ~B_K.any(axis=1)
    E, F = U[keep], (A @ U)[keep]
    while E.shape[1]:
        R, L, Y, N = _spaces(E)
        if N.shape[1]:
            _, P, _, ker_FN = _spaces(F @ N)
            if ker_FN.shape[1]:
                yield complex(target)
                return
        elif L.shape[1]:
            P, Y = R, _nullspace(L.T @ F)
        else:
            yield complex(target)
            zeros = (complex(z) for z in np.linalg.eigvals(np.linalg.solve(E, F)))
            yield from sorted(zeros, key=lambda e: (e.real <= 1e-12, abs(e - target)))
            return
        E, F = P.T @ E @ Y, P.T @ F @ Y


def synthesize(
    S_stealth,
    M,
    K,
    rho: float = 0.0,
    schedule_prefix: SwitchingSchedule | None = None,
    eta_target: float | None = None,
):
    """Synthesize a stealthy attack against every topology in ``S_stealth``.

    The state part w = (x, v) of every kernel vector (w, -g) lies in
    U = blkdiag(X ker(N X), X): C w = 0 and (A_r - A_1) w = 0 put x in the
    kernel of N = ``detection_matrix(S_stealth, M)``, the pencil fixes
    v = eta x, and X = I at ``rho = 0``.  For ``rho > 0``, X spans the
    position half of the ``unobservable_subspace`` of the topologies whose
    intervals of ``schedule_prefix`` start before rho within one cycle, which
    every dwell before rho maps onto itself, and the offset at t = 0 is
    Re(Phi^-1 w) for Phi = ``schedule_transition`` to rho, real or complex
    rate alike; a rho beyond the schedule's horizon raises ValueError.
    An empty ker(N X) admits no attack: the singular values of N X alone
    tell, by ``detectability``'s rank rule, before anything else is formed.
    Otherwise the rates of ``_candidate_rates`` are tried in turn: the target
    ``eta_target`` (0.05 when None), then the reduced pencil's zeros, which
    may be complex.  Each rate's kernel comes from the reduced pencil
    [eta U - A_1 U, B_K], and its certificate from every topology's full pencil.

    Returns (ZdaAttack, StealthCertificate) for the first certified rate, or
    None when there is none (the detectability condition of the topology
    set blocks every attack).
    """
    S_stealth = list(S_stealth)
    if not S_stealth:
        raise ValueError("stealth topology set must be nonempty")
    if not K:
        raise SynthesisError("no attack channels: attacked set is empty")
    n = S_stealth[0].n
    observed, attacked = agent_set(M, n, "observed"), agent_set(K, n, "attacked")
    N = detection_matrix(S_stealth, observed)
    X = np.eye(n)
    if rho > 0.0:
        if schedule_prefix is None:
            raise ValueError("rho > 0 requires the switching schedule before rho")
        if rho > schedule_prefix.horizon:
            raise ValueError(f"attack start {rho:.6g} lies beyond the horizon {schedule_prefix.horizon:.6g}")
        within = min(rho, schedule_prefix.period)  # the intervals that start before rho, within one cycle
        prefix = [t for a, _, t in itertools.takewhile(lambda iv: iv[0] < within, schedule_prefix.intervals())]
        V = unobservable_subspace([t.L for t in dict.fromkeys(prefix)], M)
        if V.shape[1] == 0:
            raise SynthesisError("no stealthy prefix possible: "
                                 "common unobservable subspace is trivial")
        X = V[:n, : V.shape[1] // 2]
        N = N @ X
    r = _rank(np.linalg.svd(N, compute_uv=False))
    if r == X.shape[1]:
        return None
    U = _blkdiag(X @ _nullspace(N, r), X)
    A_of = {t: assemble_A(t.L) for t in S_stealth}
    A_list = [A_of[t] for t in S_stealth]
    C = assemble_C(M, n)
    B_K = attack_injection(K, n)
    if rho > 0.0:
        A_of.update((t, assemble_A(t.L)) for t in schedule_prefix.order if t not in A_of)
        Phi = schedule_transition(schedule_prefix, A_of, rho)
    target = 0.05 if eta_target is None else eta_target
    seen: list[complex] = []

    for eta in _candidate_rates(A_list[0], B_K, U, target):
        if any(abs(eta - p) < 1e-9 for p in seen):
            continue
        seen.append(eta)
        if abs(eta.imag) < 1e-12:
            eta = eta.real
        pair = _kernel_pair(A_list[0], B_K, U, eta)
        if pair is None:
            continue
        w, g = pair

        if rho > 0.0:
            delta_z0 = np.linalg.solve(Phi, w).real  # the real offset, as w.real at rho = 0
            proj = V @ (V.conj().T @ delta_z0)
            obs_res = float(np.linalg.norm(delta_z0 - proj) / np.linalg.norm(delta_z0))
        else:
            delta_z0 = w.real
            if np.max(np.abs(delta_z0)) <= 1e-10:
                continue
            obs_res = 0.0

        g = np.where(np.abs(g) < RANK_RTOL * np.max(np.abs(g)), 0.0, g)  # rounding-level entries
        scale = 1e-2 / np.max(np.abs(g))
        g0 = g * scale
        delta_z0 = delta_z0 * scale
        vec = np.concatenate([w * scale, -g0])
        residuals = tuple(
            float(
                np.linalg.norm(rosenbrock_pencil(A, B_K, C, eta) @ vec)
                / np.linalg.norm(vec)
            )
            for A in A_list
        )
        cert = StealthCertificate(
            valid=max(residuals) < CERT_TOL and obs_res < CERT_TOL,
            pencil_residuals=residuals,
            observability_residual=obs_res,
        )
        if not cert.valid:
            continue
        atk = ZdaAttack(eta=eta, rho=float(rho), g0=g0, delta_z0=delta_z0, attacked=attacked)
        return atk, cert
    return None


def attack_to_json(atk: ZdaAttack, cert: StealthCertificate | None = None) -> str:
    d = {
        "eta": {"re": atk.eta.real, "im": atk.eta.imag},
        "rho": atk.rho,
        "g0": {
            "re": [float(v) for v in np.real(atk.g0)],
            "im": [float(v) for v in np.imag(atk.g0)],
        },
        "delta_z0": [float(v) for v in atk.delta_z0],
        "attacked": list(atk.attacked),
    }
    if cert is not None:
        d["certificate"] = {
            "valid": cert.valid,
            "pencil_residuals": list(cert.pencil_residuals),
            "observability_residual": cert.observability_residual,
            "max_output_gap": cert.max_output_gap,
        }
    return json.dumps(d, indent=2)


def attack_from_json(d) -> ZdaAttack:
    """The attack of ``attack_to_json``'s text, or of the object it parses
    to; ValueError for a JSON boolean or string where a number belongs."""
    d = json.loads(d) if isinstance(d, str) else d
    real, imag = (np.array([_real(v, "attack g0") for v in d["g0"][k]]) for k in ("re", "im"))
    g0 = real + 1j * imag
    if np.all(g0.imag == 0.0):
        g0 = g0.real
    return ZdaAttack(
        eta=complex(_real(d["eta"]["re"], "attack eta"), _real(d["eta"]["im"], "attack eta")),
        rho=_real(d["rho"], "attack rho"),
        g0=g0,
        delta_z0=np.array([_real(v, "attack delta_z0") for v in d["delta_z0"]]),
        attacked=tuple(d["attacked"]),
    )
