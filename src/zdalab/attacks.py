"""Synthesis of stealthy exponential attacks on the switched network.

An attack is the pair (initial-state discrepancy, injected signal
g0 * e^{eta (t - rho)}) chosen so the observed output never changes: the
discrepancy starts in the common unobservable subspace and, from the start
time on, the pair (discrepancy, -g0) sits in the kernel of the system pencil
[[eta I - A, B], [-C, 0]] for every topology the attacker expects to face.
Such attacks exist only at that stacked pencil's zeros (at every rate when
it is rank-deficient).  Synthesis finds the zeros and the kernel in one
reduced pencil; only the certificate evaluates each topology's full pencil.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import RANK_RTOL, detection_matrix, laplacian
from .scheduling import SwitchingSchedule
from .simulation import assemble_A, assemble_C, attack_injection, expm

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
    defender; ``g0`` is the injected signal at the start time ``rho``, routed
    into the velocity channels of the ``attacked`` agents.  ``eta`` may be
    complex; the physically injected signal is Re(g0 * e^{eta (t - rho)}).
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
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "delta_z0", dz)
        object.__setattr__(self, "attacked", tuple(sorted(self.attacked)))


@dataclass(frozen=True)
class StealthCertificate:
    """Numerical evidence that an attack is output-invisible.

    ``pencil_residuals`` holds one relative kernel residual per stealth-set
    topology; ``observability_residual`` measures how far the initial
    discrepancy leaves the common unobservable subspace (zero when rho = 0);
    ``max_output_gap`` stays None until a verification run measures it.
    """

    valid: bool
    pencil_residuals: tuple
    observability_residual: float
    max_output_gap: float | None = None


def _rank(s: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL relative to max(s_max, 1)."""
    return int(np.count_nonzero(s > RANK_RTOL * s.max(initial=1.0)))


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis by singular-value thresholding."""
    # a tall M needs only the thin V^H; a fat one needs all of V^H for its kernel
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return Vh[_rank(s):].conj().T


def _spaces(M: np.ndarray):
    """Orthonormal bases of the range, left kernel, row space and kernel of a
    real M, all from one full SVD."""
    Q, s, Vh = np.linalg.svd(M)
    r = _rank(s)
    return Q[:, :r], Q[:, r:], Vh[:r].T, Vh[r:].T


def unobservable_subspace(L_list, M) -> np.ndarray:
    """Orthonormal basis blkdiag(X, X) of the largest subspace of ker C that
    every A_r = [[0, I], [-L_r, 0]] maps into itself, C reading the positions
    of agents M; no columns when every discrepancy shows.  X is the complement
    of the smallest subspace holding range E_M^T that every L_r maps into
    itself (Sun, Ge & Lee, Automatica 38(5), 2002), from one Krylov closure."""
    L_list = [L / (np.linalg.norm(L) or 1.0) for L in L_list]  # scale-free ranks
    Q = new = np.eye(len(L_list[0]))[:, [i - 1 for i in sorted(M)]]
    while new.shape[1]:
        Z = np.hstack([L @ new for L in L_list])
        Z -= Q @ (Q.T @ Z)
        Z -= Q @ (Q.T @ Z)
        new = _spaces(Z)[0]
        Q = np.hstack([Q, new])
    X = _nullspace(Q.T)
    return np.block([[X, np.zeros_like(X)], [np.zeros_like(X), X]])


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


def _prefix_propagator(sched: SwitchingSchedule, A_by_id: dict, rho: float) -> np.ndarray:
    """State-transition matrix of the unattacked plant from 0 to rho under the
    schedule: one whole cycle's propagator raised to the number of whole
    cycles before rho by binary powering, then the dwells of the incomplete
    last cycle, all from one stacked exponential of the dwells before rho.
    Raises ValueError when rho lies beyond the schedule's horizon."""
    if rho > sched.horizon:
        raise ValueError(f"attack start {rho:.6g} lies beyond the horizon {sched.horizon:.6g}")
    cycles, rest = divmod(rho, sched.period)
    whole = [(tid, sched.dwell[tid]) for tid in sched.order] if cycles else []
    spans, t0 = [], 0.0
    for tid in sched.order:
        spans.append((tid, min(sched.dwell[tid], rest - t0)))
        t0 += sched.dwell[tid]
        if t0 >= rest:
            break
    exps = expm(np.array([A_by_id[tid] * d for tid, d in whole + spans]))
    cycle = np.eye(exps.shape[-1])
    for E in exps[: len(whole)]:
        cycle = E @ cycle
    Phi = np.linalg.matrix_power(cycle, int(cycles))
    for E in exps[len(whole) :]:
        Phi = E @ Phi
    return Phi


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
    v = eta x, and X = I at ``rho = 0``.  For ``rho > 0``, a real rate and a
    ``schedule_prefix`` running only ``S_stealth`` topologies, X spans the
    position half of ``unobservable_subspace``, which every dwell maps onto
    itself.  An empty ker(N X) admits no attack.  Otherwise the rates of
    ``_candidate_rates`` are tried in turn: the target ``eta_target``
    (0.05 when None), then the reduced pencil's zeros, which may be complex.
    Each rate's kernel comes from the reduced pencil [eta U - A_1 U, B_K],
    and its certificate from every topology's full pencil.

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
    A_by_id = {t.id: assemble_A(laplacian(t)) for t in S_stealth}
    A_list = [A_by_id[t.id] for t in S_stealth]
    C = assemble_C(M, n)
    B_K = attack_injection(K, n)

    N = detection_matrix(S_stealth, M)
    X = np.eye(n)
    if rho > 0.0:
        if schedule_prefix is None:
            raise ValueError("rho > 0 requires the switching schedule before rho")
        unhidden = sorted(set(schedule_prefix.order) - set(A_by_id))
        if unhidden:
            raise ValueError(f"rho > 0: scheduled topologies {unhidden} are not in the stealth set")
        V = unobservable_subspace([laplacian(t) for t in S_stealth], M)
        if V.shape[1] == 0:
            raise SynthesisError("no stealthy prefix possible: "
                                 "common unobservable subspace is trivial")
        X = V[:n, : V.shape[1] // 2]
    XH = X @ _nullspace(N @ X)
    if XH.shape[1] == 0:
        return None
    U = np.block([[XH, np.zeros_like(X)], [np.zeros_like(XH), X]])
    if rho > 0.0:
        Phi = _prefix_propagator(schedule_prefix, A_by_id, rho)
    target = 0.05 if eta_target is None else eta_target
    seen: list[complex] = []

    for eta in _candidate_rates(A_list[0], B_K, U, target):
        if any(abs(eta - p) < 1e-9 for p in seen):
            continue
        seen.append(eta)
        if abs(eta.imag) < 1e-12:
            eta = eta.real
        elif rho > 0.0:
            continue
        pair = _kernel_pair(A_list[0], B_K, U, eta)
        if pair is None:
            continue
        w, g = pair

        if rho > 0.0:
            delta_z0 = np.linalg.solve(Phi, w)
            proj = V @ (V.conj().T @ delta_z0)
            obs_res = float(np.linalg.norm(delta_z0 - proj) / np.linalg.norm(delta_z0))
        else:
            delta_z0 = w.real
            if np.max(np.abs(delta_z0)) <= 1e-10:
                continue
            obs_res = 0.0

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
        atk = ZdaAttack(eta=eta, rho=float(rho), g0=g0, delta_z0=delta_z0, attacked=tuple(sorted(K)))
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


def attack_from_json(text: str) -> ZdaAttack:
    d = json.loads(text)
    g0 = np.array(d["g0"]["re"], dtype=float) + 1j * np.array(d["g0"]["im"], dtype=float)
    if np.all(g0.imag == 0.0):
        g0 = g0.real
    return ZdaAttack(
        eta=complex(d["eta"]["re"], d["eta"]["im"]),
        rho=float(d["rho"]),
        g0=g0,
        delta_z0=np.array(d["delta_z0"], dtype=float),
        attacked=tuple(d["attacked"]),
    )
