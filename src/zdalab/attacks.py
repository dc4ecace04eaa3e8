"""Synthesis of stealthy exponential attacks on the switched network.

An attack is the pair (initial-state discrepancy, injected signal
g0 * e^{eta (t - rho)}) chosen so the observed output never changes: the
discrepancy starts in the common unobservable subspace and, from the start
time on, the pair (discrepancy, -g0) sits in the kernel of the system pencil
[[eta I - A, B], [-C, 0]] for every topology the attacker expects to face.
Such attacks exist only at that stacked pencil's zeros (at every rate when
it is rank-deficient), which synthesis computes rather than searches for.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .scheduling import SwitchingSchedule
from .simulation import assemble_A, assemble_C, attack_injection, expm

__all__ = [
    "SynthesisError",
    "ZdaAttack",
    "StealthCertificate",
    "observability_matrix",
    "unobservable_subspace",
    "rosenbrock_pencil",
    "synthesize",
    "predicted_state",
    "attack_to_json",
    "attack_from_json",
]

_SVD_RTOL = 1e-10
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


def observability_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Stacked powers [C; CA; ...; CA^(d-1)] with d equal to the state size."""
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    blocks = []
    row = C
    for _ in range(A.shape[0]):
        blocks.append(row)
        row = row @ A
    return np.vstack(blocks)


def _nullspace(M: np.ndarray, rtol: float = _SVD_RTOL) -> np.ndarray:
    """Orthonormal kernel basis by singular-value thresholding."""
    if M.size == 0:
        return np.eye(M.shape[1])
    # a tall M needs only the thin V^H; a fat one needs all of V^H for its kernel
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > rtol * max(smax, 1.0)))
    return Vh[rank:].conj().T


def unobservable_subspace(A_list, C: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of the unobservable subspaces of
    (A_r, C) over the list.  An empty basis (zero columns) means every
    nonzero initial discrepancy is eventually visible."""
    stacked = np.vstack([observability_matrix(A, C) for A in A_list])
    return _nullspace(stacked)


def rosenbrock_pencil(A: np.ndarray, B_K: np.ndarray, C: np.ndarray, eta: complex) -> np.ndarray:
    """System pencil [[eta I - A, B_K], [-C, 0]] evaluated at eta."""
    A = np.asarray(A, dtype=float)
    n2 = A.shape[0]
    top = np.hstack([eta * np.eye(n2) - A, B_K])
    bot = np.hstack([-np.asarray(C, dtype=float), np.zeros((C.shape[0], B_K.shape[1]))])
    return np.vstack([top, bot])


def _kernel_pair(A_list, B_K, C, eta, w_subspace=None):
    """Kernel vector of the stacked pencil with a nonzero signal part, split
    as (w, g) with the sign convention (w, -g) in the kernel.  None if the
    kernel carries no usable signal component.

    With ``w_subspace`` (orthonormal columns) the state part w is restricted
    to that subspace, which pins pre-start invisibility when the kernel has
    extra directions."""
    Z = _nullspace(np.vstack([rosenbrock_pencil(A, B_K, C, eta) for A in A_list]))
    if Z.shape[1] == 0:
        return None
    n2 = A_list[0].shape[0]
    if w_subspace is not None:
        U = w_subspace
        off = Z[:n2, :] - U @ (U.conj().T @ Z[:n2, :])
        Cb = _nullspace(off, 1e-8)
        if Cb.shape[1] == 0:
            return None
        Z = Z @ Cb
    G = Z[n2:, :]
    _, s, Vh = np.linalg.svd(G, full_matrices=False)
    if len(s) == 0 or s[0] <= 1e-8:
        return None
    v = Z @ Vh[0].conj()
    if np.linalg.norm(v[:n2]) <= 1e-10 * np.linalg.norm(v):
        # the max-signal combination has no state discrepancy; mix in a
        # kernel direction that does carry one
        W = Z[:n2, :]
        _, sw, Vwh = np.linalg.svd(W, full_matrices=False)
        if len(sw) == 0 or sw[0] <= 1e-10:
            return None
        v = v + Z @ Vwh[0].conj()
    return v[:n2], -v[n2:]


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
        N = _nullspace(E)
        if N.shape[1]:
            if _nullspace(F @ N).shape[1]:
                yield complex(target)
                return
            P, Y = _nullspace((F @ N).T), _nullspace(N.T)
        elif (L := _nullspace(E.T)).shape[1]:
            P, Y = _nullspace(L.T), _nullspace(L.T @ F)
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

    The state part w of every kernel vector (w, -g) lies in the subspace U
    where C w = 0 and (A_r - A_1) w = 0 for all r (inside the back-propagated
    unobservable subspace when ``rho > 0``); an empty U admits no attack.
    Otherwise the rates of ``_candidate_rates`` are certified in turn: the
    target ``eta_target`` (0.05 when None), then the reduced pencil's zeros,
    which may be complex.  For ``rho > 0`` a ``schedule_prefix`` must be
    supplied, the rate must be real, and the discrepancy back-propagated to
    time zero must land in the common unobservable subspace.

    Returns (ZdaAttack, StealthCertificate) for the first certified rate, or
    None when there is none (the detectability condition of the topology
    set blocks every attack).
    """
    from .graphs import laplacian

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

    w_subspace = None
    if rho > 0.0:
        if schedule_prefix is None:
            raise ValueError("rho > 0 requires the switching schedule before rho")
        V = unobservable_subspace(A_list, C)
        if V.shape[1] == 0:
            raise SynthesisError(
                "no stealthy prefix possible: common unobservable subspace is trivial"
            )
        Phi = _prefix_propagator(schedule_prefix, A_by_id, rho)
        w_subspace, _ = np.linalg.qr(Phi @ V)

    W = np.eye(2 * n) if w_subspace is None else w_subspace
    U = W @ _nullspace(np.vstack([C] + [A - A_list[0] for A in A_list[1:]]) @ W)
    if U.shape[1] == 0:
        return None
    target = 0.05 if eta_target is None else eta_target
    seen: list[complex] = []

    for eta in _candidate_rates(A_list[0], B_K, U, target):
        if any(abs(eta - p) < 1e-9 for p in seen):
            continue
        seen.append(eta)
        if rho > 0.0 and abs(eta.imag) > 1e-12:
            continue
        pair = _kernel_pair(A_list, B_K, C, eta, w_subspace=w_subspace)
        if pair is None:
            continue
        w, g = pair
        if abs(eta.imag) < 1e-12:
            # rotate a (numerically) real kernel vector onto the real axis
            phase = np.exp(-1j * np.angle(w[np.argmax(np.abs(w))]))
            w = (w * phase).real.astype(float)
            g = (g * phase).real
            if np.max(np.abs(g)) <= 1e-10:
                continue
            eta = complex(eta.real, 0.0)

        if rho > 0.0:
            delta_z0 = np.linalg.solve(Phi, w)
            proj = V @ (V.conj().T @ delta_z0)
            obs_res = float(np.linalg.norm(delta_z0 - proj) / np.linalg.norm(delta_z0))
            if obs_res > CERT_TOL:
                continue
        else:
            delta_z0 = w.real if np.iscomplexobj(w) else w
            if np.max(np.abs(delta_z0)) <= 1e-10:
                continue
            obs_res = 0.0

        scale = 1e-2 / np.max(np.abs(g))
        g0 = g * scale
        delta_z0 = np.asarray(delta_z0, dtype=float) * scale
        w_s = w * scale

        vec = np.concatenate([w_s, -g0])
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


def predicted_state(atk: ZdaAttack, clean_state_at_t, discrepancy_at_rho, t: float) -> np.ndarray:
    """Closed-form attacked state: clean state plus the start-time discrepancy
    amplified by e^{eta (t - rho)}."""
    if t < atk.rho:
        raise ValueError("prediction only applies at or after the attack start")
    disc = np.asarray(discrepancy_at_rho)
    return np.asarray(clean_state_at_t, dtype=float) + np.real(
        disc * np.exp(atk.eta * (t - atk.rho))
    )


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
