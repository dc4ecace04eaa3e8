"""Synthesis of stealthy exponential attacks on the switched network.

An attack is the pair (initial-state discrepancy, injected signal
g0 * e^{eta (t - rho)}) chosen so the observed output never changes: the
discrepancy starts in the common unobservable subspace and, from the start
time on, the pair (discrepancy, -g0) sits in the kernel of the system pencil
[[eta I - A, B], [-C, 0]] for every topology the attacker expects to face.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .scheduling import SwitchingSchedule
from .simulation import assemble_A, assemble_C, attack_injection

__all__ = [
    "SynthesisError",
    "ZdaAttack",
    "StealthCertificate",
    "observability_matrix",
    "unobservable_subspace",
    "rosenbrock_pencil",
    "synthesize",
    "attack_signal",
    "predicted_state",
    "attack_to_json",
    "attack_from_json",
]

_SVD_RTOL = 1e-10


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
    _, s, Vh = np.linalg.svd(M)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > rtol * max(smax, 1.0)))
    return Vh[rank:].conj().T


def unobservable_subspace(A_list, C: np.ndarray, tol: float = _SVD_RTOL) -> np.ndarray:
    """Orthonormal basis of the intersection of the unobservable subspaces of
    (A_r, C) over the list.  An empty basis (zero columns) means every
    nonzero initial discrepancy is eventually visible."""
    stacked = np.vstack([observability_matrix(A, C) for A in A_list])
    return _nullspace(stacked, tol)


def rosenbrock_pencil(A: np.ndarray, B_K: np.ndarray, C: np.ndarray, eta: complex) -> np.ndarray:
    """System pencil [[eta I - A, B_K], [-C, 0]] evaluated at eta."""
    A = np.asarray(A, dtype=float)
    n2 = A.shape[0]
    top = np.hstack([eta * np.eye(n2) - A, B_K])
    bot = np.hstack([-np.asarray(C, dtype=float), np.zeros((C.shape[0], B_K.shape[1]))])
    return np.vstack([top, bot])


def _stacked_pencil(A_list, B_K, C, eta) -> np.ndarray:
    return np.vstack([rosenbrock_pencil(A, B_K, C, eta) for A in A_list])


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


def _kernel_pair(A_list, B_K, C, eta, rtol=_SVD_RTOL, w_subspace=None):
    """Kernel vector of the stacked pencil with a nonzero signal part, split
    as (w, g) with the sign convention (w, -g) in the kernel.  None if the
    kernel carries no usable signal component.

    With ``w_subspace`` (orthonormal columns) the state part w is restricted
    to that subspace, which pins pre-start invisibility when the kernel has
    extra directions."""
    Z = _nullspace(_stacked_pencil(A_list, B_K, C, eta), rtol)
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
    _, s, Vh = np.linalg.svd(G)
    if len(s) == 0 or s[0] <= 1e-8:
        return None
    v = Z @ Vh[0].conj()
    if np.linalg.norm(v[:n2]) <= 1e-10 * np.linalg.norm(v):
        # the max-signal combination has no state discrepancy; mix in a
        # kernel direction that does carry one
        W = Z[:n2, :]
        _, sw, Vwh = np.linalg.svd(W)
        if len(sw) == 0 or sw[0] <= 1e-10:
            return None
        v = v + Z @ Vwh[0].conj()
    return v[:n2], -v[n2:]


def _prefix_propagator(sched: SwitchingSchedule, A_by_id: dict, rho: float) -> np.ndarray:
    """State-transition matrix of the unattacked plant from 0 to rho under the
    schedule."""
    n2 = next(iter(A_by_id.values())).shape[0]
    Phi = np.eye(n2)
    for t0, t1, tid in sched.intervals():
        if t0 >= rho - 1e-12:
            break
        d = min(t1, rho) - t0
        Phi = scipy.linalg.expm(A_by_id[tid] * d) @ Phi
    return Phi


def synthesize(
    S_stealth,
    M,
    K,
    rho: float = 0.0,
    schedule_prefix: SwitchingSchedule | None = None,
    n_probes: int = 40,
    seed: int = 0,
    tol: float = 1e-8,
    eta_target: float | None = None,
):
    """Search for a stealthy attack against every topology in ``S_stealth``.

    Candidate decay rates are the finite invariant zeros of each
    single-topology pencil plus a deterministic ladder of real probes and
    seeded random ones.  Candidates with positive real part are preferred
    (destabilizing), ties broken by smallest magnitude, or by distance to
    ``eta_target`` when one is given.  For ``rho > 0`` a
    ``schedule_prefix`` must be supplied; the discrepancy is back-propagated
    to time zero and must land in the common unobservable subspace.

    Returns (ZdaAttack, StealthCertificate) or None when no candidate admits
    a kernel vector with a nonzero signal component (the detectability
    condition of the topology set blocks every attack).
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

    candidates = _invariant_zero_candidates(A_list, B_K, C)
    candidates += [0.05, 0.1, 0.15, 0.2, 0.25]
    rng = np.random.default_rng(seed)
    candidates += list(rng.uniform(0.01, 1.0, n_probes))
    # prefer destabilizing rates; among those, the slowest, unless the caller
    # asks for rates near a target growth; drop near-duplicates
    if eta_target is None:
        candidates.sort(key=lambda e: (complex(e).real <= 1e-12, abs(complex(e))))
    else:
        candidates.sort(
            key=lambda e: (complex(e).real <= 1e-12, abs(complex(e) - eta_target))
        )
    seen: list[complex] = []

    for eta in candidates:
        eta = complex(eta)
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
            if obs_res > tol:
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
            valid=max(residuals) < tol and obs_res < tol,
            pencil_residuals=residuals,
            observability_residual=obs_res,
        )
        if not cert.valid:
            continue
        atk = ZdaAttack(eta=eta, rho=float(rho), g0=g0, delta_z0=delta_z0, attacked=tuple(sorted(K)))
        return atk, cert
    return None


def attack_signal(atk: ZdaAttack, t: float) -> np.ndarray:
    """Injected signal at time t: zero before the start time, then the real
    part of g0 * e^{eta (t - rho)}."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    if t < atk.rho:
        return np.zeros(len(atk.attacked))
    return np.real(np.asarray(atk.g0) * np.exp(atk.eta * (t - atk.rho)))


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
