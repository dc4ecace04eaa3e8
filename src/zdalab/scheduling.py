"""Dwell-time construction and switching-signal generation.

Dwell times are half-multiples of the active Laplacian's common modal period
(``Topology.period``), offset by a small slack, so that a topology hands over
at (near) the same modal phase it started with.  The weighted matrix-measure
check certifies average contraction of the switched observer-error dynamics.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import _is_id

__all__ = [
    "DwellParams",
    "SwitchingSchedule",
    "MeasureReport",
    "ScheduleError",
    "xi",
    "dwell_time",
    "hurwitz",
    "lyapunov_weight",
    "measure_condition",
]


# most switch instants one schedule may hold, checked before computing them
MAX_SWITCHES = 1_000_000
# sign-function steps allowed for a Lyapunov solve; observer matrices at
# n = 64 with 1e-6 gains take about 50
MAX_SIGN_STEPS = 100
# largest ||A^T P + P A + I||_F / (2 ||A||_F ||P||_F) at which lyapunov_weight
# accepts the eigendecomposition's P, about the unit roundoff: on random
# Hurwitz observer matrices (n = 2..64, gains 1e-6..1e3) that P reads at most
# 5.3e-17 and scipy's up to 6e-16; within 1e-10 of critical damping, 1e-15 or more
LYAP_RTOL = 1e-16


class ScheduleError(ValueError):
    """Infeasible or inconsistent schedule construction."""


@dataclass(frozen=True)
class DwellParams:
    """Scalars governing admissible dwell times.

    Constraints: 0 < beta < 1, alpha > 0, kappa >= 1, and
    0 < tau_hat_max < -ln(beta) / alpha.  The default alpha exceeds 1 because
    the spectrum-distance bound it must dominate counts the zero eigenvalue
    and is therefore never below 1.
    """

    beta: float = 0.5
    alpha: float = 2.0
    kappa: int = 1
    tau_hat_max: float | None = None
    m: int = 1

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ScheduleError(f"beta must be in (0,1), got {self.beta}")
        if self.alpha <= 0.0:
            raise ScheduleError(f"alpha must be positive, got {self.alpha}")
        if not (_is_id(self.kappa) and self.kappa >= 1):
            raise ScheduleError(f"kappa must be a positive integer, got {self.kappa}")
        if not (_is_id(self.m) and self.m >= 1):
            raise ScheduleError(f"m must be a positive integer, got {self.m}")
        bound = -math.log(self.beta) / self.alpha
        tau_hat = self.tau_hat_max
        if tau_hat is None:
            tau_hat = min(0.2, 0.9 * bound)
        if not (0.0 < tau_hat < bound):
            raise ScheduleError(
                f"tau_hat_max must lie in (0, {bound:.6g}), got {tau_hat}"
            )
        object.__setattr__(self, "tau_hat_max", tau_hat)


@dataclass(frozen=True)
class SwitchingSchedule:
    """Cyclic topology order with per-topology dwell times over a horizon."""

    order: tuple
    dwell: dict
    horizon: float
    switch_times: tuple = field(init=False)

    def __post_init__(self):
        if not self.order:
            raise ScheduleError("switching order must be nonempty")
        for t in self.order:
            if not 0.0 < self.dwell.get(t, 0.0) < math.inf:
                raise ScheduleError(f"dwell for topology {t.id} must be positive and finite")
        if not self.horizon > 0.0:
            raise ScheduleError("horizon must be positive")
        # switch k of cycle c is at c * period + the prefix sum of the dwells
        # up to k, so no rounding drift accumulates over the cycles
        prefix = np.cumsum([self.dwell[t] for t in self.order])
        count = len(self.order) * self.horizon / prefix[-1]
        if count > MAX_SWITCHES:
            raise ScheduleError(f"{count:.3g} switches exceed the cap of {MAX_SWITCHES}")
        cycles = np.arange(math.ceil(self.horizon / prefix[-1]) + 1)
        with np.errstate(over="ignore"):  # a cycle past the horizon may overflow
            times = (cycles[:, None] * prefix[-1] + prefix).ravel()
        times = times[times < self.horizon - 1e-12]
        object.__setattr__(self, "switch_times", tuple(times.tolist()))

    def intervals(self):
        """Yield (t_start, t_end, topology) covering [0, horizon], copying no bounds."""
        bounds = itertools.chain((0.0,), self.switch_times, (self.horizon,))
        for k, (a, b) in enumerate(itertools.pairwise(bounds)):
            yield a, b, self.order[k % len(self.order)]

    @property
    def period(self) -> float:
        return sum(self.dwell[t] for t in self.order)


def xi(spectra) -> float:
    """Largest distance of any Laplacian eigenvalue from 1, over all topologies."""
    return max((float(np.abs(s.eigenvalues - 1.0).max()) for s in spectra), default=0.0)


def dwell_time(p: DwellParams, T_r: float, xi_value: float) -> float:
    """Smallest admissible dwell time tau_hat_max + m * T_r / 2 with m >= p.m,
    m being the least integer above (threshold - tau_hat_max) / (T_r / 2)."""
    if xi_value >= p.alpha:
        raise ScheduleError(
            f"spectrum too far from 1 (xi={xi_value:.6g} >= alpha={p.alpha:.6g}); "
            "dwell-time construction inapplicable"
        )
    half = T_r / 2.0
    try:
        threshold = (p.beta ** (-1.0 / p.kappa) - 1.0) * p.kappa / (p.alpha - xi_value)
        # the least m above the quotient, then one step for its rounding
        m = max(p.m, math.floor((threshold - p.tau_hat_max) / half) + 1)
    except (OverflowError, ValueError, ZeroDivisionError):  # no finite quotient
        raise ScheduleError(f"dwell threshold over half-period {half:.6g} is not finite") from None
    if p.tau_hat_max + m * half <= threshold:
        m += 1
    elif m > p.m and p.tau_hat_max + (m - 1) * half > threshold:
        m -= 1
    tau = p.tau_hat_max + m * half
    if not math.isfinite(tau):
        raise ScheduleError(f"dwell time {tau:.6g} is not finite")
    return tau


def hurwitz(A: np.ndarray, tol: float | None = None) -> bool:
    """True when every eigenvalue of A has real part below -tol.  The default
    margin, 1e-12 * max(1, ||A||_2), scales with A so that an eigenvalue at
    rounding distance from the imaginary axis does not count as decaying."""
    return _hurwitz_eig(np.asarray(A, dtype=float), tol)[0]


def _hurwitz_eig(A: np.ndarray, tol: float | None = None) -> tuple:
    """The verdict of ``hurwitz`` with the eigenvalues and eigenvector
    matrix of A that decide it, from one ``eig``."""
    try:
        lam, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.linalg.norm(A, 2)))
    return bool(np.max(lam.real) < -tol), lam, V


def lyapunov_weight(A_list) -> np.ndarray:
    """Positive-definite P with P A + A^T P = -I for the first Hurwitz A in
    the list.  With one observed agent a mode is Hurwitz only when its
    Laplacian has distinct eigenvalues; with several, a repeated spectrum
    can still give one.  One ``eig`` A = V diag(lam) V^-1 decides the mode
    and gives P = V^-H X V^-1, X_ij = -(V^H V)_ij / (conj(lam_i) + lam_j)
    (Higham, Functions of Matrices, SIAM 2008, 4.5), refined once."""
    for A in A_list:
        A = np.asarray(A, dtype=float)
        decays, lam, V = _hurwitz_eig(A)
        if not decays:
            continue
        I, W, D = np.eye(len(A)), np.linalg.inv(V), -1.0 / (lam.conj()[:, None] + lam)

        def solve(Q):  # the P with A^T P + P A = -Q
            P = (W.conj().T @ ((V.conj().T @ Q @ V) * D) @ W).real
            return 0.5 * (P + P.T)

        P = solve(I)
        P += solve(I + A.T @ P + P @ A)
        # the error of P grows with cond(V), so near a defective A, such as a
        # critically damped observer, only the sign iteration is accurate
        residual = np.linalg.norm(I + A.T @ P + P @ A)
        if not residual <= LYAP_RTOL * 2.0 * np.linalg.norm(A) * np.linalg.norm(P):
            P = _lyapunov(A)
        if np.min(np.linalg.eigvalsh(P)) <= 0.0:
            raise ScheduleError("Lyapunov solve produced a non-definite weight")
        return P
    raise ScheduleError("no Hurwitz mode in list: no mode's observer error decays in every direction")


def _lyapunov(A: np.ndarray) -> np.ndarray:
    """P with A^T P + P A + I = 0 for a Hurwitz A, by the matrix-sign Newton
    iteration on [[A^T, I], [0, -A]] (Roberts, Int. J. Control 32(4), 1980):
    F -> (F/c + c F^-1)/2 runs A^T to -I while Q -> (Q/c + c F^-1 Q F^-T)/2
    runs I to 2P.  The scale c = sqrt(||F||_F / ||F^-1||_F) needs no
    determinant; on small-gain observer matrices at n = 64 it converged
    sooner and to a smaller residual than determinant scaling.  The map from
    I to 2P is linear in Q, so replaying the stored steps on the residual
    gives one correction step of iterative refinement."""
    d = A.shape[0]
    F, steps = A.T, []
    for _ in range(MAX_SIGN_STEPS):
        inv = np.linalg.inv(F)
        c = math.sqrt(np.linalg.norm(F) / np.linalg.norm(inv))
        steps.append((c, inv))
        F = 0.5 * (F / c + c * inv)
        if np.abs(F + np.eye(d)).sum(axis=0).max() <= 1e-12:
            break
    else:
        raise ScheduleError("sign iteration of the Lyapunov solve did not converge")

    def solve(Q):
        for c, inv in steps:
            Q = 0.5 * (Q / c + c * (inv @ Q @ inv.T))
        return 0.25 * (Q + Q.T)

    P = solve(np.eye(d))
    return P + solve(np.eye(d) + A.T @ P + P @ A)


@dataclass(frozen=True)
class MeasureReport:
    ok: bool
    value: float
    nu: tuple
    measures: tuple


def weighted_log_norm(A: np.ndarray, P: np.ndarray):
    """Logarithmic norm of A in the P-weighted 2-norm: the largest eigenvalue
    of the pencil (P A + A^T P, 2 P), that of K + K^T for K = R^-1 P A R^-T
    and the Cholesky factor 2 P = R R^T.  For a stack of matrices (k, d, d),
    an array of the k norms, with R inverted once for the stack."""
    Ri = np.linalg.inv(np.linalg.cholesky(2.0 * np.asarray(P, dtype=float)))
    K = Ri @ P @ A @ Ri.T
    top = np.linalg.eigvalsh(K + np.swapaxes(K, -1, -2)).max(axis=-1)
    return float(top) if top.ndim == 0 else top


def measure_condition(A_list, tau_list, P: np.ndarray) -> MeasureReport:
    """Dwell-weighted average of the P-weighted logarithmic norms; negative
    means the switched error dynamics contract on average."""
    if len(A_list) != len(tau_list):
        raise ScheduleError("A_list and tau_list lengths differ")
    total = float(sum(tau_list))
    nu = tuple(float(t) / total for t in tau_list)
    try:  # the Cholesky factorization of 2 P decides definiteness
        measures = tuple(weighted_log_norm(np.array(A_list, dtype=float), P).tolist())
    except np.linalg.LinAlgError as exc:
        raise ScheduleError("weight matrix P must be positive-definite") from exc
    value = float(sum(n * m for n, m in zip(nu, measures)))
    return MeasureReport(ok=value < 0.0, value=value, nu=nu, measures=measures)

