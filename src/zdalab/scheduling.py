"""Dwell-time construction and switching-signal generation.

Dwell times are half-multiples of the active Laplacian's common modal period,
offset by a small slack, so that a topology hands over at (near) the same
modal phase it started with.  The weighted matrix-measure check certifies
average contraction of the switched observer-error dynamics.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .graphs import LaplacianSpectrum, RatioCertificate

__all__ = [
    "DwellParams",
    "SwitchingSchedule",
    "MeasureReport",
    "ScheduleError",
    "xi",
    "base_period",
    "dwell_time",
    "hurwitz",
    "lyapunov_weight",
    "measure_condition",
    "switching_signal",
]


# most switch instants one schedule may hold, checked before computing them
MAX_SWITCHES = 1_000_000


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
        if self.kappa < 1:
            raise ScheduleError(f"kappa must be a positive integer, got {self.kappa}")
        if self.m < 1:
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
        for tid in self.order:
            if not 0.0 < self.dwell.get(tid, 0.0) < math.inf:
                raise ScheduleError(f"dwell for topology {tid} must be positive and finite")
        if not self.horizon > 0.0:
            raise ScheduleError("horizon must be positive")
        # switch k of cycle c is at c * period + the prefix sum of the dwells
        # up to k, so no rounding drift accumulates over the cycles
        prefix = np.cumsum([self.dwell[tid] for tid in self.order])
        count = len(self.order) * self.horizon / prefix[-1]
        if count > MAX_SWITCHES:
            raise ScheduleError(f"{count:.3g} switches exceed the cap of {MAX_SWITCHES}")
        cycles = np.arange(math.ceil(self.horizon / prefix[-1]) + 1)
        times = (cycles[:, None] * prefix[-1] + prefix).ravel()
        times = times[times < self.horizon - 1e-12]
        object.__setattr__(self, "switch_times", tuple(times.tolist()))

    def intervals(self):
        """Yield (t_start, t_end, topology_id) covering [0, horizon]."""
        bounds = (0.0,) + self.switch_times + (self.horizon,)
        for k in range(len(bounds) - 1):
            yield bounds[k], bounds[k + 1], self.order[k % len(self.order)]

    @property
    def period(self) -> float:
        return sum(self.dwell[tid] for tid in self.order)

    def to_json(self) -> str:
        return json.dumps(
            {
                "order": list(self.order),
                "dwell": {str(k): v for k, v in self.dwell.items()},
                "horizon": self.horizon,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SwitchingSchedule":
        d = json.loads(text)
        return cls(
            order=tuple(d["order"]),
            dwell={int(k): float(v) for k, v in d["dwell"].items()},
            horizon=float(d["horizon"]),
        )


def xi(spectra) -> float:
    """Largest distance of any Laplacian eigenvalue from 1, over all topologies."""
    worst = 0.0
    for spec in spectra:
        worst = max(worst, float(np.abs(spec.eigenvalues - 1.0).max()))
    return worst


def base_period(cert: RatioCertificate, lambda2: float) -> float:
    """Common period of all oscillatory modes: the smallest T that is an
    integer multiple of every modal period 2*pi/sqrt(lambda_i)."""
    if not cert.ok:
        raise ScheduleError("eigenvalue ratios not rational within tolerance")
    p2 = 2.0 * math.pi / math.sqrt(lambda2)
    # P_i / P_2 = q_i / p_i in lowest terms, where cert ratio i is p_i / q_i.
    mult = math.lcm(*(f.denominator for f in cert.ratios))
    return p2 * mult


def dwell_time(p: DwellParams, T_r: float, xi_value: float) -> float:
    """Smallest admissible dwell time tau_hat_max + m * T_r / 2 with m >= p.m."""
    if xi_value >= p.alpha:
        raise ScheduleError(
            f"spectrum too far from 1 (xi={xi_value:.6g} >= alpha={p.alpha:.6g}); "
            "dwell-time construction inapplicable"
        )
    threshold = (p.beta ** (-1.0 / p.kappa) - 1.0) * p.kappa / (p.alpha - xi_value)
    m = max(1, p.m)
    while p.tau_hat_max + m * T_r / 2.0 <= threshold:
        m += 1
    return p.tau_hat_max + m * T_r / 2.0


def hurwitz(A: np.ndarray, tol: float | None = None) -> bool:
    """True when every eigenvalue of A has real part below -tol.  The default
    margin, 1e-12 * max(1, ||A||_2), scales with A so that an eigenvalue at
    rounding distance from the imaginary axis does not count as decaying."""
    A = np.asarray(A, dtype=float)
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.linalg.norm(A, 2)))
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    return bool(np.max(vals.real) < -tol)


def lyapunov_weight(A_list) -> np.ndarray:
    """Positive-definite P with P A + A^T P = -I for the first Hurwitz A in
    the list.  Such a mode exists only when some active Laplacian has distinct
    eigenvalues; otherwise the observer-error dynamics have no decaying mode."""
    for A in A_list:
        A = np.asarray(A, dtype=float)
        if hurwitz(A):
            P = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(A.shape[0]))
            P = 0.5 * (P + P.T)
            if np.min(np.linalg.eigvalsh(P)) <= 0.0:
                raise ScheduleError("Lyapunov solve produced a non-definite weight")
            return P
    raise ScheduleError(
        "no Hurwitz mode in list; the observer dynamics are Hurwitz only when "
        "the active Laplacian has distinct eigenvalues"
    )


@dataclass(frozen=True)
class MeasureReport:
    ok: bool
    value: float
    nu: tuple
    measures: tuple


def weighted_log_norm(A: np.ndarray, P: np.ndarray) -> float:
    """Logarithmic norm of A in the P-weighted 2-norm: the largest eigenvalue
    of the pencil (P A + A^T P, 2 P)."""
    S = P @ A + A.T @ P
    S = 0.5 * (S + S.T)
    return float(scipy.linalg.eigh(S, 2.0 * P, eigvals_only=True).max())


def measure_condition(A_list, tau_list, P: np.ndarray) -> MeasureReport:
    """Dwell-weighted average of the P-weighted logarithmic norms; negative
    means the switched error dynamics contract on average."""
    if len(A_list) != len(tau_list):
        raise ScheduleError("A_list and tau_list lengths differ")
    P = np.asarray(P, dtype=float)
    if np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) <= 0.0:
        raise ScheduleError("weight matrix P must be positive-definite")
    total = float(sum(tau_list))
    nu = tuple(float(t) / total for t in tau_list)
    measures = tuple(weighted_log_norm(np.asarray(A, float), P) for A in A_list)
    value = float(sum(n * m for n, m in zip(nu, measures)))
    return MeasureReport(ok=value < 0.0, value=value, nu=nu, measures=measures)


def switching_signal(sched: SwitchingSchedule, t: float) -> int:
    """Topology id active at time t; right-continuous at switch instants."""
    if t < 0.0:
        raise ScheduleError(f"time {t} is negative")
    if t > sched.horizon + 1e-12:
        raise ScheduleError(f"time {t} exceeds schedule horizon {sched.horizon}")
    k = bisect.bisect_right(sched.switch_times, t)
    return sched.order[k % len(sched.order)]
