"""Switching Luenberger observer, residual generation, and alarm logic.

The observer copies the plant dynamics under the same topology schedule and
corrects with position residuals r_i = xhat_i - y_i and their derivatives on
the observed channels.  Its estimation error e = zhat - z obeys
de/dt = [[0, I], [-L_s - Phi, -Theta]] e - G m under topology s, where m is
the exogenous mode the plant's segment carries (the attack input, unknown to
the observer); the plant state itself never enters.  The alarm fires when
the residual stays above threshold for a full window of samples.

This module never sees which agents are attacked or when the attack starts;
it consumes only the trace's samples and exact per-segment drifts and steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .graphs import laplacian
from .scheduling import ScheduleError, SwitchingSchedule, hurwitz, switching_signal
from .simulation import Trace

__all__ = [
    "ObserverConfig",
    "ObserverRun",
    "assemble_observer_A",
    "gain_matrices",
    "hurwitz",
    "run_observer",
    "detect",
]


@dataclass(frozen=True)
class ObserverConfig:
    """Observed channels, per-channel gains, and alarm policy.

    ``psi`` and ``theta`` are the position and velocity correction gains,
    one per observed agent; each vector must be nonnegative with at least
    one strictly positive entry.
    """

    observed: tuple
    psi: tuple
    theta: tuple
    alarm_threshold: float = 1e-6
    alarm_window: int = 5

    def __post_init__(self):
        obs = tuple(sorted(self.observed))
        psi = tuple(float(v) for v in self.psi)
        theta = tuple(float(v) for v in self.theta)
        if not obs:
            raise ValueError("observed set must be nonempty")
        if len(psi) != len(obs) or len(theta) != len(obs):
            raise ValueError("need one psi and one theta per observed agent")
        if any(v < 0.0 for v in psi + theta):
            raise ValueError("gains must be nonnegative")
        if not any(v > 0.0 for v in psi) or not any(v > 0.0 for v in theta):
            raise ValueError("at least one psi and one theta must be positive")
        if self.alarm_threshold <= 0.0:
            raise ValueError("alarm threshold must be positive")
        if self.alarm_window < 1:
            raise ValueError("alarm window must be a positive integer")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class ObserverRun:
    """Observer trajectory aligned sample-for-sample with the plant trace."""

    times: np.ndarray
    xhat: np.ndarray
    vhat: np.ndarray
    residuals: np.ndarray


def gain_matrices(cfg: ObserverConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal gain matrices with entries on the observed channels."""
    Phi = np.zeros((n, n))
    Theta = np.zeros((n, n))
    for k, i in enumerate(cfg.observed):
        if not (1 <= i <= n):
            raise ValueError(f"observed agent {i} not within 1..{n}")
        Phi[i - 1, i - 1] = cfg.psi[k]
        Theta[i - 1, i - 1] = cfg.theta[k]
    return Phi, Theta


def assemble_observer_A(L: np.ndarray, Phi: np.ndarray, Theta: np.ndarray) -> np.ndarray:
    """Error-dynamics matrix [[0, I], [-L - Phi, -Theta]]."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    return np.block(
        [[np.zeros((n, n)), np.eye(n)], [-(L + np.asarray(Phi)), -np.asarray(Theta)]]
    )


def run_observer(
    tr: Trace,
    topologies,
    sched: SwitchingSchedule,
    cfg: ObserverConfig,
    xhat0: np.ndarray | None = None,
    vhat0: np.ndarray | None = None,
) -> ObserverRun:
    """Integrate the observer along the plant trace.

    Per dwell segment, the estimation error e = zhat - z and the segment's
    exogenous mode are propagated jointly with a single matrix exponential,
    so the correction terms see the continuous plant output rather than a
    sampled approximation.  Working in e keeps the small estimation error
    away from the rounding floor of the O(1) plant state over long dwell
    intervals; the estimate is the trace's plant state plus e, and the
    residual is e on the observed positions.  The observer starts from the
    supplied (possibly falsified) initial state, defaulting to the trace's
    own initial sample.
    """
    n = tr.n
    if not tr.segments:
        raise ValueError("trace carries no propagation segments")
    L_by_id = {t.id: laplacian(t) for t in topologies}
    for seg in tr.segments:
        if seg.topology_id not in L_by_id:
            raise ScheduleError(f"trace references unknown topology {seg.topology_id}")
        if switching_signal(sched, seg.t0 + 1e-9) != seg.topology_id:
            raise ScheduleError(
                f"schedule mismatch at t={seg.t0:.6g}: trace ran topology "
                f"{seg.topology_id}"
            )
    if sum(len(seg.steps) for seg in tr.segments) != len(tr.times) - 1:
        raise ValueError("trace segments do not step through every sample")
    Phi, Theta = gain_matrices(cfg, n)

    if xhat0 is None:
        xhat0 = tr.states[0, :n]
    if vhat0 is None:
        vhat0 = tr.states[0, n:]
    zhat = np.concatenate([np.asarray(xhat0, float), np.asarray(vhat0, float)])

    times = tr.times
    err = np.empty((len(times), 2 * n))
    err[0] = zhat - tr.states[0]

    # one joint (mode, error) drift and its steady propagator per
    # (topology, attack active), each built on first use
    joint: dict[tuple, np.ndarray] = {}
    steady: dict[tuple, np.ndarray] = {}
    k = 1
    for seg in tr.segments:
        key = (seg.topology_id, seg.attack_active)
        if key not in joint:
            # segment drift [[A, G], [0, Eta]] over (plant, mode) gives the
            # joint (mode, error) drift [[Eta, 0], [-G, A_obs]]
            d = seg.A_aug.shape[0] - 2 * n
            J = np.zeros((d + 2 * n, d + 2 * n))
            J[:d, :d] = seg.A_aug[2 * n :, 2 * n :]
            J[d:, :d] = -seg.A_aug[: 2 * n, 2 * n :]
            J[d:, d:] = assemble_observer_A(L_by_id[seg.topology_id], Phi, Theta)
            joint[key] = J
        J = joint[key]
        state = np.concatenate([seg.state0[2 * n :], err[k - 1]])
        for step in seg.steps.tolist():
            if step == tr.dt and key not in steady:
                steady[key] = expm(J * step)
            state = (steady[key] if step == tr.dt else expm(J * step)) @ state
            err[k] = state[-2 * n :]
            k += 1

    zhat = tr.states + err
    idx = [i - 1 for i in cfg.observed]
    return ObserverRun(
        times=times, xhat=zhat[:, :n], vhat=zhat[:, n:], residuals=err[:, idx]
    )


def detect(times: np.ndarray, residuals: np.ndarray, cfg: ObserverConfig) -> float | None:
    """Earliest alarm time: the end of the first run of ``alarm_window``
    consecutive samples whose residual infinity-norm exceeds the threshold.
    None when no such run exists."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    if residuals.shape[0] == 0:
        raise ValueError("residual trace is empty")
    over = np.max(np.abs(residuals), axis=1) > cfg.alarm_threshold
    run = 0
    for k, flag in enumerate(over):
        run = run + 1 if flag else 0
        if run >= cfg.alarm_window:
            return float(times[k])
    return None
