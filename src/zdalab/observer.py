"""Switching Luenberger observer, residual generation, and alarm logic.

The observer copies the plant dynamics under the same topology schedule and
corrects with position residuals r_i = xhat_i - y_i and their derivatives on
the observed channels.  Its estimation error e = zhat - z obeys
de/dt = [[0, I], [-L_s - Phi, -Theta]] e - G m under topology s, where m is
the exogenous mode the plant's segment carries (the attack input, unknown to
the observer); the plant state itself never enters.  The alarm fires when
the residual stays above threshold for a full window of samples.

This module never sees the attacked agents or the attack start; it consumes
only the trace's samples, its attack mode's drift and gain, and the exact
per-segment topologies, modes and steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import _is_id, agent_set
from .simulation import EXPM_BLOCK_VALUES, SimulationError, Trace, assemble_A, expm, expm_action, taylor_plan

__all__ = [
    "ObserverConfig",
    "ObserverRun",
    "assemble_observer_A",
    "gain_matrices",
    "run_observer",
    "detect",
]


@dataclass(frozen=True)
class ObserverConfig:
    """Observed channels, per-channel gains, and alarm policy.

    ``psi`` and ``theta`` are the position and velocity correction gains,
    one per observed agent in the order given and sorted along with it; each
    vector must be nonnegative and finite with at least one strictly positive
    entry.  The alarm threshold must be positive and finite.
    """

    observed: tuple
    psi: tuple
    theta: tuple
    alarm_threshold: float = 1e-6
    alarm_window: int = 5

    def __post_init__(self):
        psi = tuple(float(v) for v in self.psi)
        theta = tuple(float(v) for v in self.theta)
        if len(psi) != len(self.observed) or len(theta) != len(self.observed):
            raise ValueError("need one psi and one theta per observed agent")
        if not all(0.0 <= v < np.inf for v in psi + theta):
            raise ValueError("gains must be nonnegative and finite")
        if not any(v > 0.0 for v in psi) or not any(v > 0.0 for v in theta):
            raise ValueError("at least one psi and one theta must be positive")
        if not 0.0 < self.alarm_threshold < np.inf:
            raise ValueError("alarm threshold must be positive and finite")
        if not (_is_id(self.alarm_window) and self.alarm_window >= 1):
            raise ValueError("alarm window must be a positive integer")
        obs, psi, theta = zip(*sorted(zip(self.observed, psi, theta)))
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class ObserverRun:
    """Estimation error e = zhat - z per sample of the plant trace, (samples,
    2n), and the residuals, its columns on the observed positions."""

    error: np.ndarray
    residuals: np.ndarray


def gain_matrices(cfg: ObserverConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal gain matrices with entries on the observed channels."""
    idx = np.array(agent_set(cfg.observed, n, "observed")) - 1
    Phi, Theta = np.zeros((2, n, n))
    Phi[idx, idx], Theta[idx, idx] = cfg.psi, cfg.theta
    return Phi, Theta


def assemble_observer_A(L: np.ndarray, Phi: np.ndarray, Theta: np.ndarray) -> np.ndarray:
    """Error-dynamics matrix [[0, I], [-L - Phi, -Theta]]."""
    A = assemble_A(np.add(L, Phi))
    n = len(A) // 2
    A[n:, n:] = -np.asarray(Theta)
    return A


@np.errstate(over="ignore", invalid="ignore")
def run_observer(
    tr: Trace,
    cfg: ObserverConfig,
    xhat0: np.ndarray | None = None,
    vhat0: np.ndarray | None = None,
) -> ObserverRun:
    """Integrate the observer along the plant trace.

    Per dwell segment, the estimation error e = zhat - z and the segment's
    exogenous mode are propagated jointly and exactly by the drift J of its
    topology (e alone, by their error blocks, where the mode is zero), so
    the correction terms see the continuous plant output.  Per block
    of segments whose new propagators hold at most EXPM_BLOCK_VALUES values,
    a first pass exponentiates each drift's distinct partial (first and
    last) steps, and once per run its steady step ``dt``, in one stack.  A
    second pass chains the segment end errors, one precombined propagator
    or one pair of steps per segment, then fills the samples between, ``dt``
    apart, per drift in one batch by doubling with the powers P, P^2, P^4,
    ... of the steady propagator, which alone outlive the block.  Working in
    e keeps the small estimation error away from the rounding floor of the
    O(1) plant state; the run returns e, and the residual is e on the
    observed positions.  The observer starts from the supplied (possibly
    falsified) initial state, defaulting to the trace's own initial sample.
    Raises SimulationError naming the first sample whose estimation error is
    not finite.
    """
    n = tr.n
    if sum(len(seg.steps) for seg in tr.segments) != len(tr.times) - 1:
        raise ValueError("trace segments do not step through every sample")
    Phi, Theta = gain_matrices(cfg, n)

    if xhat0 is None:
        xhat0 = tr.states[0, :n]
    if vhat0 is None:
        vhat0 = tr.states[0, n:]
    zhat = np.concatenate([np.asarray(xhat0, float), np.asarray(vhat0, float)])

    Eta, G = (np.zeros((0, 0)), np.zeros((2 * n, 0))) if tr.Eta is None else (tr.Eta, tr.G)  # None: no attack
    times, dt, m = tr.times, tr.dt, len(Eta)
    # one row per sample: the run's attack mode (zero while it is dormant), then e
    work = np.zeros((len(times), m + 2 * n))
    err, d = work[:, m:], work.shape[1]
    err[0] = zhat - tr.states[0]

    # o = m for a segment whose mode is zero: it propagates e alone, columns m on
    segs = [(seg, seg.steps.tolist(), seg.topology, 0 if any(seg.mode0.tolist()) else m)
            for seg in tr.segments if len(seg.steps)]
    count = np.array([len(steps) for _, steps, *_ in segs], dtype=int)
    first = np.cumsum(np.r_[1, count[:-1]])  # the row of each segment's first sample
    # per topology: the joint (mode, error) drift J = [[Eta, 0], [-G, A_obs]]
    # (the mode enters the plant as G m), its 1-norm, and the powers P, P^2,
    # P^4, ... of its steady propagator
    drifts = {}
    for t in dict.fromkeys(t for _, _, t, _ in segs):
        J = np.block([[Eta, np.zeros((m, 2 * n))], [-G, assemble_observer_A(t.L, Phi, Theta)]])
        drifts[t] = J, float(np.abs(J).sum(axis=0).max()), []
    size = max(1, EXPM_BLOCK_VALUES // (3 * d * d))  # 2 partial steps and P per segment
    for b in range(0, len(segs), size):
        block = segs[b : b + size]
        # first pass.  A segment whose two partial-step propagators would hold
        # more values than its d-wide rows takes the Taylor action where that
        # costs at most one d x d product.  P waits for a whole dt step: a run
        # of one-step segments never needs it, and exp(J 1e308) overflows
        plans, tables = {}, {}  # per drift: each step's Taylor plan (None: stacked)
        for seg, steps, key, _ in block:
            J, norm, pw = drifts[key]
            budget = d if 2 * d > len(steps) else 0
            new = plans.setdefault(key, {})
            for tau in (steps[0], steps[-1]):
                if tau != dt:
                    new[tau] = taylor_plan(norm * tau, budget)
            if not pw and (len(steps) > 2 or dt in (steps[0], steps[-1])):
                new[dt] = None
        for key, new in plans.items():
            J, norm, pw = drifts[key]
            taus = [tau for tau, plan in new.items() if plan is None]
            E = expm(J * np.array(taus)[:, None, None]) if taus else np.empty((0, d, d))
            if not np.isfinite(E[:, m:, m:]).all():  # the squarings carried a mode overflow into e
                E[:, m:, m:] = expm(J[m:, m:] * np.array(taus)[:, None, None])
            if dt in taus:
                pw.append(E[taus.index(dt)])
            elif pw:
                taus, E = taus + [dt], np.concatenate([E, pw[:1]])
            tables[key] = dict(zip(taus, range(len(taus)))), E

        def step(key, o, tau, v):
            index, E = tables[key]
            J, plan = drifts[key][0][o:, o:], plans[key].get(tau)
            return E[index[tau], o:, o:] @ v if tau in index else expm_action(J, v, tau, *plan)

        # second pass (i): one chain of segment end errors y = (e, 1).  A
        # segment of c >= 2 samples whose partial steps are both stacked ends
        # at T y, T the error rows of E(last) P^(c-2) E(first) with its start
        # mode folded in; one stacked product per drift forms them.  Any
        # other segment applies its steps, and P^(c-2) by the powers, to y
        stacked, links = {}, [None] * len(block)
        for i, (_, steps, key, o) in enumerate(block):
            if len(steps) > 1 and steps[0] in tables[key][0] and steps[-1] in tables[key][0]:
                stacked.setdefault((key, o), []).append(i)
        for (key, o), pos in stacked.items():
            (J, norm, pw), (index, E) = drifts[key], tables[key]
            steps, F = [block[i][1] for i in pos], E[[index[block[i][1][0]] for i in pos], o:]
            modes = np.array([block[i][0].mode0[: m - o] for i in pos]).reshape(len(pos), m - o, 1)
            stacked[key, o] = pos, np.concatenate([F[:, :, m:], F[:, :, : m - o] @ modes], axis=2)  # y -> first sample
            powers = {c: _times_power(pw, c - 2, np.eye(d - o), m, o) for c in set(map(len, steps))}
            T = np.zeros((len(pos), 2 * n + 1, 2 * n + 1))
            T[:, :-1], T[:, -1, -1] = (E[[index[s[-1]] for s in steps], o:, o:] @ np.array(
                [powers[len(s)] for s in steps]) @ stacked[key, o][1])[:, m - o :], 1.0
            for i, t in zip(pos, T):
                links[i] = t
        ys = [np.append(err[first[b] - 1], 1.0)]
        for (seg, steps, key, o), t, k in zip(block, links, first[b : b + size].tolist()):
            if t is None:
                x = work[k, o:] = step(key, o, steps[0], np.concatenate([seg.mode0, ys[-1][:-1]])[o:])
                if len(steps) > 1:
                    x = step(key, o, steps[-1], _times_power(drifts[key][2], len(steps) - 2, x, m, o))
                ys.append(np.append(x[m - o :], 1.0))
            else:
                ys.append(np.dot(t, ys[-1]))
        ys = np.array(ys)
        for (key, o), (pos, F) in stacked.items():  # each stacked segment's first sample
            work[first[b + np.array(pos)], o:] = (F @ ys[pos, :, None])[..., 0]
        err[first[b : b + size] + count[b : b + size] - 1] = ys[1:, :-1]

    # second pass (ii): the samples inside segments.  Row r of a segment,
    # 2^j <= r < 2^(j+1), is P^(2^j) times its row r - 2^j: per power and
    # drift and mode offset, one product fills those rows of every segment.
    # The chain has formed every power a segment needs
    ids = {key: i for i, key in enumerate(dict.fromkeys((key, o) for _, _, key, o in segs))}
    group = np.array([ids[key, o] for _, _, key, o in segs])
    fill = np.argsort(group, kind="stable")
    fill = fill[count[fill] > 2]
    k, c = first[fill], count[fill] - 1  # c - 1 rows follow each first sample
    p = 1 << np.arange(int(c.max(initial=1) - 1).bit_length())[:, None]
    rows = np.clip(c - p, 0, p)  # per power and segment, segments in group order
    dst = np.repeat((k + p).ravel() - np.cumsum(rows) + rows.ravel(), rows.ravel()) + np.arange(rows.sum())
    cuts = np.searchsorted(group[fill], range(len(ids) + 1)) + len(k) * np.arange(len(p))[:, None]
    for j, cut in enumerate(np.r_[0, np.cumsum(rows)][cuts].tolist()):
        for (key, o), lo, hi in zip(ids, cut, cut[1:]):
            if lo < hi:
                work[dst[lo:hi], o:] = work.take(dst[lo:hi] - p[j], axis=0)[:, o:] @ drifts[key][2][j][o:, o:].T

    if not np.isfinite(work).all():  # a value of e or of a mode is not finite
        finite = np.isfinite(err).all(axis=1)
        if not finite.all():
            raise SimulationError(f"observer overflow at t={times[np.argmin(finite)]:.6g}")
    return ObserverRun(error=err, residuals=err[:, [i - 1 for i in cfg.observed]])


def _times_power(pw: list, k: int, X: np.ndarray, m: int, o: int) -> np.ndarray:
    """P^k X on the rows and columns from o, from the powers pw = [P, P^2, ...]
    of P = [[M, 0], [K, E]] (M m x m), squaring the last where k needs more;
    a square whose E block an overflowing M or K reached takes E^2 alone."""
    for j in range(k.bit_length()):
        if j == len(pw):
            pw.append(pw[-1] @ pw[-1])
            if not np.isfinite(pw[-1][m:, m:]).all():
                pw[-1][m:, m:] = pw[-2][m:, m:] @ pw[-2][m:, m:]
        if k >> j & 1:
            X = pw[j][o:, o:] @ X
    return X


def detect(times: np.ndarray, residuals: np.ndarray, cfg: ObserverConfig) -> float | None:
    """Earliest alarm time: the end of the first run of ``alarm_window``
    consecutive samples whose residual infinity-norm exceeds the threshold.
    None when no such run exists."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    if residuals.shape[0] == 0:
        raise ValueError("residual trace is empty")
    # c[k] counts the samples over threshold before sample k
    c = np.concatenate([[0], np.cumsum(np.max(np.abs(residuals), axis=1) > cfg.alarm_threshold)])
    w = cfg.alarm_window
    full = np.flatnonzero(c[w:] - c[:-w] == w)
    return float(times[full[0] + w - 1]) if len(full) else None
