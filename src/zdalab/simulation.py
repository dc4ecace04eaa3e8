"""Exact piecewise-LTI propagation of the switched double-integrator network.

The stacked state is z = [x_1..x_n, v_1..v_n].  Position coupling enters the
velocity rows through the active Laplacian L = Q diag(lam) Q^T, whose modes
are undamped oscillators; an exponential attack input adds a particular
solution.  One pass carries each dwell interval's start sample to its end
sample; each drift then evaluates the samples inside its intervals in closed
form from their start samples, with no discretization error and no stepping.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Topology, agent_set
from .scheduling import SwitchingSchedule

__all__ = [
    "SimulationError",
    "Segment",
    "Trace",
    "assemble_A",
    "assemble_C",
    "attack_injection",
    "check_sample_count",
    "expm",
    "expm_action",
    "schedule_transition",
    "simulate",
    "consensus_error",
    "taylor_plan",
    "trace_to_csv",
]

_TIME_EPS = 1e-9
# most state values (2n per sample) one run may hold, checked before allocating
MAX_STATE_VALUES = 80_000_000
# a drift resonates when |eta^2 + lam_i| <= RES_TOL * max(1, |eta|^2, lam_i)
# for some mode i, where its modal particular solution fails
RES_TOL = 1e-6
# values per block of rows the plant fill evaluates, or the CSV writer
# formats, at once
ROW_BLOCK_VALUES = 4096
_CSV_EXPONENTS = (-280, 280)  # decimal exponents the CSV writer formats in bulk
_W = np.array([1.0, -1j])  # real mode m -> its complex value m @ _W
# most matrix entries a stacked exponential of many intervals takes at once
EXPM_BLOCK_VALUES = 1 << 18
# Pade degree m -> (theta_m, numerator coefficients b_0..b_m): below theta_m
# the degree-m approximant is exact to unit roundoff (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005; Al-Mohy & Higham 2009, Table 3.1)
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
         110880.0, 3960.0, 90.0, 1.0)),
    13: (4.25,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}
# degree m -> 1 / |c_{2m+1}|, the leading term of its backward-error series
_ELL_C = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
          9: 5914384781877411840000.0, 13: 113250775606021113483283660800000000.0}
# Taylor degree m -> theta_m: for ||A||_1 <= theta_m the degree-m truncated
# series of exp(A) v meets unit roundoff (Al-Mohy & Higham, SIAM J. Sci.
# Comput. 33(2), 2011, Table 3.1; m <= 30 from Higham, Functions of
# Matrices, Table A.3)
_TAYLOR_THETA = dict(zip([*range(1, 31), 35, 40, 45, 50, 55], (
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2,
    1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26,
    1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
)))


class SimulationError(RuntimeError):
    """Numeric failure during propagation: an observer's estimation error
    that overflows.  A plant that overflows is a trace's ``blowup_time``."""


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix of a stack
    (k, d, d): scaling and squaring of a diagonal Pade approximant (Al-Mohy
    & Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009).  One degree and one
    scaling serve the whole stack, chosen by the exact 1-norms of A^4, A^6,
    A^8 and A^10 of its largest member; A^8 and A^10 are formed only when the
    choice still depends on them.  A stack whose powers overflow gives NaN."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return np.zeros_like(A)
    shape, d = A.shape, A.shape[-1]
    A = A.reshape(-1, d, d)
    P = np.empty((5,) + A.shape)  # I, A^2, A^4, A^6, A^8
    P[0] = np.eye(d)
    np.matmul(A, A, out=P[1])
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[2], P[1], out=P[3])
    d4, d6 = _root_norms(P[2:4], (4, 6))
    # max(d4, d6) also bounds max(d6, d8), since ||A^8|| <= ||A^4||^2
    m = next((m for m in (3, 5, 7) if max(d4, d6) <= _PADE[m][0] and _ell(A, m) == 0), 13)
    if m == 13:
        np.matmul(P[2], P[2], out=P[4])
        (d8,) = _root_norms(P[4:], (8,))
        m = next((m for m in (7, 9) if max(d6, d8) <= _PADE[m][0] and _ell(A, m) == 0), 13)
    s = 0
    if m == 13:
        (d10,) = _root_norms((P[2] @ P[3])[None], (10,))
        eta = min(max(d6, d8), max(d8, d10))
        s = max(0, math.ceil(math.log2(eta / _PADE[13][0]))) if 0.0 < eta < math.inf else math.inf if eta else 0
        s += _ell(A * 2.0**-s, 13)
    if s == math.inf:  # the powers overflowed: no scaling is known
        return np.full(shape, np.nan)
    return _pade(A, P, m, s).reshape(shape)


def schedule_transition(sched: SwitchingSchedule, A_of: dict, t: float) -> np.ndarray:
    """State-transition matrix of dz/dt = A_of[topology] z from 0 to t <= horizon
    under the schedule: one whole cycle's transition raised to the number of
    whole cycles before t by binary powering, then the intervals of
    ``sched.intervals()`` starting in the incomplete last cycle, all from one
    stacked exponential of the dwells before t (a zero matrix at t = 0)."""
    cycles, rest = divmod(t, sched.period)
    whole = [(r, sched.dwell[r]) for r in sched.order] if cycles else []
    spans = [(r, min(sched.dwell[r], rest - a))
             for a, _, r in itertools.takewhile(lambda iv: iv[0] < rest, sched.intervals())]
    exps = expm(np.array([A_of[r] * d for r, d in whole + spans] or [A_of[sched.order[0]] * 0.0]))
    cycle = functools.reduce(lambda P, E: E @ P, exps[: len(whole)], np.eye(exps.shape[-1]))
    return functools.reduce(lambda P, E: E @ P, exps[len(whole) :], np.linalg.matrix_power(cycle, int(cycles)))


def taylor_plan(norm: float, budget: int) -> tuple[int, int] | None:
    """Degree m and step count s minimizing m*s for exp(tA) v with
    ||tA||_1 = ``norm``, or None when that takes more than ``budget``
    matrix-vector products.  A norm above the budget, or not finite, is
    refused at once: every plan costs m*s >= m*norm/theta_m > norm."""
    if not norm <= budget:
        return None
    cost, plan = budget + 1, None
    for m, theta in _TAYLOR_THETA.items():
        if m >= cost:  # every step count costs at least m
            break
        s = max(math.ceil(norm / theta), 1)
        if m * s < cost:
            cost, plan = m * s, (m, s)
    return plan


def expm_action(A: np.ndarray, v: np.ndarray, t: float, m: int, s: int) -> np.ndarray:
    """exp(tA) v by s steps of the degree-m truncated Taylor series of
    exp(tA/s), each stopped once two consecutive terms fall below unit
    roundoff relative to the sum (Al-Mohy & Higham 2011, Algorithm 3.2
    without its trace shift)."""
    for _ in range(s):
        b, c1 = v, np.abs(v).max()
        for k in range(1, m + 1):
            b = (A @ b) * (t / (s * k))
            c2 = np.abs(b).max()
            v = v + b
            if c1 + c2 <= 2.0**-53 * np.abs(v).max():
                break
            c1 = c2
    return v


def _root_norms(powers: np.ndarray, degrees) -> list:
    """||A^k||_1^(1/k) over a stack, for each power A^k and its degree k."""
    norms = np.abs(powers).sum(axis=2).max(axis=(1, 2)).tolist()
    return [v ** (1.0 / k) for v, k in zip(norms, degrees)]


def _ell(A: np.ndarray, m: int) -> int:
    """Extra squarings the degree-m approximant needs on the stack A, from
    ||abs(A)^(2m+1)||_1 (Al-Mohy & Higham 2009, eq. (3.13)), taken as
    1^T abs(A) (abs(A)^2)^m.  The bound ||A||_1 ||abs(A)^2||_1^m on that
    norm settles a zero without the powers; a norm that overflows gives inf."""
    absA = np.abs(A)
    v = absA.sum(axis=1, keepdims=True)
    sq = absA @ absA
    norm = v.max(axis=(1, 2))
    top, top2 = float(norm.max()), float(sq.sum(axis=1).max())
    if top2 == 0.0 or math.log2(top) + m * math.log2(top2) + 53 <= math.log2(_ELL_C[m]):
        return 0
    for _ in range(m):
        v = v @ sq
    live = norm > 0.0
    alpha = float((v.max(axis=(1, 2))[live] / norm[live]).max()) / _ELL_C[m]
    return max(0, math.ceil((math.log2(alpha) + 53) / (2 * m))) if 0.0 < alpha < math.inf else math.inf if alpha else 0


def _pade(A: np.ndarray, P: np.ndarray, m: int, s: int) -> np.ndarray:
    """r_m(A / 2^s)^(2^s) for the stack A with even powers P = I, A^2, ..."""
    b = _PADE[m][1]
    if s:
        A = A * 2.0**-s
        P[1:4] *= 2.0 ** (-2.0 * s * np.arange(1, 4)).reshape(3, 1, 1, 1)
    # rows: odd and even coefficients, then for m = 13 the ones that A^6 multiplies
    k = 4 if m == 13 else (m + 1) // 2
    rows = [b[1 : 2 * k : 2], b[0 : 2 * k : 2]]
    if m == 13:
        rows += [(0.0,) + b[9::2], (0.0,) + b[8:13:2]]
    W = (np.array(rows) @ P[:k].reshape(k, -1)).reshape((len(rows),) + A.shape)
    if m == 13:
        W[0] += P[3] @ W[2]
        W[1] += P[3] @ W[3]
    U = A @ W[0]
    X = np.linalg.solve(W[1] - U, W[1] + U)
    for _ in range(s):
        X = X @ X
    return X


def assemble_A(L: np.ndarray) -> np.ndarray:
    """Drift matrix [[0, I], [-L, 0]] of the position-coupled network."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    A = np.eye(2 * n, k=n)
    A[n:, :n] = -L
    return A


def assemble_C(M, n: int) -> np.ndarray:
    """Output matrix selecting the positions of the observed agents (1-based,
    ascending)."""
    return np.eye(2 * n)[[i - 1 for i in agent_set(M, n, "observed")]]


def attack_injection(K, n: int) -> np.ndarray:
    """Injection matrix routing attack channels into the velocity rows of the
    misbehaving agents (1-based, ascending)."""
    return np.eye(2 * n)[:, [n + i - 1 for i in agent_set(K, n, "attacked")]]


@dataclass(frozen=True)
class Segment:
    """One stretch of a simulation under ``topology``, from the sample before
    its first.  The attack's mode is ``mode0`` there, zero while the attack is
    dormant.  ``steps`` holds the step reaching each of the segment's samples;
    every step between lattice points is exactly the trace's dt."""

    topology: Topology
    mode0: np.ndarray
    steps: np.ndarray


@dataclass(frozen=True)
class Trace:
    """Time-indexed record of one simulation run.

    ``states`` holds the plant state per sample; ``attack_values`` the injected
    signal per channel (zero while the attack is dormant).  ``segments``
    carries the exact per-interval topologies, modes and steps, one step per
    sample after the first, and the attack's real exponential mode m obeys
    dm/dt = Eta m and enters the plant as dz/dt = A z + G m (both empty
    without an attack; None reads as none), so the observer integrates
    against the continuous-time plant under the schedule it ran.
    ``dt`` is the lattice spacing of the samples.  ``blowup_time`` is the
    time of the first sample whose state is not finite, where the run
    stopped short of the horizon, or None when it reached the horizon.
    """

    times: np.ndarray
    states: np.ndarray
    attack_values: np.ndarray
    topology_ids: np.ndarray
    attacked: tuple
    segments: tuple = field(repr=False, default=())
    dt: float | None = None
    blowup_time: float | None = None
    Eta: np.ndarray | None = field(repr=False, default=None)
    G: np.ndarray | None = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2


def _attack_mode(attack, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Drift Eta and gain G of the attack's real exponential mode m, empty
    for no attack.  m is e^{eta s} for a real rate and (Re, -Im) of it for a
    complex one, so m @ _W is e^{eta s} and G m is Re(B g0 e^{eta s})."""
    if attack is None:
        return np.zeros((0, 0)), np.zeros((2 * n, 0))
    eta = complex(attack.eta)
    g0 = np.asarray(attack.g0)
    if abs(eta.imag) < 1e-300:
        Eta, gain = np.array([[eta.real]]), g0.real.reshape(-1, 1)
    else:
        a, b = eta.real, eta.imag
        Eta, gain = np.array([[a, b], [-b, a]]), np.column_stack([g0.real, g0.imag])
    return Eta, attack_injection(attack.attacked, n) @ gain


def _propagator(t: Topology, Eta: np.ndarray, G: np.ndarray):
    """Exact propagation of dz/dt = [[0, I], [-L, 0]] z + G m, dm/dt = Eta m
    from spans' start states Z0 (s, 2n) and mode values M0 (s, d), as
    ``(fill, ends)``: ``fill(Z0, M0)(j, tau)`` is the state at each offset
    tau[r] into span j[r]; ``ends(M0, tau)`` is ``(step, g)``, and a span i
    lasting tau[i] ends at step(z0, i) + g[i] from its start z0.

    With L = t.L = Q diag(lam) Q^T and omega = sqrt(lam), the modes xi = Q^T x,
    nu = Q^T v move freely as xi0 cos(omega t) + nu0 sin(omega t) / omega,
    and the mode value mu0 e^{eta t} adds Re(c mu0 e^{eta t}), where
    c_i = (Q^T B g0)_i / (eta^2 + lam_i).  A resonant drift (RES_TOL) has no
    such c: the mode's response is read from expm(A_aug t) instead.  A zero
    mode value adds nothing, however far its exponential would overflow."""
    L, lam, Q = t.L, t.spectrum.eigenvalues, t.spectrum.eigenvectors
    n, d = L.shape[0], Eta.shape[0]
    w = _W[:d]
    eta = Eta[:, 0] @ w if d else 0.0
    den = eta**2 + lam
    omega = np.sqrt(np.maximum(lam, 0.0))
    still = omega == 0.0  # sin(omega t) / omega -> t
    inv, swap = 1.0 / np.where(still, 1.0, omega), np.stack([np.ones(n), -lam])
    resonant = d and np.any(np.abs(den) <= RES_TOL * np.maximum(1.0, np.maximum(abs(eta) ** 2, lam)))
    if resonant:
        # the drift augmented with the mode (Van Loan, IEEE TAC 1978)
        A_aug = np.block([[assemble_A(L), G], [np.zeros((d, 2 * n)), Eta]])
        size = max(1, EXPM_BLOCK_VALUES // A_aug.size)

        def forced(M, tau):  # the plant rows of expm(A_aug t) (0, m), in modal coordinates
            R = np.concatenate([expm(A_aug * tau[k : k + size, None, None])[:, : 2 * n, 2 * n :]
                                for k in range(0, len(tau), size)])
            F = np.where(M.any(axis=1)[:, None], (R @ M[..., None])[..., 0], 0.0)
            return (F.reshape(-1, n) @ Q).reshape(-1, 2, n)
    else:
        c = Q.T @ (G[n:] @ w.conj()) / den if d else np.zeros(n)
        cp = np.stack([c, c * eta]).ravel()  # particular (xi, nu) per unit mode value,
        cp = np.stack([cp.real, -cp.imag])  # applied to the value's (Re, Im)

        def forced(M, tau):  # modal particular solution of each mode value
            mu = M @ w
            return (np.where(mu == 0, 0, mu * np.exp(eta * tau)).view(float).reshape(-1, 2) @ cp).reshape(-1, 2, n)

    def rotation(tau):  # per offset, (xi, nu) turns into X * C + X[..., ::-1, :] * S
        wt = tau[:, None] * omega
        sin = np.sin(wt) * inv
        sin[:, still] = tau[:, None]
        return np.cos(wt)[:, None], sin[:, None] * swap

    def fill(Z0, M0):
        X0 = (Z0.reshape(-1, n) @ Q).reshape(-1, 2, n) - (0.0 if resonant else forced(M0, 0.0))

        def sample(j, tau):
            (C, S), X = rotation(tau), X0[j]
            Y = X * C + X[:, ::-1] * S + (forced(M0[j], tau) if d else 0.0)
            return (Y.reshape(-1, n) @ Q.T).reshape(len(tau), 2 * n)

        return sample

    def ends(M0, tau):  # the free end state turns in modal coordinates
        C, S = rotation(tau)
        g = fill(np.zeros((len(tau), 2 * n)), M0)(np.arange(len(tau)), tau)
        return (lambda z, i: (((x := z.reshape(2, n) @ Q) * C[i] + x[::-1] * S[i]) @ Q.T).ravel()), g

    return fill, ends


def check_sample_count(span: float, dt: float, n: int) -> None:
    """Raise ValueError unless dt is positive and sampling ``span`` every ``dt``
    stores at most MAX_STATE_VALUES values, the 2n states of n agents a sample."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if span / dt * (2 * n) > MAX_STATE_VALUES:
        raise ValueError(f"{span / dt:.3g} samples of {2 * n} values exceed the cap of {MAX_STATE_VALUES}")


def simulate(sched: SwitchingSchedule, z0: np.ndarray, attack=None, dt: float = 0.01) -> Trace:
    """Run the switched network over the schedule horizon.

    The attack (if any) is dormant before its start time and injects
    g0 * e^{eta (t - rho)} into the misbehaving agents' velocity rows
    afterwards; the start instant is inserted as a sample so activation is
    sharp.  The samples are the points k*dt more than _TIME_EPS from every
    span bound, then the bounds.  One pass takes each span's end sample from
    its start sample; each topology's drift, with the attack's mode held at
    zero while it is dormant, then fills the samples inside its spans in
    blocks of about ROW_BLOCK_VALUES values.  A state that overflows ends
    the trace before its first non-finite sample, at ``blowup_time``.
    """
    z0 = np.array(z0, dtype=float)
    n = z0.shape[0] // 2
    attacked = attack.attacked if attack is not None else ()
    rho = attack.rho if attack is not None else math.inf
    check_sample_count(sched.horizon, dt, n)

    # the schedule's intervals, the one holding the attack start cut there; a span
    # within _TIME_EPS holds no sample, and its time joins the next (at the end, the last) span
    spans = []
    for a, b, t in sched.intervals():
        cuts = (a, rho, b) if a < rho < b else (a, b)
        spans += [(s, e, t) for s, e in zip(cuts, cuts[1:]) if e - s > _TIME_EPS]
    a, b = np.array([s[:2] for s in spans]).reshape(-1, 2).T
    a[1:], a[:1], b[-1:] = b[:-1], 0.0, sched.horizon  # the kept spans tile [0, horizon]
    tops, active = [s[2] for s in spans], a >= rho - _TIME_EPS
    # the lattice points inside each span, then a row for the span's end
    lattice = np.arange(1, math.ceil(b[-1] / dt) + 1 if spans else 1) * dt
    span = np.minimum(np.searchsorted(b, lattice), len(spans) - 1)
    inside = (lattice - a[span] > _TIME_EPS) & (b[span] - lattice > _TIME_EPS)
    lattice, span = lattice[inside], span[inside]
    last = np.cumsum(np.bincount(span, minlength=len(spans)) + 1)  # the row of each span's end
    start, total = np.r_[0, last][:-1], 1 + len(span) + len(spans)  # ... and of its start
    rows = 1 + np.arange(len(span)) + span  # the row of each lattice point
    times, steps = np.zeros(total), np.full(total, dt)
    times[rows], times[last] = lattice, b
    steps[last] = b - times[last - 1]
    steps[start + 1] = times[start + 1] - a
    # sample 0 carries the topology active just after t = 0, every later one that of the segment it closes
    topology_ids = np.repeat([t.id for t in [(tops or sched.order)[0], *tops]], np.r_[1, last - start])

    Eta, G = _attack_mode(attack, n)
    modes = np.zeros((len(spans), 2))  # each span's mode: (Re, -Im) of e^{eta (t0 - rho)}, 0 while dormant
    # per topology: its spans and fill
    index = {t: k for k, t in enumerate(dict.fromkeys(tops))}
    kind = np.array([index[t] for t in tops], dtype=int)
    states, plan, drifts = np.empty((total, 2 * n)), [None] * len(spans), []
    states[0] = state = z0
    with np.errstate(over="ignore", invalid="ignore"):
        if attack is not None:
            modes[active] = np.exp(complex(attack.eta) * (a[active] - rho)).view(float).reshape(-1, 2) * [1, -1]
        modes = modes[:, : len(Eta)]
        for D, t in enumerate(index):
            js = np.flatnonzero(kind == D)
            fill, ends = _propagator(t, Eta, G)
            step, g = ends(modes[js], b[js] - a[js])
            for i, k in enumerate(js.tolist()):
                plan[k] = step, i, g[i]
            drifts.append((js, fill))
        for r, (step, i, g) in zip(last.tolist(), plan):
            state = states[r] = step(state, i) + g
        # the samples inside spans, past an overflow too: the cut below drops them
        size = max(1, ROW_BLOCK_VALUES // (2 * n))
        for D, (js, fill) in enumerate(drifts):
            mine = kind[span] == D
            j, tau = np.searchsorted(js, span[mine]), lattice[mine] - a[span[mine]]
            sample, at = fill(states[start[js]], modes[js]), rows[mine]
            for k in range(0, len(at), size):
                states[at[k : k + size]] = sample(j[k : k + size], tau[k : k + size])
    # the trace ends before its first sample that is not finite
    finite = np.isfinite(states[1:]).all(axis=1)
    cut = total if finite.all() else 1 + int(np.argmin(finite))
    segments = tuple(Segment(t, modes[k], steps[start[k] + 1 : min(last[k], cut - 1) + 1])
                     for k, t in enumerate(tops[: np.searchsorted(last, cut) + 1]))
    blowup = float(times[cut]) if cut < total else None
    times, states, topology_ids = times[:cut], states[:cut], topology_ids[:cut]

    vals = np.zeros((len(times), len(attacked)))
    if attack is not None and attacked:
        post = times >= rho - _TIME_EPS
        e = np.exp(complex(attack.eta) * (times[post] - rho))
        vals[post] = np.real(np.outer(e, np.asarray(attack.g0)))
    return Trace(
        times=times,
        states=states,
        attack_values=vals,
        topology_ids=topology_ids,
        attacked=attacked,
        segments=segments,
        dt=dt,
        blowup_time=blowup,
        Eta=Eta,
        G=G,
    )


def consensus_error(tr: Trace) -> dict:
    """Per-sample maximum pairwise position and velocity disagreement."""
    if len(tr.times) == 0:
        raise ValueError("trace is empty")
    pos, vel = np.ptp(tr.states.reshape(len(tr.times), 2, tr.n), axis=2).T
    return {"pos_disagreement": pos, "vel_disagreement": vel}


@functools.cache
def _csv_tables():
    """_format_slots' tables, built on first use.  A value of binary exponent e
    takes row 2e + (|v| >= th[e]), th[e] the least double >= 10^(k+1) for k =
    floor(log10 2^(e-1023)), so a row has one decimal exponent X: it holds
    10^(16-X) = hi + lo (lo NaN out of range), hi's 26-bit halves, the digits
    before the point, the bytes of digits 1..q, the point, prefix and exponent."""
    k0, k1 = _CSV_EXPONENTS
    nd = [(10**j, 1) if j >= 0 else (1, 10**-j) for j in range(k0, 17 - k0)]  # 10^j = n / d = hi + lo, at j - k0
    hi, lo = np.array([(a / b, (n * b - a * d) / (d * b)) for n, d in nd for a, b in [(n / d).as_integer_ratio()]]).T
    klo = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.int64)
    th = np.where(lo > 0, np.nextafter(hi, np.inf), hi)[np.clip(klo + 1, k0, k1 + 1) - k0]
    th[0] = 5e-324  # zero takes row 0, a subnormal row 1
    r, x = np.arange(4096), np.repeat(klo, 2) + np.arange(4096) % 2
    bad = (x < k0) | (x > k1) | (r // 2 % 2047 == 0)  # or e = 0 or 2047
    x[bad] = 0
    fixed, ax = (x >= -4) & (x <= 16), np.abs(x)
    q = np.where(fixed, np.where((x < 0) | (x == 16), 16, x), 0)
    h = np.where(bad, 0.0, hi[16 - x - k0])
    hs = h * 134217729.0 - (h * 134217729.0 - h)  # Veltkamp's split
    masks = np.left_shift(1, np.maximum(8 * np.arange(17) - [[0], [64]], 0)) - 1  # masks[:, t] keeps digits 1..t
    exp = np.where(ax < 100, 0x3030 | ax // 10 | ax % 10 << 8, 0x303030 | ax // 100 | ax // 10 % 10 << 8 | ax % 10 << 16)
    ints = np.array([np.where(fixed & (x >= 0), x, 0), *masks[:, q], *np.left_shift(ord("."), 8 * q - [[0], [64]]),
                     np.where(fixed & (x < 0), 0x2E3000 | 0x303030 >> 8 * (4 + x) << 24, 0),  # "0." "000"
                     np.where(fixed, 0, 0x6500 | (0x2B + 2 * (x < 0)) << 16 | exp << 24)])  # "e" sign digits
    flt, g = np.array([h, np.where(bad & (r > 0), np.nan, lo[16 - x - k0]), hs, h - hs]), np.arange(10**4)
    return th, flt, ints, masks, g // 1000 | g // 100 % 10 << 8 | g // 10 % 10 << 16 | g % 10 << 24


def _format_slots(x: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """format(v, ".17g") of each v in x in four little-endian words, padded
    with zero bytes: [sign, "0.000", first digit], the other digits with the
    point shifted in, [a digit shifted out, exponent, separator from sep,
    repeating along x]; and the mask of the right slots: values in range, not near ties."""
    th, flt, ints, masks, digits = _csv_tables()
    a = np.abs(x)
    e = a.view(np.int64) >> 52
    r = 2 * e + (a >= th[e])
    (hi, lo, hs, hl), (f, *row) = np.take(flt, r, axis=1), np.take(ints, r, axis=1)
    with np.errstate(invalid="ignore"):  # the values deferred may be inf or NaN
        # |x| 10^(16-X) = p + c: Dekker's exact product of hi with 27- and 26-bit halves of |x|
        p, ah = a * hi, (a.view(np.int64) & -(2**26)).view(np.float64)
        c = (ah * hs - p + ah * hl + (a - ah) * hs + (a - ah) * hl) + a * lo
        ok = np.abs(c - np.rint(c)) < 0.5 - 2.0**-30
        D = p.astype(np.int64) + np.rint(c).astype(np.int64)
    # D = 10^16 d0 + 10^8 u[0] + u[1]; each u gets its 8 digits, one a byte, the first lowest
    q = D // 10**8
    d0 = q // 10**8
    u = np.stack([q - d0 * 10**8, D - q * 10**8])
    del a, e, r, hi, lo, hs, hl, p, ah, c, D, q  # keep a block's temporaries few
    hi4 = u // 10**4
    u = np.take(digits, hi4, mode="clip") | np.take(digits, u - hi4 * 10**4, mode="clip") << 32
    # the last digit printed: past the trailing zeros (from each word's top nonzero byte) and f
    top = np.maximum(((u.astype(np.float64).view(np.int64) + [[-1015 << 52], [-951 << 52]]) >> 55).max(axis=0), f)
    M = np.take(masks, top, axis=1, mode="clip")
    u = np.bitwise_and(u | 0x3030303030303030, M, out=u)
    A = u & row[0:2]
    B = np.bitwise_xor(u, A, out=u)  # the digits after the point, one byte up
    return np.stack([np.signbit(x) * ord("-") | row[4] | (d0 | ord("0")) << 56,
                     A[0] | B[0] << 8 | M[0] & row[2], A[1] | B[1] << 8 | M[1] & row[3] | B[0] >> 56,
                     (row[5].reshape(-1, len(sep)) | sep).ravel() | B[1] >> 56]), ok & (d0 < 10)


def trace_to_csv(tr: Trace, path, observed, residuals: np.ndarray | None = None) -> None:
    """Write the trace as CSV, every value as format(v, ".17g") and every
    topology id as "%d".  Columns: t, topology, x*, v*, then y* and r* for
    the observed agents (the y* columns repeat their x* columns), attack*.
    _format_slots formats blocks of about ROW_BLOCK_VALUES values; format()
    takes the values it defers, and str() the ids a float does not hold."""
    observed = agent_set(observed, tr.n, "observed")
    cols = ["t", "topology"] + [f"{c}{i}" for c in "xv" for i in range(1, tr.n + 1)]
    cols += [f"y{i}" for i in observed]
    parts = [tr.times[:, None], tr.topology_ids[:, None], tr.states, tr.states[:, [i - 1 for i in observed]]]
    if residuals is not None:
        cols += [f"r{i}" for i in observed]
        parts.append(residuals)
    cols += [f"attack{i}" for i in tr.attacked]
    parts.append(tr.attack_values)
    width = len(cols)
    rows = max(1, ROW_BLOCK_VALUES // width)
    sep = np.array([ord(",")] * (width - 1) + [ord("\n")]) << 56
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for k in range(0, len(tr.times), rows):
            block = np.hstack([p[k : k + rows] for p in parts])
            words, ok = _format_slots(block.ravel(), sep)
            ok[1::width] &= np.abs(block[:, 1]) < 2.0**53
            for i in np.flatnonzero(~ok).tolist():
                r, col = divmod(i, width)
                text = str(tr.topology_ids[k + r]) if col == 1 else format(block[r, col], ".17g")
                words[:, i] = np.frombuffer(text.encode().ljust(31, b"\0") + bytes([sep[col] >> 56]), np.int64)
            fh.write(words.T.tobytes().translate(None, b"\0"))
