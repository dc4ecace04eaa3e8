"""Exact piecewise-LTI propagation of the switched double-integrator network.

The stacked state is z = [x_1..x_n, v_1..v_n].  Position coupling enters the
velocity rows through the active Laplacian L = Q diag(lam) Q^T, whose modes
are undamped oscillators; an exponential attack input adds a particular
solution.  Every sample of a dwell interval is thus evaluated in closed form
from the interval's start, with no discretization error and no stepping.
"""
from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .graphs import laplacian
from .scheduling import SwitchingSchedule, switching_signal

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
    "simulate",
    "consensus_error",
    "taylor_plan",
    "trace_to_csv",
]

_TIME_EPS = 1e-9
# most samples one run or interval may hold, checked before allocating
MAX_SAMPLES = 10_000_000
# a drift resonates when |eta^2 + lam_i| <= RES_TOL * max(1, |eta|^2, lam_i)
# for some mode i, where its modal particular solution fails
RES_TOL = 1e-6
# values per block of rows the CSV writer formats at once
CSV_BLOCK_VALUES = 4096
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
    """Numeric failure during propagation."""

    def __init__(self, message: str, blowup_time: float | None = None):
        super().__init__(message)
        self.blowup_time = blowup_time


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix of a stack
    (k, d, d): scaling and squaring of a diagonal Pade approximant (Al-Mohy
    & Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009).  One degree and one
    scaling serve the whole stack, chosen by the exact 1-norms of A^4, A^6,
    A^8 and A^10 of its largest member; A^8 and A^10 are formed only when the
    choice still depends on them."""
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
        s = max(0, math.ceil(math.log2(eta / _PADE[13][0]))) if eta > 0.0 else 0
        s += _ell(A * 2.0**-s, 13)
    return _pade(A, P, m, s).reshape(shape)


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
    norm settles a zero without the powers."""
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
    return max(0, math.ceil((math.log2(alpha) + 53) / (2 * m))) if alpha > 0.0 else 0


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
    return np.block([[np.zeros((n, n)), np.eye(n)], [-L, np.zeros((n, n))]])


def _agents(S, n: int, what: str) -> list:
    """The 0-based indices of the agents S (1-based), ascending; ValueError
    unless S is a nonempty subset of 1..n."""
    S = sorted(S)
    if not S:
        raise ValueError(f"{what} set must be nonempty")
    if any(not (1 <= i <= n) for i in S):
        raise ValueError(f"{what} set {S} not within 1..{n}")
    return [i - 1 for i in S]


def assemble_C(M, n: int) -> np.ndarray:
    """Output matrix selecting the positions of the observed agents (1-based,
    ascending)."""
    return np.eye(2 * n)[_agents(M, n, "observed")]


def attack_injection(K, n: int) -> np.ndarray:
    """Injection matrix routing attack channels into the velocity rows of the
    misbehaving agents (1-based, ascending)."""
    return np.eye(2 * n)[:, [n + i for i in _agents(K, n, "attacked")]]


@dataclass(frozen=True)
class Segment:
    """One constant-dynamics stretch of a simulation over [t0, t1].  While the
    attack is active, its real exponential mode m obeys dm/dt = Eta m, enters
    the plant as dz/dt = A z + G m and is ``mode0`` at t0; while it is
    dormant all three are empty.  ``steps`` holds the step reaching each
    of the segment's samples; every step between two lattice points is
    exactly the trace's ``dt``."""

    t0: float
    t1: float
    topology_id: int
    attack_active: bool
    Eta: np.ndarray
    G: np.ndarray
    mode0: np.ndarray
    steps: np.ndarray


@dataclass(frozen=True)
class Trace:
    """Time-indexed record of one simulation run.

    ``states`` holds the plant state per sample; ``attack_values`` the injected
    signal per channel (zero while the attack is dormant).  ``segments``
    carries the exact per-interval drifts and steps, one step per sample after
    the first, so downstream consumers (the observer) can integrate against
    the continuous-time plant rather than interpolating samples.  ``dt`` is
    the lattice spacing of the samples.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    attack_values: np.ndarray
    topology_ids: np.ndarray
    observed: tuple
    attacked: tuple
    segments: tuple = field(repr=False, default=())
    dt: float | None = None

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


def _propagator(L: np.ndarray, Eta: np.ndarray, G: np.ndarray):
    """Exact sampler of dz/dt = [[0, I], [-L, 0]] z + G m, dm/dt = Eta m: a
    function of (z0, m0, tau) giving the plant state at each offset in tau.

    With L = Q diag(lam) Q^T and omega = sqrt(lam), the modes xi = Q^T x,
    nu = Q^T v move freely as xi0 cos(omega t) + nu0 sin(omega t) / omega,
    and the mode value mu0 e^{eta t} adds Re(c mu0 e^{eta t}), where
    c_i = (Q^T B g0)_i / (eta^2 + lam_i).  A resonant drift (RES_TOL) has no
    such c; its samples are expm(A_aug tau) (z0, m0) instead."""
    n, d = L.shape[0], Eta.shape[0]
    lam, Q = np.linalg.eigh(L)
    if lam[0] < -1e-9 * max(1.0, lam[-1]):
        raise ValueError("L must be positive semidefinite")
    w = _W[:d]
    eta = Eta[:, 0] @ w if d else 0.0
    den = eta**2 + lam
    if d and np.any(np.abs(den) <= RES_TOL * np.maximum(1.0, np.maximum(abs(eta) ** 2, lam))):
        # the drift augmented with the mode (Van Loan, IEEE TAC 1978)
        A_aug = np.block([[assemble_A(L), G], [np.zeros((d, 2 * n)), Eta]])

        def resonant(z0, m0, tau):
            s0, size = np.append(z0, m0), max(1, EXPM_BLOCK_VALUES // A_aug.size)
            blocks = [tau[k : k + size] for k in range(0, len(tau), size)]
            return np.vstack([expm(A_aug * t[:, None, None])[:, : 2 * n] @ s0 for t in blocks]
                             or [np.zeros((0, 2 * n))])

        return resonant

    # one column per position mode, then one per velocity mode
    omega = np.tile(np.sqrt(np.maximum(lam, 0.0)), 2)
    still = (omega == 0.0).astype(float)  # sin(omega t) / omega -> t
    inv = 1.0 / np.maximum(omega, still)
    swap = np.vstack([np.ones(n), -lam])
    QQ = np.kron(np.eye(2), Q.T)
    c = Q.T @ (G[n:] @ w.conj()) / den if d else np.zeros(n)
    cp = np.vstack([c, c * eta])  # particular (xi, nu) per unit mode value

    def modal(z0, m0, tau):
        mu0 = m0 @ w
        free = z0.reshape(2, n) @ Q - (mu0 * cp).real
        wt = tau[:, None] * omega
        sin = np.sin(wt) * inv + tau[:, None] * still
        y = free.ravel() * np.cos(wt) + (free[::-1] * swap).ravel() * sin
        if d:
            y += (mu0 * np.exp(eta * tau)[:, None] * cp.ravel()).real
        return y @ QQ

    return modal


def _evaluate(sample, z0, m0, tau) -> tuple[np.ndarray, int]:
    """Plant states at the offsets tau, and how many rows precede the first
    non-finite one."""
    with np.errstate(over="ignore", invalid="ignore"):
        states = sample(z0, m0, tau)
    if np.isfinite(states).all():
        return states, len(tau)
    return states, int(np.argmin(np.isfinite(states).all(axis=1)))


def check_sample_count(span: float, dt: float) -> None:
    """Raise ValueError unless dt is positive and sampling ``span`` every
    ``dt`` stays within MAX_SAMPLES samples."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if span / dt > MAX_SAMPLES:
        raise ValueError(f"{span / dt:.3g} samples exceed the cap of {MAX_SAMPLES}")


def _lattice(a: float, b: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample times in (a, b] and the step reaching each: the lattice points
    k*dt more than _TIME_EPS inside the interval, then b.  Every step between
    two lattice points is exactly dt."""
    check_sample_count(b - a, dt)
    lo, hi = math.floor(a / dt), math.ceil(b / dt)
    while lo <= hi and lo * dt - a <= _TIME_EPS:
        lo += 1
    while hi >= lo and b - hi * dt <= _TIME_EPS:
        hi -= 1
    count = hi - lo + 1
    times, steps = np.empty((2, count + 1))
    np.multiply(np.arange(lo, hi + 1), dt, out=times[:count])
    times[count] = b
    steps.fill(dt)
    steps[0] = times[0] - a
    steps[count] = b - times[count - 1] if count else b - a
    return times, steps


def simulate(
    topologies,
    sched: SwitchingSchedule,
    z0: np.ndarray,
    attack=None,
    dt: float = 0.01,
    observed=(1,),
) -> Trace:
    """Run the switched network over the schedule horizon.

    The attack (if any) is dormant before its start time and injects
    g0 * e^{eta (t - rho)} into the misbehaving agents' velocity rows
    afterwards; the start instant is inserted as a sample so activation is
    sharp.  Raises SimulationError carrying the blow-up time if the state
    overflows; the partial trace is attached to the exception as ``.trace``.
    """
    topo_by_id = {t.id: t for t in topologies}
    z0 = np.array(z0, dtype=float)
    n = z0.shape[0] // 2
    C = assemble_C(observed, n)
    attacked = tuple(sorted(attack.attacked)) if attack is not None else ()
    if attack is not None and attack.rho < 0.0:
        raise ValueError("attack start time must be nonnegative")
    check_sample_count(sched.horizon, dt)

    breakpoints = set(sched.switch_times)
    if attack is not None and 0.0 < attack.rho < sched.horizon:
        breakpoints.add(float(attack.rho))
    bounds = [0.0] + sorted(breakpoints) + [sched.horizon]
    # sample 0 carries the topology active just after t = 0; every later
    # sample carries the topology of the segment it closes
    times_all = [np.zeros(1)]
    states_all = [z0[None, :]]
    topo_all = [np.array([switching_signal(sched, _TIME_EPS)])]
    segments = []
    # one (Eta, G, sampler) per (topology, attack active)
    drifts: dict[tuple, tuple] = {}
    state, blowup = z0, None

    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a <= _TIME_EPS:
            continue
        tid = switching_signal(sched, a + _TIME_EPS)
        active = attack is not None and a >= attack.rho - _TIME_EPS
        key = (tid, active)
        if key not in drifts:
            Eta, G = _attack_mode(attack if active else None, n)
            drifts[key] = (Eta, G, _propagator(laplacian(topo_by_id[tid]), Eta, G))
        Eta, G, sample = drifts[key]
        mu0 = np.exp(complex(attack.eta) * (a - attack.rho)) if active else 0.0
        mode0 = np.array([mu0.real, -mu0.imag][: Eta.shape[0]])
        seg_times, steps = _lattice(a, b, dt)
        seg_states, done = _evaluate(sample, state, mode0, seg_times - a)
        segments.append(Segment(a, b, tid, active, Eta=Eta, G=G, mode0=mode0, steps=steps[:done]))
        times_all.append(seg_times[:done])
        states_all.append(seg_states[:done])
        topo_all.append(np.full(done, tid))
        if done < len(seg_times):
            blowup = float(seg_times[done])
            break
        state = seg_states[-1]

    times, states = np.concatenate(times_all), np.concatenate(states_all)
    vals = np.zeros((len(times), len(attacked)))
    if attack is not None and attacked:
        post = times >= attack.rho - _TIME_EPS
        e = np.exp(complex(attack.eta) * (times[post] - attack.rho))
        vals[post] = np.real(np.outer(e, np.asarray(attack.g0)))
    tr = Trace(
        times=times,
        states=states,
        outputs=states @ C.T,
        attack_values=vals,
        topology_ids=np.concatenate(topo_all),
        observed=tuple(sorted(observed)),
        attacked=attacked,
        segments=tuple(segments),
        dt=dt,
    )
    if blowup is not None:
        err = SimulationError(f"instability overflow at t={blowup:.6g}", blowup_time=blowup)
        err.trace = tr
        raise err
    return tr


def consensus_error(tr: Trace) -> dict:
    """Per-sample maximum pairwise position and velocity disagreement."""
    if len(tr.times) == 0:
        raise ValueError("trace is empty")
    n = tr.n
    x, v = tr.states[:, :n], tr.states[:, n:]
    return {
        "pos_disagreement": x.max(axis=1) - x.min(axis=1),
        "vel_disagreement": v.max(axis=1) - v.min(axis=1),
    }


def trace_to_csv(tr: Trace, path, residuals: np.ndarray | None = None) -> None:
    """Write the trace as CSV with deterministic 17-significant-digit
    formatting.  Columns: t, topology, x*, v*, y*, r*, attack*.  Rows are
    formatted by one format string per block of about CSV_BLOCK_VALUES
    values.  A trace of two or more blocks, in a process that may run on two
    CPUs, is split at a block boundary near its middle: a forked child writes
    the second half to a temporary file that the parent appends to its own."""
    cols = ["t", "topology"] + [f"{c}{i}" for c in "xv" for i in range(1, tr.n + 1)]
    cols += [f"y{i}" for i in tr.observed]
    parts = [tr.times[:, None], tr.topology_ids[:, None], tr.states, tr.outputs]
    if residuals is not None:
        cols += [f"r{i}" for i in tr.observed]
        parts.append(residuals)
    cols += [f"attack{i}" for i in tr.attacked]
    parts.append(tr.attack_values)
    row = "%.17g,%d" + ",%.17g" * (len(cols) - 2) + "\n"
    rows = max(1, CSV_BLOCK_VALUES // len(cols))

    def write(fh, start, stop):
        for k in range(start, stop, rows):
            block = np.hstack([p[k : k + rows] for p in parts]).ravel().tolist()
            block[1 :: len(cols)] = tr.topology_ids[k : k + rows].tolist()  # exact ints
            fh.write(row * (len(block) // len(cols)) % tuple(block))

    total = len(tr.times)
    half = -(-total // (2 * rows)) * rows  # the first block boundary at or past the middle
    with open(path, "w") as fh, contextlib.ExitStack() as stack:
        fh.write(",".join(cols) + "\n")
        pid = None
        if half < total and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            with contextlib.suppress(OSError):  # no fork: the parent writes every row
                tail = stack.enter_context(tempfile.TemporaryFile("w+"))
                pid = os.fork()
        if pid == 0:  # the child writes the second half and never returns
            try:
                write(tail, half, total)
                tail.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            write(fh, 0, half if pid else total)
        finally:
            status = pid and os.waitpid(pid, 0)[1]
        if status:
            raise OSError(f"trace writer child exited with code {os.waitstatus_to_exitcode(status)}")
        if pid:
            tail.seek(0)
            shutil.copyfileobj(tail, fh)
