"""Exact piecewise-LTI propagation of the switched double-integrator network.

The stacked state is z = [x_1..x_n, v_1..v_n].  Position coupling enters the
velocity rows through the active Laplacian; an exponential attack input is
carried as an extra mode block so that every dwell interval is integrated by a
single matrix exponential, with no discretization error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

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
    "propagate_interval",
    "simulate",
    "consensus_error",
    "trace_to_csv",
]

_TIME_EPS = 1e-9
# most samples one run or interval may hold, checked before allocating
MAX_SAMPLES = 10_000_000


class SimulationError(RuntimeError):
    """Numeric failure during propagation."""

    def __init__(self, message: str, blowup_time: float | None = None):
        super().__init__(message)
        self.blowup_time = blowup_time


def assemble_A(L: np.ndarray) -> np.ndarray:
    """Drift matrix [[0, I], [-L, 0]] of the position-coupled network."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    return np.block([[np.zeros((n, n)), np.eye(n)], [-L, np.zeros((n, n))]])


def assemble_C(M, n: int) -> np.ndarray:
    """Output matrix selecting the positions of the observed agents (1-based,
    ascending)."""
    M = sorted(M)
    if not M:
        raise ValueError("observed set must be nonempty")
    if any(not (1 <= i <= n) for i in M):
        raise ValueError(f"observed set {M} not within 1..{n}")
    C = np.zeros((len(M), 2 * n))
    for k, i in enumerate(M):
        C[k, i - 1] = 1.0
    return C


def attack_injection(K, n: int) -> np.ndarray:
    """Injection matrix routing attack channels into the velocity rows of the
    misbehaving agents (1-based, ascending)."""
    K = sorted(K)
    if not K:
        raise ValueError("attacked set must be nonempty")
    if any(not (1 <= i <= n) for i in K):
        raise ValueError(f"attacked set {K} not within 1..{n}")
    B = np.zeros((2 * n, len(K)))
    for k, i in enumerate(K):
        B[n + i - 1, k] = 1.0
    return B


@dataclass(frozen=True)
class Segment:
    """One constant-dynamics stretch of a simulation: z_aug(t) =
    expm(A_aug (t - t0)) @ state0 for t in [t0, t1].  While the attack is
    active, z_aug is the plant state followed by the attack mode.  ``steps``
    holds the step reaching each of the segment's samples; every step between
    two lattice points is exactly the trace's ``dt``."""

    t0: float
    t1: float
    topology_id: int
    attack_active: bool
    A_aug: np.ndarray
    state0: np.ndarray
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


def _augment(A: np.ndarray, attack, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Drift [[A, G], [0, Eta]] that carries the attack's exponential mode m
    alongside the plant (Van Loan, IEEE TAC 1978), and m at the attack start.

    G maps the real mode state onto the injected signal, so one matrix
    exponential integrates the attacked plant exactly."""
    eta = complex(attack.eta)
    g0 = np.asarray(attack.g0)
    if abs(eta.imag) < 1e-300:
        Eta, mode0 = np.array([[eta.real]]), np.array([1.0])
        gain = g0.real.reshape(-1, 1)
    else:
        # m evolves as e^{a t} (cos b t, -sin b t); Re(g0 e^{eta t}) is then
        # Re(g0) * m1 + Im(g0) * m2
        a, b = eta.real, eta.imag
        Eta, mode0 = np.array([[a, b], [-b, a]]), np.array([1.0, 0.0])
        gain = np.column_stack([g0.real, g0.imag])
    d = Eta.shape[0]
    A_aug = np.zeros((2 * n + d, 2 * n + d))
    A_aug[: 2 * n, : 2 * n] = A
    A_aug[: 2 * n, 2 * n :] = attack_injection(attack.attacked, n) @ gain
    A_aug[2 * n :, 2 * n :] = Eta
    return A_aug, mode0


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
    pts = np.arange(math.floor(a / dt), math.ceil(b / dt) + 1) * dt
    pts = pts[(pts - a > _TIME_EPS) & (b - pts > _TIME_EPS)]
    times = np.append(pts, b)
    steps = np.diff(times, prepend=a)
    steps[1:-1] = dt
    return times, steps


def _propagate(
    A_aug: np.ndarray,
    state: np.ndarray,
    times: np.ndarray,
    steps: np.ndarray,
    out: np.ndarray,
    dt: float,
    steady: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance ``state`` under dz/dt = A_aug z by each of ``steps``, writing
    the plant part at ``times[k]`` into ``out[k]``.  A step of exactly dt
    uses the steady propagator expm(A_aug dt), built here on first use; any
    other step is a one-off.  Returns the final state and the steady
    propagator.

    Raises SimulationError at the first non-finite sample; the rows of
    ``out`` before it are filled."""
    n2 = out.shape[1]
    for k, step in enumerate(steps.tolist()):
        if step == dt and steady is None:
            steady = expm(A_aug * dt)
        state = (steady if step == dt else expm(A_aug * step)) @ state
        if not np.all(np.isfinite(state)):
            raise SimulationError(
                f"instability overflow at t={times[k]:.6g}", blowup_time=float(times[k])
            )
        out[k] = state[:n2]
    return state, steady


def propagate_interval(
    A: np.ndarray,
    z0: np.ndarray,
    t0: float,
    dt: float,
    duration: float,
    attack=None,
    attack_active: bool = False,
    mode0: np.ndarray | None = None,
):
    """Exactly propagate dz/dt = A z (+ attack injection) over one interval.

    Samples at t0 + k*dt and at the interval end.  Returns (times, states,
    final_mode).  ``attack`` is a ZdaAttack; when ``attack_active`` the
    exponential mode runs from ``mode0`` (defaults to its value at the attack
    start).
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    z0 = np.asarray(z0, dtype=float)
    n2 = z0.shape[0]
    if attack is not None and attack_active:
        A_aug, mode_init = _augment(A, attack, n2 // 2)
        state = np.concatenate([z0, mode_init if mode0 is None else mode0])
    else:
        A_aug = np.asarray(A, dtype=float)
        state = z0

    offsets, steps = np.zeros(0), np.zeros(0)
    if duration > _TIME_EPS:  # a vanishing interval merges into its start sample
        offsets, steps = _lattice(0.0, duration, dt)
    times = t0 + np.concatenate([[0.0], offsets])
    states = np.empty((len(times), n2))
    states[0] = z0
    state, _ = _propagate(A_aug, state, times[1:], steps, states[1:], dt)
    final_mode = state[n2:] if state.shape[0] > n2 else None
    return times, states, final_mode


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
    # one (augmented drift, attack-start mode) and one steady propagator per
    # (topology, attack active), shared by the segments
    drift: dict[tuple, tuple] = {}
    steady: dict[tuple, np.ndarray | None] = {}
    state = z0

    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a <= _TIME_EPS:
            continue
        tid = switching_signal(sched, a + _TIME_EPS)
        active = attack is not None and a >= attack.rho - _TIME_EPS
        key = (tid, active)
        if key not in drift:
            A = assemble_A(laplacian(topo_by_id[tid]))
            drift[key] = _augment(A, attack, n) if active else (A, None)
        A_aug, mode0 = drift[key]
        if active and state.shape[0] == 2 * n:
            state = np.concatenate([state, mode0])
        seg_times, steps = _lattice(a, b, dt)
        segments.append(Segment(a, b, tid, active, A_aug=A_aug, state0=state, steps=steps))

        seg_states = np.empty((len(seg_times), 2 * n))
        times_all.append(seg_times)
        states_all.append(seg_states)
        topo_all.append(np.full(len(seg_times), tid))
        try:
            state, steady[key] = _propagate(
                A_aug, state, seg_times, steps, seg_states, dt, steady.get(key)
            )
        except SimulationError as err:
            done = int(np.searchsorted(seg_times, err.blowup_time))
            for part in (times_all, states_all, topo_all):
                part[-1] = part[-1][:done]
            segments[-1] = replace(segments[-1], steps=steps[:done])
            err.trace = _finalize_trace(
                times_all, states_all, topo_all, C, observed, attacked, attack,
                segments, dt,
            )
            raise

    return _finalize_trace(
        times_all, states_all, topo_all, C, observed, attacked, attack, segments, dt
    )


def _finalize_trace(times, states, topo, C, observed, attacked, attack, segments, dt):
    times = np.concatenate(times)
    states = np.concatenate(states)
    outputs = states @ C.T
    vals = np.zeros((len(times), len(attacked)))
    if attack is not None and attacked:
        post = times >= attack.rho - _TIME_EPS
        if np.any(post):
            g0 = np.asarray(attack.g0)
            e = np.exp(complex(attack.eta) * (times[post] - attack.rho))
            vals[post] = np.real(np.outer(e, g0))
    return Trace(
        times=times,
        states=states,
        outputs=outputs,
        attack_values=vals,
        topology_ids=np.concatenate(topo),
        observed=tuple(sorted(observed)),
        attacked=attacked,
        segments=tuple(segments),
        dt=dt,
    )


def consensus_error(tr: Trace) -> dict:
    """Per-sample maximum pairwise position and velocity disagreement."""
    if len(tr.times) == 0:
        raise ValueError("trace is empty")
    n = tr.n
    x = tr.states[:, :n]
    v = tr.states[:, n:]
    return {
        "pos_disagreement": x.max(axis=1) - x.min(axis=1),
        "vel_disagreement": v.max(axis=1) - v.min(axis=1),
    }


def trace_to_csv(tr: Trace, path, residuals: np.ndarray | None = None) -> None:
    """Write the trace as CSV with deterministic 17-significant-digit
    formatting.  Columns: t, topology, x*, v*, y*, r*, attack*."""
    n = tr.n
    cols = ["t", "topology"]
    cols += [f"x{i}" for i in range(1, n + 1)]
    cols += [f"v{i}" for i in range(1, n + 1)]
    cols += [f"y{i}" for i in tr.observed]
    if residuals is not None:
        cols += [f"r{i}" for i in tr.observed]
    cols += [f"attack{i}" for i in tr.attacked]

    def fmt(v: float) -> str:
        return format(float(v), ".17g")

    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(tr.times)):
            row = [fmt(tr.times[k]), str(int(tr.topology_ids[k]))]
            row += [fmt(v) for v in tr.states[k]]
            row += [fmt(v) for v in tr.outputs[k]]
            if residuals is not None:
                row += [fmt(v) for v in residuals[k]]
            row += [fmt(v) for v in tr.attack_values[k]]
            fh.write(",".join(row) + "\n")
