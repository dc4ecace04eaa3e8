import contextlib
import math
import os
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zdalab import attacks, graphs, observer, scenario, scheduling, simulation
from zdalab.simulation import (
    assemble_A,
    assemble_C,
    attack_injection,
    consensus_error,
    simulate,
)

from conftest import random_connected_topology, trace_to_csv_oracle

# values at the trace writer's edges: zeros, subnormals, extremes, integers
# past 2^53, powers of ten, non-terminating fractions
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
               1.7976931348623157e308, 3.0, -7.0, 2.0**53, 1e16, 0.1, 1 / 3]


def topology_before(sched, t):
    """The id of the topology the schedule runs just before time t > 0."""
    return next(topo.id for t0, t1, topo in sched.intervals() if t0 < t <= t1)


def rk4(f, z0, t0, t1, steps):
    """Classic fixed-step integrator, the independent oracle for the
    closed-form propagation."""
    z = np.array(z0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, z)
        k2 = f(t + h / 2, z + h / 2 * k1)
        k3 = f(t + h / 2, z + h / 2 * k2)
        k4 = f(t + h, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return z


def make_attack(rng, n, eta=None):
    K = tuple(sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n + 1), replace=False)))
    g0 = rng.uniform(-1.0, 1.0, len(K)) * 1e-2
    while np.max(np.abs(g0)) < 1e-3:
        g0 = rng.uniform(-1.0, 1.0, len(K)) * 1e-2
    dz = rng.normal(size=2 * n)
    return attacks.ZdaAttack(
        eta=eta if eta is not None else rng.uniform(0.02, 0.3),
        rho=0.0,
        g0=g0,
        delta_z0=dz,
        attacked=K,
    )


def augmented_oracle(A, atk, z0, offsets):
    """Plant states expm(A_aug t) (z0, m0) at each offset t, with A_aug the
    drift [[A, B gain], [0, Eta]] that carries the attack's exponential mode
    alongside the plant and m0 the mode at the attack start."""
    n = len(z0) // 2
    eta, g0 = complex(atk.eta), np.asarray(atk.g0, dtype=complex)
    if eta.imag == 0.0:
        Eta, gain, m0 = [[eta.real]], g0.real[:, None], [1.0]
    else:
        a, b = eta.real, eta.imag
        Eta, gain, m0 = [[a, b], [-b, a]], np.column_stack([g0.real, g0.imag]), [1.0, 0.0]
    d = len(m0)
    A_aug = np.zeros((2 * n + d, 2 * n + d))
    A_aug[: 2 * n, : 2 * n] = A
    A_aug[: 2 * n, 2 * n :] = attack_injection(atk.attacked, n) @ gain
    A_aug[2 * n :, 2 * n :] = Eta
    s0 = np.concatenate([z0, m0])
    return np.array([(scipy.linalg.expm(A_aug * t) @ s0)[: 2 * n] for t in offsets])


def run_interval(topo, z0, dt, duration, attack=None):
    """``simulate`` over one dwell interval of ``topo`` lasting ``duration``."""
    sched = scheduling.SwitchingSchedule(order=(topo,), dwell={topo: 1e9}, horizon=duration)
    return simulate(sched, z0, attack=attack, dt=dt)


def run_split(topo, z0, dt, splits, duration, attack=None):
    """``simulate`` over ``duration`` with copies of ``topo`` (identical
    weights, ids 1, 2, ...) handing over at each of the ascending ``splits``."""
    copies = tuple(graphs.Topology(id=k, n=topo.n, adjacency=topo.adjacency) for k in range(1, len(splits) + 2))
    dwell = dict(zip(copies, np.diff([0.0, *splits]).tolist() + [1e9]))
    sched = scheduling.SwitchingSchedule(order=copies, dwell=dwell, horizon=duration)
    return simulate(sched, z0, attack=attack, dt=dt)


def count_expm(monkeypatch) -> list:
    """Record the shape of every matrix exponential the simulation module
    takes, one entry per matrix of a stacked call."""
    calls = []

    def counted(M, expm=simulation.expm):
        calls.extend([M.shape[-2:]] * int(np.prod(M.shape[:-2])))
        return expm(M)

    monkeypatch.setattr(simulation, "expm", counted)
    return calls


def star_resonant_attack():
    """A star on 4 agents (Laplacian spectrum 0, 1, 1, 4) and an attack at the
    rate eta = i on leaf 2, which forces the lam = 1 modes at resonance."""
    star = graphs.Topology.from_edges(1, 4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    atk = attacks.ZdaAttack(
        eta=1j, rho=0.0, g0=np.array([0.05 + 0.02j]), delta_z0=np.eye(8)[0], attacked=(2,)
    )
    return star, atk


def lattice_oracle(a: float, b: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-span sampling rule: the times in (a, b] and the step reaching
    each, the lattice points k*dt more than _TIME_EPS inside the interval,
    then b."""
    lo, hi = math.floor(a / dt), math.ceil(b / dt)
    while lo <= hi and lo * dt - a <= simulation._TIME_EPS:
        lo += 1
    while hi >= lo and b - hi * dt <= simulation._TIME_EPS:
        hi -= 1
    times = np.append(np.arange(lo, hi + 1) * dt, b)
    steps = np.full(len(times), dt)
    steps[0] = times[0] - a
    steps[-1] = b - times[-2] if len(times) > 1 else b - a
    return times, steps


def record_pade(monkeypatch) -> list:
    """Record the (degree, squarings) of every Pade approximant expm forms."""
    picks = []

    def recorded(A, P, m, s, pade=simulation._pade):
        picks.append((m, s))
        return pade(A, P, m, s)

    monkeypatch.setattr(simulation, "_pade", recorded)
    return picks


def rel_1norm(X, Y) -> float:
    return float(np.linalg.norm(X - Y, 1) / np.linalg.norm(Y, 1))


class TestExpm:
    """The scaling-and-squaring exponential against scipy.linalg.expm."""

    # 1-norms of random matrices that reach Pade degrees 3, 5, 7, 9 and 13,
    # then degree 13 with squarings
    NORMS = (1e-3, 0.1, 0.6, 1.9, 4.0, 12.0, 40.0)

    @pytest.mark.parametrize("d", [1, 2, 9, 129])
    def test_matches_scipy(self, monkeypatch, d):
        """scipy's own 2x2 exponential errs by up to ~1e-12 once it squares
        (against 40-digit arithmetic), so the 2x2 case stops short of
        squaring here and squares in the closed-form test below."""
        rng = np.random.default_rng(d)
        norms = self.NORMS[:5] if d == 2 else self.NORMS
        picks = record_pade(monkeypatch)
        for norm in norms:
            A = rng.normal(size=(d, d))
            A *= norm / np.abs(A).sum(axis=0).max()
            assert rel_1norm(simulation.expm(A), scipy.linalg.expm(A)) <= 1e-13
        if d > 1:
            assert {m for m, _ in picks} == {3, 5, 7, 9, 13}
        assert any(s > 0 for _, s in picks) == (d != 2)

    @pytest.mark.parametrize("d", [1, 2, 9, 129])
    def test_stack_members_match_scipy(self, d):
        """One degree and one scaling serve the whole stack; each member is
        still its own exponential."""
        rng = np.random.default_rng(100 + d)
        norms = self.NORMS[:5] if d == 2 else self.NORMS
        S = rng.normal(size=(len(norms), d, d))
        S *= np.array(norms)[:, None, None] / np.abs(S).sum(axis=1).max(axis=1)[:, None, None]
        X = simulation.expm(S)
        assert X.shape == S.shape
        for Xk, Sk in zip(X, S):
            assert rel_1norm(Xk, scipy.linalg.expm(Sk)) <= 1e-13

    def test_rotation_with_squaring_in_closed_form(self, monkeypatch):
        """exp([[a, b], [-b, a]] t) = e^{a t} [[cos bt, sin bt], [-sin bt, cos bt]],
        the attack mode's own drift, at norms that need squarings."""
        picks = record_pade(monkeypatch)
        for a, b in [(0.3, 7.0), (-2.0, 11.0), (1.5, -30.0), (0.05, 40.0)]:
            X = simulation.expm(np.array([[a, b], [-b, a]]))
            c, s = np.cos(b), np.sin(b)
            assert rel_1norm(X, np.exp(a) * np.array([[c, s], [-s, c]])) <= 1e-13
        assert all(m == 13 and s > 0 for m, s in picks)

    def test_each_degree_up_to_its_bound(self, monkeypatch):
        """A rotation generator b J has ||(b J)^k||_1 = b^k, so just below
        each theta_m the rule picks degree m, which must still be exact."""
        picks = record_pade(monkeypatch)
        for m, (theta, _) in sorted(simulation._PADE.items()):
            b = 0.99 * theta
            X = simulation.expm(np.array([[0.0, b], [-b, 0.0]]))
            c, s = np.cos(b), np.sin(b)
            assert rel_1norm(X, np.array([[c, s], [-s, c]])) <= 1e-15
            assert picks[-1] == (m, 0)

    def test_nonnormality_raises_the_degree(self, monkeypatch):
        """A^2 = -1e-4 I gives ||A^k||^(1/k) = 0.01, within degree 3's
        bound, but abs(A)^(2m+1) is large: the ell term asks for degree 9."""
        picks = record_pade(monkeypatch)
        A = np.array([[1.0, 1.0], [-1.0001, -1.0]])
        X = simulation.expm(A)
        w = math.sqrt(1e-4)
        assert rel_1norm(X, math.cos(w) * np.eye(2) + math.sin(w) / w * A) <= 1e-14
        assert picks == [(9, 0)]

    def test_zero_and_empty(self):
        np.testing.assert_array_equal(simulation.expm(np.zeros((5, 5))), np.eye(5))
        np.testing.assert_array_equal(
            simulation.expm(np.zeros((3, 4, 4))), np.tile(np.eye(4), (3, 1, 1))
        )
        assert simulation.expm(np.zeros((0, 6, 6))).shape == (0, 6, 6)


def random_observer_drift(rng, n, eta):
    """The observer's joint drift [[Eta, 0], [-G, A_obs]] on a random
    topology with random gains, with no attack mode for ``eta`` None."""
    L = random_connected_topology(rng, n).L
    k = int(rng.integers(1, n + 1))
    cfg = observer.ObserverConfig(
        observed=tuple(int(i) for i in rng.choice(np.arange(1, n + 1), k, replace=False)),
        psi=tuple(rng.uniform(0.1, 2.0, k)),
        theta=tuple(rng.uniform(0.1, 2.0, k)),
    )
    A_obs = observer.assemble_observer_A(L, *observer.gain_matrices(cfg, n))
    Eta, G = simulation._attack_mode(None if eta is None else make_attack(rng, n, eta), n)
    return np.block([[Eta, np.zeros((len(Eta), 2 * n))], [-G, A_obs]])


class TestExpmAction:
    """The truncated-Taylor action exp(tA) v against scipy.linalg.expm."""

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    @pytest.mark.parametrize(
        "eta", [None, 0.2, complex(0.05, 0.7)], ids=["no-mode", "real-mode", "complex-mode"]
    )
    def test_matches_scipy_on_observer_drifts(self, n, eta):
        rng = np.random.default_rng(n)
        J = random_observer_drift(rng, n, eta)
        norm = float(np.abs(J).sum(axis=0).max())
        dt = 0.05
        for tau in [*rng.uniform(0.0, dt, 4), dt]:
            v = rng.normal(size=len(J))
            ref = scipy.linalg.expm(J * tau) @ v
            got = simulation.expm_action(J, v, tau, *simulation.taylor_plan(norm * tau, 10**6))
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_several_steps_match_scipy(self):
        rng = np.random.default_rng(7)
        J = random_observer_drift(rng, 16, complex(0.05, 0.7))
        tau = 30.0 / np.abs(J).sum(axis=0).max()
        m, s = simulation.taylor_plan(30.0, 10**6)
        assert s > 1
        v = rng.normal(size=len(J))
        ref = scipy.linalg.expm(J * tau) @ v
        got = simulation.expm_action(J, v, tau, m, s)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "norm, budget, plan",
        [(0.0, 9, (1, 1)), (0.05, 9, (8, 1)), (0.3, 129, (12, 1)), (0.3, 9, None),
         (10.0, 129, (40, 2)), (10.0, 79, None)],
    )
    def test_plan_minimizes_products_within_budget(self, norm, budget, plan):
        assert simulation.taylor_plan(norm, budget) == plan

    @pytest.mark.parametrize("norm", [1e308 * 10.0, math.nan, 1e300, 129.5])
    def test_overflowing_or_huge_norm_has_no_plan(self, norm):
        assert simulation.taylor_plan(norm, 129) is None


class TestAssembly:
    def test_double_integrator(self):
        np.testing.assert_array_equal(
            assemble_A(np.zeros((1, 1))), [[0.0, 1.0], [0.0, 0.0]]
        )

    def test_path_of_two_eigenvalues(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        vals = np.linalg.eigvals(assemble_A(L))
        vals = sorted(vals, key=lambda v: (round(v.imag, 9), round(v.real, 9)))
        np.testing.assert_allclose(
            vals, [-1j * np.sqrt(2), 0.0, 0.0, 1j * np.sqrt(2)], atol=1e-9
        )

    def test_consensus_direction_in_kernel(self, topo2):
        A = assemble_A(topo2.L)
        direction = np.concatenate([np.ones(4), np.zeros(4)])
        np.testing.assert_allclose(A @ direction, 0.0, atol=1e-14)

    def test_output_matrix_selects_positions(self):
        C = assemble_C([1], 4)
        expected = np.zeros((1, 8))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(C, expected)
        np.testing.assert_array_equal(assemble_C(range(1, 4), 3), np.hstack([np.eye(3), np.zeros((3, 3))]))
        np.testing.assert_array_equal(assemble_C([2], 3), [[0, 1, 0, 0, 0, 0]])

    def test_output_matrix_rejects_empty_set(self):
        with pytest.raises(ValueError):
            assemble_C([], 4)

    def test_injection_targets_velocity_rows(self):
        B = attack_injection([1, 3], 3)
        assert B.shape == (6, 2)
        assert B[3, 0] == 1.0 and B[5, 1] == 1.0
        assert B.sum() == 2.0


class TestPropagateInterval:
    """One dwell interval through ``simulate``: a one-topology schedule whose
    dwell outlasts the horizon, or copies of one topology handing over."""

    def test_double_integrator_unit_drift(self):
        still = graphs.Topology(id=1, n=1, adjacency=np.zeros((1, 1)))
        tr = run_interval(still, [0.0, 1.0], 0.5, 1.0)
        assert tr.times.tolist() == [0.0, 0.5, 1.0]
        np.testing.assert_allclose(tr.states[-1], [1.0, 1.0], atol=1e-14)

    def test_vanishing_duration_is_continuous(self, topo1):
        z0 = np.arange(8.0)
        tr = run_interval(topo1, z0, 1.0, 1e-9)
        assert tr.times.tolist() == [0.0]
        np.testing.assert_allclose(tr.states[-1], z0, atol=1e-12)

    def test_dormant_attack_matches_no_attack(self, topo1):
        rng = np.random.default_rng(5)
        z0 = rng.normal(size=8)
        atk = make_attack(rng, 4)
        late = attacks.ZdaAttack(atk.eta, 5.0, atk.g0, atk.delta_z0, atk.attacked)
        plain = run_interval(topo1, z0, 0.1, 2.0)
        dormant = run_interval(topo1, z0, 0.1, 2.0, attack=late)
        np.testing.assert_allclose(plain.states, dormant.states, atol=0.0)
        assert not dormant.attack_values.any()
        assert not any(seg.mode0.any() for seg in dormant.segments)

    def test_invalid_steps_rejected(self, topo1):
        with pytest.raises(scheduling.ScheduleError, match="horizon"):
            run_interval(topo1, np.zeros(8), 0.1, -1.0)
        with pytest.raises(scheduling.ScheduleError, match="horizon"):
            run_interval(topo1, np.zeros(8), 0.1, 0.0)
        with pytest.raises(ValueError, match="dt"):
            run_interval(topo1, np.zeros(8), 0.0, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_rk4_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        topo = random_connected_topology(rng, n)
        A = assemble_A(topo.L)
        z0 = rng.normal(size=2 * n)
        atk = make_attack(rng, n)
        B = attack_injection(atk.attacked, n)
        duration = float(rng.uniform(1.0, 4.0))
        states = run_interval(topo, z0, duration, duration, attack=atk).states

        def f(t, z):
            return A @ z + B @ np.real(atk.g0 * np.exp(atk.eta * t))

        oracle = rk4(f, z0, 0.0, duration, 4000)
        rel = np.linalg.norm(states[-1] - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["real", "complex", "small-real"])
    def test_matches_augmented_exponential(self, seed, kind, monkeypatch):
        """The closed modal form agrees with the exponential of the augmented
        drift at every sample, without taking any exponential itself."""
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 7))
        topo = random_connected_topology(rng, n)
        A = assemble_A(topo.L)
        z0 = rng.normal(size=2 * n)
        eta = {
            "real": rng.uniform(-0.5, 0.5),
            "complex": complex(rng.uniform(-0.3, 0.3), rng.uniform(0.2, 3.0)),
            "small-real": rng.choice([-1.0, 1.0]) * rng.uniform(3e-3, 1e-2),
        }[kind]
        atk = make_attack(rng, n, eta=eta)
        if kind == "complex":
            g0 = atk.g0 + 1j * rng.uniform(-1.0, 1.0, len(atk.g0)) * 1e-2
            atk = attacks.ZdaAttack(eta, 0.0, g0, atk.delta_z0, atk.attacked)
        calls = count_expm(monkeypatch)
        dt, duration = 0.37, float(rng.uniform(2.0, 6.0))
        tr = run_interval(topo, z0, dt, duration, attack=atk)
        assert calls == []
        oracle = augmented_oracle(A, atk, z0, tr.times)
        rel = np.linalg.norm(tr.states - oracle, axis=1) / np.linalg.norm(oracle, axis=1)
        assert rel.max() <= 1e-11

    def test_exact_resonance_takes_the_exponential(self, monkeypatch):
        """An attack at eta = i on a star with lam = 1 has no modal particular
        solution: the trace grows secularly, every sample comes from the
        augmented exponential, and it matches RK4."""
        star, atk = star_resonant_attack()
        A = assemble_A(star.L)
        B = attack_injection(atk.attacked, 4)
        z0 = np.concatenate([np.full(4, 0.3), np.full(4, -0.1)])  # in consensus
        calls = count_expm(monkeypatch)
        tr = run_interval(star, z0, 0.5, 60.0, attack=atk)
        assert len(calls) == len(tr.times) - 1

        def f(t, z):
            return A @ z + B @ np.real(atk.g0 * np.exp(atk.eta * t))

        z, worst = z0, 0.0
        for k in range(1, len(tr.times)):
            z = rk4(f, z, tr.times[k - 1], tr.times[k], 200)
            worst = max(worst, np.linalg.norm(tr.states[k] - z) / np.linalg.norm(z))
        assert worst < 1e-8
        # the forced lam = 1 mode grows like t sin t
        dis = consensus_error(tr)["pos_disagreement"]
        assert dis[tr.times >= 50.0].max() > 4.0 * dis[tr.times <= 10.0].max()

    def test_dormant_resonant_attack_forces_nothing(self):
        """A resonant attack with a growing envelope, eta = 0.004 + 1e4 i on
        the star scaled to lam = 1e8, is dormant for 2e5 s, over which
        e^{eta t} would overflow: the trace stays finite to the horizon, and
        each row before rho is the attack-free run's."""
        star, _ = star_resonant_attack()
        star = graphs.Topology(id=1, n=4, adjacency=star.adjacency * 1e8)
        atk = attacks.ZdaAttack(eta=complex(4e-3, 1e4), rho=2e5, g0=np.array([0.05 + 0.02j]),
                                delta_z0=np.eye(8)[0], attacked=(2,))
        sched = scheduling.SwitchingSchedule(order=(star,), dwell={star: 1e9}, horizon=2.01e5)
        z0 = np.concatenate([np.arange(1.0, 5.0), np.zeros(4)])
        tr, free = simulate(sched, z0, attack=atk, dt=97.3), simulate(sched, z0, dt=97.3)
        assert tr.times[-1] == sched.horizon and np.isfinite(tr.states).all()
        before = int(np.sum(tr.times < atk.rho))
        np.testing.assert_array_equal(tr.times[:before], free.times[:before])
        assert row_gap(tr.states[:before], free.states[:before]) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        split=st.floats(0.05, 0.95),
        complex_rate=st.booleans(),
    )
    def test_semigroup_carries_the_attack_mode(self, seed, split, complex_rate):
        """Handing the interval over to an identical copy at a split point,
        with the attack active across it, ends where one interval ends."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        topo = random_connected_topology(rng, n)
        z0 = rng.normal(size=2 * n)
        eta = complex(0.1, 1.3) if complex_rate else 0.2
        atk = make_attack(rng, n, eta=eta)
        T = float(rng.uniform(1.0, 5.0))
        s = split * T
        direct = run_interval(topo, z0, T, T, attack=atk)
        halves = run_split(topo, z0, T, [s], T, attack=atk)
        assert all(seg.mode0.any() for seg in halves.segments)
        mu = np.exp(atk.eta * s)
        mode = [mu.real, -mu.imag][: 1 + complex_rate]
        np.testing.assert_allclose(halves.segments[1].mode0, mode)
        end, split_end = direct.states[-1], halves.states[-1]
        rel = np.linalg.norm(end - split_end) / np.linalg.norm(end)
        assert rel < 1e-10

    def test_semigroup_property(self, topo2):
        rng = np.random.default_rng(8)
        z0 = rng.normal(size=8)
        direct = run_interval(topo2, z0, 3.0, 3.0)
        halves = run_split(topo2, z0, 3.0, [1.2], 3.0)
        assert halves.topology_ids.tolist() == [1, 1, 2]
        end, split_end = direct.states[-1], halves.states[-1]
        rel = np.linalg.norm(end - split_end) / np.linalg.norm(end)
        assert rel < 1e-10


class TestSimulate:
    def make_schedule(self, t1, t2, horizon=10.0):
        tau = np.pi / 2 + 0.2
        return scheduling.SwitchingSchedule(order=(t1, t2), dwell={t1: tau, t2: tau}, horizon=horizon)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(1, 47), min_size=1, max_size=4, unique=True),
        start=st.sampled_from(["dormant", "inside", "active"]),
        complex_rate=st.booleans(),
    )
    def test_split_instants_match_unsplit_run(self, seed, cuts, start, complex_rate):
        """Switching between identical topologies at random lattice instants
        changes no sample time and moves no state by more than 1e-12 per
        row, relative, whether the attack is dormant throughout, starts
        inside the horizon or is active from t = 0."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        topo = random_connected_topology(rng, n)
        z0 = rng.normal(size=2 * n)
        dt, horizon = 0.125, 6.0  # dyadic, so every lattice instant is exact
        atk = make_attack(rng, n, eta=complex(0.1, 1.3) if complex_rate else None)
        rho = {"dormant": horizon + 1.0, "inside": rng.integers(1, 48) * dt, "active": 0.0}[start]
        atk = attacks.ZdaAttack(atk.eta, rho, atk.g0, atk.delta_z0, atk.attacked)
        whole = run_interval(topo, z0, dt, horizon, attack=atk)
        split = run_split(topo, z0, dt, [k * dt for k in sorted(cuts)], horizon, attack=atk)
        assert len(split.segments) == len(whole.segments) + len(set(cuts) - {rho / dt})
        np.testing.assert_array_equal(split.times, whole.times)
        np.testing.assert_array_equal(split.attack_values, whole.attack_values)
        gap = np.linalg.norm(split.states - whole.states, axis=1)
        rel = gap / np.linalg.norm(whole.states, axis=1)
        assert rel.max() <= 1e-12

    def test_consensus_manifold_invariant(self, topo1, topo2):
        sched = self.make_schedule(topo1, topo2)
        z0 = np.concatenate([2.0 * np.ones(4), 0.5 * np.ones(4)])
        tr = simulate(sched, z0, dt=0.1)
        err = consensus_error(tr)
        assert err["pos_disagreement"].max() < 1e-10
        assert err["vel_disagreement"].max() < 1e-10
        # equal velocities drift positions linearly
        np.testing.assert_allclose(tr.states[-1, :4], 2.0 + 0.5 * tr.times[-1], atol=1e-8)

    def test_grid_contains_switches_and_attack_start(self, topo1, topo2):
        sched = self.make_schedule(topo1, topo2)
        rng = np.random.default_rng(2)
        atk = make_attack(rng, 4)
        atk = attacks.ZdaAttack(
            eta=atk.eta, rho=3.33, g0=atk.g0, delta_z0=atk.delta_z0, attacked=atk.attacked
        )
        tr = simulate(sched, np.zeros(8) + 1.0, attack=atk, dt=0.25)
        for s in sched.switch_times:
            assert np.min(np.abs(tr.times - s)) < 1e-9
        assert np.min(np.abs(tr.times - 3.33)) < 1e-9
        # attack values switch on exactly at the start instant
        i = int(np.argmin(np.abs(tr.times - 3.33)))
        assert np.all(tr.attack_values[:i] == 0.0)
        np.testing.assert_allclose(tr.attack_values[i], np.real(atk.g0), atol=1e-14)

    def test_topology_marks_follow_schedule(self, topo1, topo2):
        sched = self.make_schedule(topo1, topo2)
        tr = simulate(sched, np.ones(8), dt=0.3)
        # a sample taken exactly at a switch instant closes the segment that
        # produced it, so it carries the outgoing topology's id
        for t, tid in zip(tr.times[1:], tr.topology_ids[1:]):
            assert tid == topology_before(sched, t)

    def test_average_velocity_invariant_without_attack(self, topo1, topo2):
        sched = self.make_schedule(topo1, topo2, horizon=30.0)
        rng = np.random.default_rng(11)
        z0 = rng.normal(size=8)
        tr = simulate(sched, z0, dt=0.05)
        mean_v = tr.states[:, 4:].mean(axis=1)
        assert np.abs(mean_v - mean_v[0]).max() < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_instability_overflow_reported_with_time(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(topo1,), dwell={topo1: 1e4}, horizon=1000.0)
        atk = attacks.ZdaAttack(
            eta=2.0, rho=0.0, g0=np.array([1e-2]), delta_z0=np.eye(8)[0], attacked=(2,)
        )
        partial = simulate(sched, np.ones(8), attack=atk, dt=5.0)
        assert partial.blowup_time is not None
        assert 0.0 < partial.blowup_time <= 1000.0
        assert partial.times[-1] < partial.blowup_time
        assert len(partial.times) > 1
        assert np.all(np.isfinite(partial.states))

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_step_rejected(self, topo1, topo2, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate(self.make_schedule(topo1, topo2), np.ones(8), dt=dt)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_partial_trace_topology_marks_follow_schedule(self, topo1, topo2):
        sched = self.make_schedule(topo1, topo2, horizon=1000.0)
        atk = attacks.ZdaAttack(
            eta=2.0, rho=0.0, g0=np.array([1e-2]), delta_z0=np.eye(8)[0], attacked=(2,)
        )
        partial = simulate(sched, np.ones(8), attack=atk, dt=0.3)
        assert partial.times[-1] < partial.blowup_time
        assert len(partial.topology_ids) == len(partial.times)
        assert partial.topology_ids[0] == 1
        for t, tid in zip(partial.times[1:], partial.topology_ids[1:]):
            assert tid == topology_before(sched, t)


class TestLattice:
    @settings(max_examples=300, deadline=None)
    @given(
        dt=st.floats(1e-3, 2.0),
        dwells=st.lists(st.tuples(st.integers(1, 40), st.sampled_from([-5e-11, 0.0, 5e-11, 0.37])),
                        min_size=2, max_size=2),
        rho=st.one_of(st.none(), st.floats(0.0, 120.0),
                      st.tuples(st.integers(1, 120), st.sampled_from([-5e-11, 0.0, 5e-11]))),
        cycles=st.floats(0.6, 3.0),
    )
    def test_samples_and_steps(self, dt, dwells, rho, cycles):
        """The one lattice of a run is the per-span rule laid end to end, bit
        for bit, over random dwells, steps and attack starts, with switches
        and starts on, or 5e-11 either side of, a lattice point."""
        path = graphs.Topology.from_edges(1, 2, [(1, 2, 1.0)])
        copies = tuple(graphs.Topology(id=k, n=2, adjacency=path.adjacency) for k in (1, 2))
        dwell = {t: (m + frac) * dt for t, (m, frac) in zip(copies, dwells)}
        sched = scheduling.SwitchingSchedule(order=copies, dwell=dwell, horizon=cycles * sum(dwell.values()))
        if isinstance(rho, tuple):
            rho = rho[0] * dt + rho[1]
        atk = None
        if rho is not None:
            atk = attacks.ZdaAttack(eta=0.1, rho=rho, g0=np.array([1e-2]), delta_z0=np.ones(4), attacked=(2,))
        tr = simulate(sched, np.ones(4), attack=atk, dt=dt)
        spans = []
        for a, b, _ in sched.intervals():
            cuts = (a, rho, b) if atk is not None and a < rho < b else (a, b)
            spans += [(s, e) for s, e in zip(cuts, cuts[1:]) if e - s > simulation._TIME_EPS]
        # the kept spans tile [0, horizon]: each starts where the one before it ended
        ends = [e for _, e in spans[:-1]] + [sched.horizon]
        spans = list(zip([0.0] + ends[:-1], ends))
        per_span = [lattice_oracle(a, b, dt) for a, b in spans]
        np.testing.assert_array_equal(tr.times, np.concatenate([[0.0]] + [t for t, _ in per_span]))
        np.testing.assert_array_equal(np.concatenate([seg.steps for seg in tr.segments]),
                                      np.concatenate([steps for _, steps in per_span]))
        # one segment per span, from the sample before its first, which is
        # the span's start, to the span's end
        bounds = np.cumsum([0] + [len(seg.steps) for seg in tr.segments])
        assert len(tr.segments) == len(spans) and tr.blowup_time is None
        assert tr.times[bounds[1:]].tolist() == [b for _, b in spans]
        assert tr.times[bounds[:-1]].tolist() == [a for a, _ in spans]
        # strictly increasing, each sample more than the merge tolerance past
        # the one before it, and every step between lattice points exactly dt
        assert np.all(np.diff(tr.times) > simulation._TIME_EPS)
        for seg, (a, b) in zip(tr.segments, spans):
            assert np.all(seg.steps[1:-1] == dt)
            assert abs(math.fsum(seg.steps) - (b - a)) <= 4 * np.spacing(b)

    @pytest.mark.parametrize("offset", [-5e-11, 5e-11])
    def test_switch_near_lattice_point_is_one_sample(self, topo1, topo2, offset):
        sched = scheduling.SwitchingSchedule(
            order=(topo1, topo2), dwell={topo1: 1.0 + offset, topo2: 2.0}, horizon=5.0
        )
        tr = simulate(sched, np.ones(8), dt=0.25)
        near = tr.times[np.abs(tr.times - 1.0) < 1e-9]
        assert near.tolist() == [sched.switch_times[0]]

    @pytest.mark.parametrize(
        "horizon, rho",
        [(4.0, 1.0 + 5e-10), (4.0, 5e-10), (3.0 + 5e-10, None)],
        ids=["start-just-past-a-switch", "start-just-past-zero", "switch-just-before-the-horizon"],
    )
    def test_spans_tile_the_horizon(self, horizon, rho):
        """A span within _TIME_EPS holds no sample; its time joins the next
        span, or at the horizon the one before, so no time goes unpropagated:
        every segment starts where the one before it ended, the first at 0
        and the last ends at the horizon, and the steps sum to the horizon."""
        path = graphs.Topology.from_edges(1, 2, [(1, 2, 1.0)])
        copies = tuple(graphs.Topology(id=k, n=2, adjacency=path.adjacency) for k in (1, 2))
        sched = scheduling.SwitchingSchedule(order=copies, dwell=dict.fromkeys(copies, 1.0), horizon=horizon)
        atk = None
        if rho is not None:
            atk = attacks.ZdaAttack(eta=0.1, rho=rho, g0=np.array([1e-2]), delta_z0=np.ones(4), attacked=(2,))
        tr = simulate(sched, np.ones(4), attack=atk, dt=0.3)
        steps = [seg.steps for seg in tr.segments]
        bounds = np.cumsum([0] + [len(s) for s in steps])
        assert tr.times[0] == 0.0 and tr.times[-1] == horizon
        # the lattice's rounding, far below the 5e-10 s a dropped span took
        assert abs(math.fsum(np.concatenate(steps)) - horizon) <= 1e-12
        for s, a, b in zip(steps, tr.times[bounds[:-1]], tr.times[bounds[1:]]):
            assert abs(math.fsum(s) - (b - a)) <= 4 * np.spacing(b)
        # the bounds are the schedule's switches, each a segment's end, with
        # the dropped span's start time gone
        assert tr.times[bounds[1:-1]].tolist() == [t for t in sched.switch_times if horizon - t > 1e-9]
        if rho is not None:  # the attack acts from the segment that held its start
            first = next(k for k, seg in enumerate(tr.segments) if seg.mode0.any())
            assert tr.times[bounds[first]] == math.floor(rho)

    def test_sample_count_capped_before_allocating(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(topo1,), dwell={topo1: 1e4}, horizon=420.0)
        with pytest.raises(ValueError, match="samples"):
            simulate(sched, np.ones(8), dt=1e-12)

    def test_expm_calls_bounded_by_segments(self, monkeypatch):
        """The plant is evaluated in closed modal form, with no exponential;
        the observer builds one steady propagator per topology's drift, and
        only the partial first and last step of a segment need their own."""
        from test_scenario_cli import stealth_doc

        sc = scenario.load_scenario(stealth_doc())
        sched = scenario.build_schedule(sc)
        atk, _ = scenario.synthesize_for(sc)  # its schedule transition takes one exponential
        calls = {}
        for mod in (simulation, observer):
            def counted(M, name=mod.__name__, expm=mod.expm):
                calls[name] = calls.get(name, 0) + 1
                return expm(M)

            monkeypatch.setattr(mod, "expm", counted)
        z0 = np.array(sc.initial_x + sc.initial_v) + atk.delta_z0
        tr = simulate(sched, z0, attack=atk, dt=sc.dt)
        observer.run_observer(tr, sc.observer_cfg)
        bound = 2 * len(tr.segments) + 4
        assert calls.get("zdalab.simulation", 0) == 0
        assert 0 < calls["zdalab.observer"] <= bound

    def test_segments_carry_the_mode_in_closed_form(self, topo1, topo2):
        """Each active segment starts its attack mode at e^{eta (t0 - rho)}
        in the mode's real form; a dormant segment holds the mode at zero."""
        rng = np.random.default_rng(4)
        atk = make_attack(rng, 4, eta=complex(0.05, 0.7))
        atk = attacks.ZdaAttack(atk.eta, 3.1, atk.g0, atk.delta_z0, atk.attacked)
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: 1.3, topo2: 0.9}, horizon=9.0)
        tr = simulate(sched, np.ones(8), attack=atk, dt=0.2)
        np.testing.assert_allclose(tr.Eta, [[0.05, 0.7], [-0.7, 0.05]])
        assert tr.G.shape == (8, 2)
        row = 0
        for seg in tr.segments:  # each starts at the sample before its first
            t0, row = tr.times[row], row + len(seg.steps)
            if t0 < atk.rho:
                assert seg.mode0.tolist() == [0.0, 0.0]
                continue
            mu = np.exp(atk.eta * (t0 - atk.rho))
            np.testing.assert_allclose(seg.mode0, [mu.real, -mu.imag], rtol=1e-14)


def closed_form_oracle(tr) -> np.ndarray:
    """Every sample of the trace evaluated from its segment's start sample in
    the trace, one segment and one sample at a time: in the modal closed form
    of the segment's Laplacian and mode, or for a resonant drift as the
    augmented exponential.  A segment starts at the sample before its first."""
    Eta, G = tr.Eta, tr.G
    n, out, row = tr.n, tr.states.copy(), 0
    for seg in tr.segments:
        rows = np.arange(row + 1, row + 1 + len(seg.steps))
        t0, z0, m0, d = tr.times[row], tr.states[row], seg.mode0, len(seg.mode0)
        L = seg.topology.L
        lam, Q = np.linalg.eigh(L)
        eta = complex(Eta[0, 0], -Eta[1, 0] if d == 2 else 0.0) if d else 0.0
        if d and np.any(np.abs(eta**2 + lam) <= simulation.RES_TOL * np.maximum(1.0, np.maximum(abs(eta) ** 2, lam))):
            A = np.block([[assemble_A(L), G], [np.zeros((d, 2 * n)), Eta]])
            s0 = np.concatenate([z0, m0])
            for r in rows:
                out[r] = (scipy.linalg.expm(A * (tr.times[r] - t0)) @ s0)[: 2 * n]
        else:
            mu0 = m0[0] - 1j * m0[1] if d == 2 else (m0[0] if d else 0.0)
            c = Q.T @ (G[n:] @ np.array([1.0, 1j])[:d]) / (eta**2 + lam) if d else np.zeros(n)
            omega = np.sqrt(np.maximum(lam, 0.0))
            xi0, nu0 = Q.T @ z0[:n] - np.real(c * mu0), Q.T @ z0[n:] - np.real(c * eta * mu0)
            for r in rows:
                t = tr.times[r] - t0
                sin = np.array([math.sin(w * t) / w if w > 0.0 else t for w in omega])
                cos = np.cos(omega * t)
                forced = c * mu0 * np.exp(eta * t) if mu0 else np.zeros(n)
                out[r, :n] = Q @ (xi0 * cos + nu0 * sin + np.real(forced))
                out[r, n:] = Q @ (nu0 * cos - lam * xi0 * sin + np.real(forced * eta))
        row += len(rows)
    return out


def row_gap(X, Y) -> float:
    """Largest entry of X - Y relative to max(1, ||row of Y||_inf)."""
    return float((np.abs(X - Y).max(axis=1) / np.maximum(1.0, np.abs(Y).max(axis=1))).max())


def fill_cases():
    """(name, schedule, z0, attack, dt) runs whose segments differ in
    topology, attack activity, mode and duration."""
    from test_scenario_cli import stealth_doc

    sc = scenario.load_scenario(stealth_doc())
    atk, _ = scenario.synthesize_for(sc)
    yield "stealth-n4", sc.schedule, np.array(sc.initial_x + sc.initial_v) + atk.delta_z0, atk, sc.dt

    rng = np.random.default_rng(17)
    topologies = tuple(random_connected_topology(rng, 4, id=k) for k in (1, 2, 3))
    sched = scheduling.SwitchingSchedule(order=topologies, dwell=dict(zip(topologies, (1.3, 0.9, 2.05))), horizon=40.0)
    atk = make_attack(rng, 4, eta=complex(0.04, 0.9))
    g0 = atk.g0 + 1j * rng.uniform(-1.0, 1.0, len(atk.g0)) * 1e-2
    atk = attacks.ZdaAttack(atk.eta, 13.37, g0, atk.delta_z0, atk.attacked)
    yield "complex-n4", sched, rng.normal(size=8), atk, 0.07

    rng = np.random.default_rng(64)
    n, horizon = 64, 52.5
    topologies = []
    for tid in (1, 2):
        a = random_connected_topology(rng, n).adjacency
        a = a * ((n / 2) / a.sum(axis=1).max())
        topologies.append(graphs.Topology(id=tid, n=n, adjacency=a))
    tau = np.pi / 2 + 0.2
    sched = scheduling.SwitchingSchedule(order=tuple(topologies), dwell=dict.fromkeys(topologies, tau), horizon=horizon)
    atk = attacks.ZdaAttack(eta=0.1, rho=horizon / 2, g0=np.array([1.0, -0.5]),
                            delta_z0=1e-3 * np.eye(2 * n)[0], attacked=(2, 3))
    yield "n64", sched, rng.uniform(0.5, 4.5, 2 * n), atk, 0.05

    star, atk = star_resonant_attack()
    copies = tuple(graphs.Topology(id=k, n=4, adjacency=star.adjacency) for k in (1, 2))
    sched = scheduling.SwitchingSchedule(order=copies, dwell=dict(zip(copies, (3.3, 4.1))), horizon=30.0)
    yield "resonant", sched, np.concatenate([np.full(4, 0.3), np.full(4, -0.1)]), atk, 0.5


FILL_CASES = ("stealth-n4", "complex-n4", "n64", "resonant")


def fill_case(name) -> tuple:
    return next(case[1:] for case in fill_cases() if case[0] == name)


class TestBatchedFill:
    """The segment-end pass and the per-drift fill against a per-segment,
    per-sample evaluation from the trace's own start samples."""

    @pytest.mark.parametrize("case", FILL_CASES)
    def test_states_match_per_segment_closed_form(self, case):
        tr = simulate(*fill_case(case))
        assert len({seg.topology for seg in tr.segments}) >= 2
        assert row_gap(tr.states, closed_form_oracle(tr)) <= 1e-13

    @pytest.mark.parametrize("case, tol", [("stealth-n4", 1e-15), ("complex-n4", 1e-15),
                                           ("resonant", 1e-14), ("n64", 1e-14)])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_blocks_move_no_state_beyond_rounding(self, case, tol, rows, monkeypatch):
        """Blocks of one and seven rows give the states of the default
        blocks to rounding.  The block's shape can change how the matrix
        products round, by 9 ulps of a row over the 64-term products at
        n = 64, and a resonant block is one stack of exponentials, whose
        Pade degree follows its largest member."""
        whole = simulate(*fill_case(case))
        monkeypatch.setattr(simulation, "ROW_BLOCK_VALUES", rows * whole.states.shape[1])
        blocked = simulate(*fill_case(case))
        np.testing.assert_array_equal(blocked.times, whole.times)
        assert row_gap(blocked.states, whole.states) <= tol


@contextlib.contextmanager
def closes_its_files():
    """Fails when the block leaves a descriptor open, or leaves a file
    object for the garbage collector to close."""

    def lowest_free_fd() -> int:
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    fd = lowest_free_fd()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert lowest_free_fd() == fd


def no_fork():
    raise AssertionError("the trace writer forked")


@pytest.fixture
def one_process(monkeypatch, tmp_path):
    """Fails the test if the trace writer forks; temporary files go to
    tmp_path / "tmp"."""
    monkeypatch.setattr(os, "fork", no_fork)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))


@pytest.fixture(scope="module")
def stealth_trace():
    """A 3,001-row run of the stealth scenario, with residuals a billionth
    of its observed positions."""
    from test_scenario_cli import stealth_doc

    sc = scenario.load_scenario(stealth_doc())
    atk, _ = scenario.synthesize_for(sc)
    z0 = np.array(sc.initial_x + sc.initial_v) + atk.delta_z0
    sched = scenario.build_schedule(sc)
    tr = simulate(sched, z0, attack=atk, dt=0.02)
    return tr, tr.states[:, [0]] * 1e-9


class TestTraceExports:
    def test_consensus_error_examples(self):
        tr = simulation.Trace(
            times=np.array([0.0]),
            states=np.array([[0.0, 1.0, 0.0, 0.0]]),
            attack_values=np.zeros((1, 0)),
            topology_ids=np.array([1]),
            attacked=(),
        )
        err = consensus_error(tr)
        assert err["pos_disagreement"][0] == 1.0
        assert err["vel_disagreement"][0] == 0.0

    def test_csv_header_and_determinism(self, tmp_path, topo1, topo2):
        sched = scheduling.SwitchingSchedule(
            order=(topo1, topo2), dwell={topo1: 2.0, topo2: 2.0}, horizon=6.0
        )
        z0 = np.arange(8.0)
        tr = simulate(sched, z0, dt=0.5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        simulation.trace_to_csv(tr, p1, (1,))
        simulation.trace_to_csv(simulate(sched, z0, dt=0.5), p2, (1,))
        header = p1.read_text().splitlines()[0]
        assert header == "t,topology,x1,x2,x3,x4,v1,v2,v3,v4,y1"
        assert p1.read_bytes() == p2.read_bytes()

    def test_writer_matches_row_writer_on_simulated_trace(self, tmp_path, stealth_trace, one_process):
        """A stealth run of 3,001 rows spans many default blocks; one process
        writes them and leaves no temporary file or descriptor."""
        tr, res = stealth_trace
        cols = 2 + tr.states.shape[1] + 2 + len(tr.attacked)
        assert len(tr.times) > 2 * (simulation.ROW_BLOCK_VALUES // cols)
        with closes_its_files():
            simulation.trace_to_csv(tr, tmp_path / "new.csv", (1,), residuals=res)
        assert not any((tmp_path / "tmp").iterdir())
        trace_to_csv_oracle(tr, tmp_path / "old.csv", (1,), residuals=res)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_negative_zero_position_prints_alike_in_x_and_y(self, tmp_path, topo1):
        """A y* cell repeats its x* cell's text: an observed position of
        exactly -0.0 prints as "-0" in both, where an output matrix product
        would give +0.0."""
        sched = scheduling.SwitchingSchedule(order=(topo1,), dwell={topo1: 5.0}, horizon=1.0)
        tr = simulate(sched, np.array([-0.0, 2, -0.0, 4, 1, 2, 3, 4]), dt=0.5)
        simulation.trace_to_csv(tr, tmp_path / "zero.csv", (3, 1))
        header, row = (line.split(",") for line in (tmp_path / "zero.csv").read_text().splitlines()[:2])
        cells = dict(zip(header, row))
        assert (cells["x1"], cells["y1"], cells["x3"], cells["y3"]) == ("-0", "-0", "-0", "-0")
        assert header[-2:] == ["y1", "y3"]

    def test_topology_ids_print_as_integers(self, tmp_path):
        """Every int64 id prints as "%d", also those a float does not hold."""
        ids = np.array([-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 10**17 - 1, 10**17, 10**17 + 1,
                        -(10**17) + 1, -(10**17), -(10**17) - 1, 2**53 - 1, 2**53, 2**53 + 1,
                        -(2**53) - 1, 0, 1, -1, 7])
        rows = len(ids)
        tr = simulation.Trace(times=np.zeros(rows), states=np.zeros((rows, 2)),
                              attack_values=np.zeros((rows, 0)), topology_ids=ids, attacked=())
        simulation.trace_to_csv(tr, tmp_path / "ids.csv", (1,))
        lines = (tmp_path / "ids.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["%d" % i for i in ids.tolist()]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_writer_matches_row_writer(self, tmp_path_factory, data):
        """Byte-identical to the row-at-a-time writer on edge values, observed
        and attack widths, with and without residuals, and on one to many
        blocks of rows, all in one process."""
        value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-(10**6), 10**6).map(float))
        n = data.draw(st.integers(1, 4))
        observed = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=min(n, 3)))))
        attacked = tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=min(n, 3)))))
        rows = data.draw(st.integers(0, 30))
        width = len(observed)
        tr = simulation.Trace(
            times=data.draw(arrays(np.float64, rows, elements=value)),
            states=data.draw(arrays(np.float64, (rows, 2 * n), elements=value)),
            attack_values=data.draw(arrays(np.float64, (rows, len(attacked)), elements=value)),
            topology_ids=data.draw(arrays(np.int64, rows, elements=st.integers(-(2**63), 2**63 - 1))),
            attacked=attacked,
        )
        residuals = None
        if data.draw(st.booleans()):
            residuals = data.draw(arrays(np.float64, (rows, width), elements=value))
        # blocks of one value up to the whole trace
        block = data.draw(st.integers(1, 64))
        out = tmp_path_factory.getbasetemp() / "csv"
        out.mkdir(exist_ok=True)
        with mock.patch.object(simulation, "ROW_BLOCK_VALUES", block), mock.patch.object(os, "fork", no_fork):
            simulation.trace_to_csv(tr, out / "new.csv", observed, residuals=residuals)
        trace_to_csv_oracle(tr, out / "old.csv", observed, residuals=residuals)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def kernel_text(values):
    """The CSV kernel's text for each value, "?" where it defers to
    format(), and its mask of the values it formats itself."""
    words, ok = simulation._format_slots(values, np.array([ord("\n") << 56]))
    words[:, ~ok] = np.frombuffer(b"?".ljust(31, b"\0") + b"\n", np.int64)[:, None]
    return words.T.tobytes().translate(None, b"\0").decode().split("\n")[:-1], ok


def rests_on_rounding(v: float) -> bool:
    """Whether |v| 10^(16-X), X the decimal exponent of v, lies within
    2^-30 of a half-integer or rounds up to 10^17: the two cases where the
    kernel's 17 digits would rest on how it rounds."""
    scaled = abs(Fraction(v)) / Fraction(10) ** math.floor(math.log10(abs(v))) * 10**16
    while scaled >= 10**17:
        scaled /= 10
    while scaled < 10**16:
        scaled *= 10
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 2**30) or scaled >= 10**17 - Fraction(1, 2)


class TestCsvKernel:
    def test_matches_format(self):
        """At least 10^5 values: random bit patterns, the writer tests' edge
        values, each 10^k from 1e-45 to 1e45 and its two neighbours, dyadic
        values m / 2^j that sit exactly half-way between two 17-digit
        decimals, and lattice times k * 0.05.  Where the kernel formats a
        value, it reads as format(v, ".17g").  It defers every value that
        is not finite, subnormal or out of its exponent range, and every
        exact tie; any other value it defers rests on a rounding."""
        rng = np.random.default_rng(23)
        powers = [float(f"1e{k}") for k in range(-45, 46)]
        ties = []
        for j in range(2, 23):  # m odd: m 5^j has 18 digits, the last a 5
            lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
            ties += [m / 2**j for m in (rng.integers(lo, hi, 200) | 1).tolist()]
        values = np.concatenate([
            rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64),
            EDGE_VALUES, [math.inf, -math.inf, math.nan],
            powers, np.nextafter(powers, math.inf), np.nextafter(powers, -math.inf),
            ties, np.negative(ties),
            np.arange(40_000) * 0.05,
        ])
        assert len(values) >= 10**5
        text, ok = kernel_text(values)
        want = [format(v, ".17g") for v in values.tolist()]
        assert [t for t, k in zip(text, ok) if k] == [w for w, k in zip(want, ok) if k]
        lo, hi = simulation._CSV_EXPONENTS
        a = np.abs(values)
        in_range = (a == 0.0) | ((a >= 10.0**lo) & (a < 10.0 ** (hi + 1)))
        assert not ok[~in_range].any()
        deferred = values[in_range & ~ok].tolist()
        assert set(ties + np.negative(ties).tolist()) <= set(deferred)
        assert all(rests_on_rounding(v) for v in deferred)
