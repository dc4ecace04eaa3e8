import contextlib
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zdalab import attacks, graphs, observer, scenario, scheduling, simulation
from zdalab.simulation import (
    SimulationError,
    assemble_A,
    assemble_C,
    attack_injection,
    consensus_error,
    simulate,
)

from conftest import random_connected_topology, trace_to_csv_oracle


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
    sched = scheduling.SwitchingSchedule(order=(topo.id,), dwell={topo.id: 1e9}, horizon=duration)
    return simulate([topo], sched, z0, attack=attack, dt=dt)


def run_split(topo, z0, dt, splits, duration, attack=None):
    """``simulate`` over ``duration`` with copies of ``topo`` (identical
    weights, ids 1, 2, ...) handing over at each of the ascending ``splits``."""
    ids = tuple(range(1, len(splits) + 2))
    dwell = dict(zip(ids, np.diff([0.0, *splits]).tolist() + [1e9]))
    copies = [graphs.Topology(id=k, n=topo.n, adjacency=topo.adjacency) for k in ids]
    sched = scheduling.SwitchingSchedule(order=ids, dwell=dwell, horizon=duration)
    return simulate(copies, sched, z0, attack=attack, dt=dt)


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
    L = graphs.laplacian(random_connected_topology(rng, n))
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
        A = assemble_A(graphs.laplacian(topo2))
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
        assert not any(seg.attack_active for seg in dormant.segments)

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
        A = assemble_A(graphs.laplacian(topo))
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
        A = assemble_A(graphs.laplacian(topo))
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
        A = assemble_A(graphs.laplacian(star))
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
        assert [seg.attack_active for seg in halves.segments] == [True, True]
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
    def make_schedule(self, horizon=10.0):
        tau = np.pi / 2 + 0.2
        return scheduling.SwitchingSchedule(order=(1, 2), dwell={1: tau, 2: tau}, horizon=horizon)

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
        sched = self.make_schedule()
        z0 = np.concatenate([2.0 * np.ones(4), 0.5 * np.ones(4)])
        tr = simulate([topo1, topo2], sched, z0, dt=0.1)
        err = consensus_error(tr)
        assert err["pos_disagreement"].max() < 1e-10
        assert err["vel_disagreement"].max() < 1e-10
        # equal velocities drift positions linearly
        np.testing.assert_allclose(tr.states[-1, :4], 2.0 + 0.5 * tr.times[-1], atol=1e-8)

    def test_grid_contains_switches_and_attack_start(self, topo1, topo2):
        sched = self.make_schedule()
        rng = np.random.default_rng(2)
        atk = make_attack(rng, 4)
        atk = attacks.ZdaAttack(
            eta=atk.eta, rho=3.33, g0=atk.g0, delta_z0=atk.delta_z0, attacked=atk.attacked
        )
        tr = simulate([topo1, topo2], sched, np.zeros(8) + 1.0, attack=atk, dt=0.25)
        for s in sched.switch_times:
            assert np.min(np.abs(tr.times - s)) < 1e-9
        assert np.min(np.abs(tr.times - 3.33)) < 1e-9
        # attack values switch on exactly at the start instant
        i = int(np.argmin(np.abs(tr.times - 3.33)))
        assert np.all(tr.attack_values[:i] == 0.0)
        np.testing.assert_allclose(tr.attack_values[i], np.real(atk.g0), atol=1e-14)

    def test_topology_marks_follow_schedule(self, topo1, topo2):
        sched = self.make_schedule()
        tr = simulate([topo1, topo2], sched, np.ones(8), dt=0.3)
        # a sample taken exactly at a switch instant closes the segment that
        # produced it, so it carries the outgoing topology's id
        for t, tid in zip(tr.times[1:], tr.topology_ids[1:]):
            assert tid == scheduling.switching_signal(sched, t - 1e-9)

    def test_average_velocity_invariant_without_attack(self, topo1, topo2):
        sched = self.make_schedule(horizon=30.0)
        rng = np.random.default_rng(11)
        z0 = rng.normal(size=8)
        tr = simulate([topo1, topo2], sched, z0, dt=0.05)
        mean_v = tr.states[:, 4:].mean(axis=1)
        assert np.abs(mean_v - mean_v[0]).max() < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_instability_overflow_reported_with_time(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(1,), dwell={1: 1e4}, horizon=1000.0)
        atk = attacks.ZdaAttack(
            eta=2.0, rho=0.0, g0=np.array([1e-2]), delta_z0=np.eye(8)[0], attacked=(2,)
        )
        with pytest.raises(SimulationError) as err:
            simulate([topo1], sched, np.ones(8), attack=atk, dt=5.0)
        assert err.value.blowup_time is not None
        assert 0.0 < err.value.blowup_time <= 1000.0
        partial = err.value.trace
        assert len(partial.times) > 1
        assert np.all(np.isfinite(partial.states))

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_step_rejected(self, topo1, topo2, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate([topo1, topo2], self.make_schedule(), np.ones(8), dt=dt)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_partial_trace_topology_marks_follow_schedule(self, topo1, topo2):
        sched = self.make_schedule(horizon=1000.0)
        atk = attacks.ZdaAttack(
            eta=2.0, rho=0.0, g0=np.array([1e-2]), delta_z0=np.eye(8)[0], attacked=(2,)
        )
        with pytest.raises(SimulationError) as err:
            simulate([topo1, topo2], sched, np.ones(8), attack=atk, dt=0.3)
        partial = err.value.trace
        assert partial.times[-1] < err.value.blowup_time
        assert len(partial.topology_ids) == len(partial.times)
        assert partial.topology_ids[0] == 1
        for t, tid in zip(partial.times[1:], partial.topology_ids[1:]):
            assert tid == scheduling.switching_signal(sched, t - 1e-9)


class TestLattice:
    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.0, 1e3),
        span=st.floats(3e-9, 50.0),
        dt=st.floats(1e-3, 10.0),
    )
    def test_samples_and_steps(self, a, span, dt):
        b = a + span
        times, steps = simulation._lattice(a, b, dt)
        assert times[-1] == b
        # strictly increasing, each sample more than the merge tolerance past
        # the one before it (the first past a)
        assert np.all(np.diff(times, prepend=a) > simulation._TIME_EPS)
        assert np.all(steps[1:-1] == dt)
        assert abs(math.fsum(steps) - (b - a)) <= 4 * np.spacing(b)

    @pytest.mark.parametrize("offset", [-5e-11, 5e-11])
    def test_switch_near_lattice_point_is_one_sample(self, topo1, topo2, offset):
        sched = scheduling.SwitchingSchedule(
            order=(1, 2), dwell={1: 1.0 + offset, 2: 2.0}, horizon=5.0
        )
        tr = simulate([topo1, topo2], sched, np.ones(8), dt=0.25)
        near = tr.times[np.abs(tr.times - 1.0) < 1e-9]
        assert near.tolist() == [sched.switch_times[0]]

    def test_sample_count_capped_before_allocating(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(1,), dwell={1: 1e4}, horizon=420.0)
        with pytest.raises(ValueError, match="samples"):
            simulate([topo1], sched, np.ones(8), dt=1e-12)

    def test_expm_calls_bounded_by_segments(self, monkeypatch):
        """The plant is evaluated in closed modal form, with no exponential;
        the observer builds one steady propagator per (topology, attack
        active) drift, and only the partial first and last step of a segment
        need their own."""
        from test_scenario_cli import stealth_doc

        calls = {}
        for mod in (simulation, observer):
            def counted(M, name=mod.__name__, expm=mod.expm):
                calls[name] = calls.get(name, 0) + 1
                return expm(M)

            monkeypatch.setattr(mod, "expm", counted)
        sc = scenario.load_scenario(stealth_doc())
        sched = scenario.build_schedule(sc)
        atk, _ = scenario.synthesize_for(sc)
        z0 = np.array(sc.initial_x + sc.initial_v) + atk.delta_z0
        tr = simulate(sc.topologies, sched, z0, attack=atk, dt=sc.dt, observed=sc.observed)
        observer.run_observer(tr, sc.topologies, sched, sc.observer_cfg)
        bound = 2 * len(tr.segments) + 4
        assert calls.get("zdalab.simulation", 0) == 0
        assert 0 < calls["zdalab.observer"] <= bound

    def test_segments_carry_the_mode_in_closed_form(self, topo1, topo2):
        """Each active segment starts its attack mode at e^{eta (t0 - rho)}
        in the mode's real form; dormant segments carry empty blocks."""
        rng = np.random.default_rng(4)
        atk = make_attack(rng, 4, eta=complex(0.05, 0.7))
        atk = attacks.ZdaAttack(atk.eta, 3.1, atk.g0, atk.delta_z0, atk.attacked)
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.3, 2: 0.9}, horizon=9.0)
        tr = simulate([topo1, topo2], sched, np.ones(8), attack=atk, dt=0.2)
        for seg in tr.segments:
            if not seg.attack_active:
                assert seg.Eta.shape == (0, 0) and seg.G.shape == (8, 0)
                assert seg.mode0.shape == (0,)
                continue
            mu = np.exp(atk.eta * (seg.t0 - atk.rho))
            np.testing.assert_allclose(seg.mode0, [mu.real, -mu.imag], rtol=1e-14)
            np.testing.assert_allclose(seg.Eta, [[0.05, 0.7], [-0.7, 0.05]])


def counting_fork(calls, fork=os.fork):
    """An os.fork that records each call in ``calls``."""

    def counted():
        calls.append(None)
        return fork()

    return counted


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


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """The trace writer's os.fork calls, in a process that may run on two
    CPUs and keeps its temporary files in tmp_path / "tmp"."""
    calls = []
    monkeypatch.setattr(os, "fork", counting_fork(calls))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return calls


@pytest.fixture(scope="module")
def stealth_trace():
    """A 3,001-row run of the stealth scenario, with residuals a billionth
    of its outputs."""
    from test_scenario_cli import stealth_doc

    sc = scenario.load_scenario(stealth_doc())
    atk, _ = scenario.synthesize_for(sc)
    z0 = np.array(sc.initial_x + sc.initial_v) + atk.delta_z0
    sched = scenario.build_schedule(sc)
    tr = simulate(sc.topologies, sched, z0, attack=atk, dt=0.02, observed=sc.observed)
    return tr, tr.outputs * 1e-9


class TestTraceExports:
    def test_consensus_error_examples(self):
        tr = simulation.Trace(
            times=np.array([0.0]),
            states=np.array([[0.0, 1.0, 0.0, 0.0]]),
            outputs=np.array([[0.0]]),
            attack_values=np.zeros((1, 0)),
            topology_ids=np.array([1]),
            observed=(1,),
            attacked=(),
        )
        err = consensus_error(tr)
        assert err["pos_disagreement"][0] == 1.0
        assert err["vel_disagreement"][0] == 0.0

    def test_csv_header_and_determinism(self, tmp_path, topo1, topo2):
        sched = scheduling.SwitchingSchedule(
            order=(1, 2), dwell={1: 2.0, 2: 2.0}, horizon=6.0
        )
        z0 = np.arange(8.0)
        tr = simulate([topo1, topo2], sched, z0, dt=0.5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        simulation.trace_to_csv(tr, p1)
        simulation.trace_to_csv(simulate([topo1, topo2], sched, z0, dt=0.5), p2)
        header = p1.read_text().splitlines()[0]
        assert header == "t,topology,x1,x2,x3,x4,v1,v2,v3,v4,y1"
        assert p1.read_bytes() == p2.read_bytes()

    def test_writer_matches_row_writer_on_simulated_trace(self, tmp_path, stealth_trace, forks):
        """A stealth run of 3,001 rows spans more than two default blocks,
        so the writer forks once; no temporary file or descriptor is left."""
        tr, res = stealth_trace
        cols = 2 + tr.states.shape[1] + 2 * len(tr.observed) + len(tr.attacked)
        assert len(tr.times) > 2 * (simulation.CSV_BLOCK_VALUES // cols)
        with closes_its_files():
            simulation.trace_to_csv(tr, tmp_path / "new.csv", residuals=res)
        assert len(forks) == 1
        assert not any((tmp_path / "tmp").iterdir())
        trace_to_csv_oracle(tr, tmp_path / "old.csv", residuals=res)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_one_cpu_writes_serially(self, tmp_path, stealth_trace, forks, monkeypatch):
        """With one CPU to run on, the parent writes every row itself."""
        tr, res = stealth_trace
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        simulation.trace_to_csv(tr, tmp_path / "new.csv", residuals=res)
        assert forks == []
        trace_to_csv_oracle(tr, tmp_path / "old.csv", residuals=res)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_failed_fork_writes_serially(self, tmp_path, stealth_trace, forks, monkeypatch):
        """A fork refused for want of processes falls back to the serial write."""
        tr, res = stealth_trace

        def fork():
            forks.append(None)
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", fork)
        simulation.trace_to_csv(tr, tmp_path / "new.csv", residuals=res)
        assert len(forks) == 1
        trace_to_csv_oracle(tr, tmp_path / "old.csv", residuals=res)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_failing_child_raises_after_it_is_reaped(self, tmp_path, stealth_trace, forks,
                                                      monkeypatch):
        """A child that dies before writing its half is an OSError, raised
        after the temporary file is closed (and, as conftest checks after
        every test, the child reaped)."""
        tr, res = stealth_trace
        counted = os.fork

        def fork():
            pid = counted()
            if pid == 0:
                os._exit(3)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        with closes_its_files(), pytest.raises(OSError, match="exited with code 3"):
            simulation.trace_to_csv(tr, tmp_path / "new.csv", residuals=res)
        assert len(forks) == 1
        assert not any((tmp_path / "tmp").iterdir())

    def test_error_in_parent_half_reaps_the_child(self, tmp_path, stealth_trace, forks,
                                                  monkeypatch):
        """An exception in the parent's half propagates after the temporary
        file is closed (and, as conftest checks, the child reaped)."""
        tr, res = stealth_trace
        counted, hstack, children = os.fork, np.hstack, []

        def fork():
            pid = counted()
            children.append(pid)
            return pid

        def parent_hstack(*args, **kwargs):
            # the child's copy of `children` holds only its own 0
            if any(children):
                raise RuntimeError("parent half failed")
            return hstack(*args, **kwargs)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(simulation.np, "hstack", parent_hstack)
        with closes_its_files(), pytest.raises(RuntimeError, match="parent half failed"):
            simulation.trace_to_csv(tr, tmp_path / "new.csv", residuals=res)
        assert len(forks) == 1
        assert not any((tmp_path / "tmp").iterdir())

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_writer_matches_row_writer(self, tmp_path_factory, data):
        """Byte-identical to the row-at-a-time writer on edge values, output
        and attack widths, with and without residuals, and on one to many
        blocks of rows, so on both sides of the writer's fork."""
        edge = st.sampled_from(
            [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
             1.7976931348623157e308, 3.0, -7.0, 2.0**53, 1e16, 0.1, 1 / 3]
        )
        value = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False),
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
            outputs=data.draw(arrays(np.float64, (rows, width), elements=value)),
            attack_values=data.draw(arrays(np.float64, (rows, len(attacked)), elements=value)),
            topology_ids=data.draw(arrays(np.int64, rows, elements=st.integers(-(2**63), 2**63 - 1))),
            observed=observed,
            attacked=attacked,
        )
        residuals = None
        if data.draw(st.booleans()):
            residuals = data.draw(arrays(np.float64, (rows, width), elements=value))
        # blocks of one value up to the whole trace
        block = data.draw(st.integers(1, 64))
        out = tmp_path_factory.getbasetemp() / "csv"
        out.mkdir(exist_ok=True)
        forks = []
        with mock.patch.object(simulation, "CSV_BLOCK_VALUES", block), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True), \
                mock.patch.object(os, "fork", counting_fork(forks)):
            simulation.trace_to_csv(tr, out / "new.csv", residuals=residuals)
        # one block is written serially, two or more split across a fork
        cols = 2 + 2 * n + width * (1 + (residuals is not None)) + len(attacked)
        assert len(forks) == (rows > max(1, block // cols))
        trace_to_csv_oracle(tr, out / "old.csv", residuals=residuals)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
