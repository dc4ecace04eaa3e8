import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from zdalab import attacks, graphs, scheduling, simulation
from zdalab.attacks import (
    StealthCertificate,
    SynthesisError,
    ZdaAttack,
    attack_from_json,
    attack_to_json,
    rosenbrock_pencil,
    synthesize,
    unobservable_subspace,
)
from zdalab.simulation import assemble_A, assemble_C, attack_injection

from conftest import (
    TOPO1,
    TOPO2,
    TOPO3,
    _invariant_zero_candidates,
    pairwise_uncovered,
    predicted_state,
    random_connected_topology,
    random_topology_set,
    stacked_pencil,
    stacked_pencil_has_attack,
)


def pbh_unobservable_dim(A, C, tol=1e-8):
    """Independent rank oracle: dimension lost at eigenvalues where the
    stacked matrix [lambda I - A; C] drops rank."""
    lost = 0
    vals = np.linalg.eigvals(A)
    seen = []
    for lam in vals:
        if any(abs(lam - s) < 1e-9 for s in seen):
            continue
        seen.append(lam)
        M = np.vstack([lam * np.eye(A.shape[0]) - A, C])
        s = np.linalg.svd(M, compute_uv=False)
        lost += int(np.sum(s < tol * s[0]))
    return lost


def symmetric_topology(rng, n, tid, swaps):
    """Random connected topology on n agents, averaged with its image under
    the permutation that swaps each agent pair in ``swaps``, so that the
    permutation commutes with its Laplacian."""
    a = random_connected_topology(rng, n).adjacency
    p = np.arange(n)
    for i, j in swaps:
        p[[i - 1, j - 1]] = p[[j - 1, i - 1]]
    return graphs.Topology(id=tid, n=n, adjacency=(a + a[np.ix_(p, p)]) / 2)


def swap_family(rng, n, count):
    """``count`` topologies on n agents that commute with the agent swap
    (2 3) and, in three of five draws at n = 5, with (4 5) too.  The
    positions the swaps negate hide from agent 1 and from every agent the
    swaps fix.  Each later topology keeps one direction of that subspace on
    which every Laplacian difference vanishes, or, in about one draw of
    three, none.
    - One swap: a later topology relinks the agents the swap fixes; in one
      draw of three it also adds one weight to a fixed agent's links to 2
      and 3, which shifts the eigenvalue of e2 - e3.
    - Two swaps, on a complete graph with one weight in [1.5, 2.5] per swap
      orbit: on u = e2 - e3 and w = e4 - e5 the Laplacian reads
      [[deg 2 + a23, a25 - a24], [a25 - a24, deg 4 + a45]].  Adding d1 to
      the orbit (1 2)(1 3), d4 to (1 4)(1 5) and e to (2 5)(3 4) adds
      [[d1 + e, e], [e, d4 + e]].  With e = mu p q, d1 = mu p^2 - e and
      d4 = mu q^2 - e that is mu (p, q)(p, q)^T, which vanishes on the
      drawn direction (-q, p)."""
    if n == 5 and rng.random() < 0.6:
        a = np.zeros((5, 5))
        orbits = [[(0, 1), (0, 2)], [(0, 3), (0, 4)], [(1, 4), (2, 3)], [(1, 3), (2, 4)], [(1, 2)], [(3, 4)]]
        for orbit in orbits:
            w = rng.uniform(1.5, 2.5)
            for i, j in orbit:
                a[i, j] = a[j, i] = w
        p, q = np.cos(theta := rng.uniform(0.0, np.pi)), np.sin(theta)
        adjs = [a]
        for _ in range(count - 1):
            mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6)
            e = mu * p * q
            d1, d4 = mu * p * p - e, mu * q * q - e
            if rng.random() < 1 / 3:
                d1, d4, e = rng.uniform(-0.6, 0.6, 3)
            b = a.copy()
            for orbit, d in zip(orbits, (d1, d4, e)):
                for i, j in orbit:
                    b[i, j] += d
                    b[j, i] += d
            adjs.append(b)
    else:
        a = symmetric_topology(rng, n, 1, [(2, 3)]).adjacency
        fixed = [i for i in range(n) if i not in (1, 2)]
        adjs = [a]
        for _ in range(count - 1):
            b = a.copy()
            for x, i in enumerate(fixed):
                for j in fixed[x + 1:]:
                    if rng.random() < 0.6:
                        b[i, j] = b[j, i] = rng.uniform(0.2, 2.0)
            if rng.random() < 1 / 3:
                i, d = rng.choice(fixed), rng.uniform(0.2, 1.0)
                b[i, 1:3] += d
                b[1:3, i] += d
            adjs.append(b)
    return [graphs.Topology(id=k, n=n, adjacency=b) for k, b in enumerate(adjs, 1)]


def _kernel(A, tol=1e-10):
    _, s, Vh = np.linalg.svd(A)
    return Vh[int(np.sum(s > tol)):].T


def intersection_of_invariant_subspaces(L_list, M):
    """Oracle for the per-topology answer: the intersection over r of the
    largest L_r-invariant subspace X_r of ker E_M, each reached by
    X_r <- X_r ker((I - X_r X_r^T) L_r X_r).  Switching may map it out of
    itself."""
    n = len(L_list[0])
    X = np.eye(n)[:, [i for i in range(n) if i + 1 not in M]]
    for L in L_list:
        Xr = np.eye(n)[:, [i for i in range(n) if i + 1 not in M]]
        while Xr.shape[1]:
            K = _kernel(L @ Xr - Xr @ (Xr.T @ (L @ Xr)))
            if K.shape[1] == Xr.shape[1]:
                break
            Xr = Xr @ K
        if X.shape[1]:
            X = X @ _kernel(X - Xr @ (Xr.T @ X))
    return X


def leaves(X, L):
    """How far L maps the orthonormal columns of X out of their span."""
    return np.linalg.norm(L @ X - X @ (X.T @ (L @ X)))


def eta_scan_oracle(topos, M, K, grid_points=100, V=None):
    """Brute-force existence test: scan candidate rates and check that the
    stacked pencil kernel carries a nonzero signal component.  With V (a
    delayed attack's hidden subspace, or the identity at rho = 0) the state
    is held to the range of V, and the candidates add every finite zero of
    that restricted pencil, real or complex, below 1e3 in modulus: scipy's
    generalized eigenvalues of a random square compression of it, which
    keeps every zero of the tall pencil and adds spurious ones."""
    n = topos[0].n
    A_list = [assemble_A(t.L) for t in topos]
    C = assemble_C(M, n)
    B = attack_injection(K, n)
    candidates = list(np.linspace(0.01, 2.0, grid_points))
    candidates += _invariant_zero_candidates(A_list, B, C)
    if V is not None:
        P0, P1 = (stacked_pencil(A_list, B, C, eta, V) for eta in (0.0, 1.0))
        R = np.random.default_rng(0).standard_normal(P0.shape[::-1])
        zeros = scipy.linalg.eigvals(-R @ P0, R @ (P1 - P0))
        candidates += [complex(z) for z in zeros if abs(z) < 1e3]
    for eta in candidates:
        if stacked_pencil_has_attack(A_list, B, C, eta, V):
            return True
    return False


class TestObservability:
    def test_double_integrator_observable(self):
        assert unobservable_subspace([np.zeros((1, 1))], [1]).shape[1] == 0

    def test_rank_matches_pbh_oracle(self):
        t = graphs.Topology.from_edges(1, 3, [(1, 2, 1.0), (2, 3, 1.0)])
        L = t.L
        V = unobservable_subspace([L], [1])
        assert V.shape[1] == pbh_unobservable_dim(assemble_A(L), assemble_C([1], 3))

    def test_intersection_kernel_of_undetectable_pair(self, topo1, topo2):
        V = unobservable_subspace([t.L for t in (topo1, topo2)], [1])
        # the hidden direction is agent 3 against agent 4, in position and
        # velocity
        assert V.shape == (8, 2)
        probe = np.zeros(8)
        probe[2], probe[3] = 1.0, -1.0
        proj = V @ (V.T @ probe)
        np.testing.assert_allclose(proj, probe, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1e6, 1e8, 1e12, 1e300])
    def test_hidden_direction_does_not_depend_on_link_scale(self, topo1, topo2, scale):
        """Scaling every link weight leaves every invariant subspace as it
        is; an absolute rank threshold would count the rounding of a large
        L_r as a direction, or a small L_r's directions as rounding.  At
        1e300 the Frobenius norm of L_r itself would overflow."""
        V = unobservable_subspace([scale * t.L for t in (topo1, topo2)], [1])
        assert V.shape == (8, 2)
        probe = (np.eye(8)[2] - np.eye(8)[3]) / np.sqrt(2)
        assert np.linalg.norm(probe - V @ (V.T @ probe)) < 1e-12

    def test_agent_zero_is_not_read_as_agent_n(self, topo1):
        with pytest.raises(graphs.GraphError, match="observed set"):
            unobservable_subspace([topo1.L], (0,))

    def test_full_output_kills_kernel(self, topo1):
        assert unobservable_subspace([topo1.L], [1, 2, 3, 4]).shape[1] == 0

    def test_intersection_dimension_monotone(self, topo1, topo2, topo3):
        L1, L2, L3 = (t.L for t in (topo1, topo2, topo3))
        d12 = unobservable_subspace([L1, L2], [1]).shape[1]
        d123 = unobservable_subspace([L1, L2, L3], [1]).shape[1]
        assert d123 <= d12

    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    def test_star_pair_hides_every_zero_sum_leaf_pattern(self, n):
        """A star centred on the observed agent 1, and the same star with
        link 2-3: x_1 = 0 and sum(x) = 0 is invariant under both Laplacians,
        so the common subspace is exactly that, in position and velocity."""
        star = [(1, j, 1.0) for j in range(2, n + 1)]
        pair = [graphs.Topology.from_edges(1, n, star),
                graphs.Topology.from_edges(2, n, star + [(2, 3, 1.0)])]
        V = unobservable_subspace([t.L for t in pair], [1])
        assert V.shape == (2 * n, 2 * (n - 2))
        X = scipy.linalg.null_space(np.vstack([np.eye(n)[:1], np.ones((1, n))]))
        exact = scipy.linalg.block_diag(X, X)
        assert np.abs(V - exact @ (exact.T @ V)).max() < 1e-12

    @staticmethod
    def swap_pair():
        """n = 5, agent 1 observed; topology 1 commutes with the swap
        (2 3)(4 5), topology 2 with (2 3).  Each X_r holds e2 - e3, and here
        their intersection is just span{e2 - e3}; topology 1 maps e2 - e3
        into span{e2 - e3, e4 - e5}, out of that intersection."""
        rng = np.random.default_rng(0)
        return [symmetric_topology(rng, 5, 1, [(2, 3), (4, 5)]),
                symmetric_topology(rng, 5, 2, [(2, 3)])]

    def test_closure_is_invariant_where_the_intersection_is_not(self):
        Ls = [t.L for t in self.swap_pair()]
        meet = intersection_of_invariant_subspaces(Ls, (1,))
        assert meet.shape[1] == 1 and leaves(meet, Ls[0]) > 0.1
        V = unobservable_subspace(Ls, (1,))
        X = V[:5, : V.shape[1] // 2]
        assert V.shape == (10, 0)
        for L in Ls:
            assert leaves(X, L) <= 1e-12

    def test_delayed_synthesis_on_the_swap_pair_has_no_hidden_prefix(self):
        pair = self.swap_pair()
        sched = scheduling.SwitchingSchedule(order=tuple(pair), dwell=dict.fromkeys(pair, 1.0), horizon=20.0)
        with pytest.raises(SynthesisError):
            synthesize(pair, (1,), (2, 3, 4, 5), rho=7.0, schedule_prefix=sched)

    def test_closure_is_invariant_and_meets_an_invariant_intersection(self):
        """Random connected pairs: a third plain, a third sharing an agent
        swap, which hides the swapped agents' difference from agent 1, and a
        third built like ``swap_pair``.  The closure lies in the
        intersection, is invariant under both Laplacians, and equals the
        intersection wherever that is invariant."""
        rng = np.random.default_rng(16)
        nontrivial = equal = moved = 0
        for k in range(300):
            n = int(rng.integers(5 if k % 3 == 2 else 3, 9))
            i, j = rng.choice(np.arange(2, n + 1), size=2, replace=False)
            swaps = ([[], []], [[(i, j)], [(i, j)]], [[(2, 3), (4, 5)], [(2, 3)]])[k % 3]
            pair = [symmetric_topology(rng, n, tid, sw) for tid, sw in zip((1, 2), swaps)]
            Ls = [t.L for t in pair]
            V = unobservable_subspace(Ls, (1,))
            X = V[:n, : V.shape[1] // 2]
            meet = intersection_of_invariant_subspaces(Ls, (1,))
            for L in Ls:
                assert leaves(X, L) <= 1e-12 * np.linalg.norm(L)
            assert np.linalg.norm(X - meet @ (meet.T @ X)) <= 1e-9
            if all(leaves(meet, L) <= 1e-9 * np.linalg.norm(L) for L in Ls):
                assert np.linalg.norm(X @ X.T - meet @ meet.T) <= 1e-9
                equal += 1
            else:
                moved += 1
            nontrivial += X.shape[1] > 0
        assert nontrivial >= 80 and equal >= 180 and moved >= 80


class TestPencil:
    def test_toy_assembly(self):
        P = rosenbrock_pencil(np.zeros((2, 2)), np.eye(2), np.eye(2), 0.0)
        np.testing.assert_array_equal(P[:2], np.hstack([np.zeros((2, 2)), np.eye(2)]))
        np.testing.assert_array_equal(P[2:], np.hstack([-np.eye(2), np.zeros((2, 2))]))
        assert np.linalg.matrix_rank(P) == 4

    def test_fat_pencil_has_generic_kernel(self, topo1):
        A = assemble_A(topo1.L)
        C = assemble_C([1], 4)
        B = attack_injection([1, 2, 3, 4], 4)
        P = rosenbrock_pencil(A, B, C, 0.37)
        assert P.shape == (9, 12)
        s = np.linalg.svd(P, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) < 12


class TestSynthesize:
    def test_undetectable_pair_yields_certified_attack(self, topo1, topo2):
        result = synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=0.0)
        assert result is not None
        atk, cert = result
        assert cert.valid
        assert max(cert.pencil_residuals) < 1e-8
        assert atk.eta.real > 0.0
        assert np.max(np.abs(atk.g0)) == pytest.approx(1e-2)

    def test_generic_kernel_meets_target_rate_exactly(self, topo1, topo2):
        atk, cert = synthesize([topo1, topo2], (1,), (1, 2, 3, 4), eta_target=0.137)
        assert cert.valid
        assert atk.eta == 0.137

    @pytest.mark.parametrize("rho", [0.0, 20.0])
    @pytest.mark.parametrize("eta", [1e8, -1e8, 1e12, 1e200, 1e308, -1e308])
    def test_extreme_target_rate(self, topo1, topo2, rho, eta):
        """A finite target far above the norm of A gives no attack or a valid
        one, without a floating-point warning on the way: the kernel's state
        part shrinks like 1/|eta| and vanishes in double precision."""
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: tau, topo2: tau}, horizon=60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=rho,
                                schedule_prefix=sched, eta_target=eta)
        assert result is None or result[1].valid

    def test_attack_at_imaginary_zeros_only(self):
        # The two stars differ only in edge 2-3.  With agent 1 observed and
        # channels on agents 1 and 2, the stacked pencil drops rank only at
        # eta = +-i, which no real rate reaches.
        star = [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)]
        t1 = graphs.Topology.from_edges(1, 4, star)
        t2 = graphs.Topology.from_edges(2, 4, star + [(2, 3, 1.0)])
        result = synthesize([t1, t2], (1,), (1, 2))
        assert result is not None
        atk, cert = result
        assert cert.valid
        assert abs(abs(atk.eta) - 1.0) < 1e-12
        assert abs(atk.eta.real) < 1e-12

        # the real parts of discrepancy and signal stay hidden under switching
        sched = scheduling.SwitchingSchedule(order=(t1, t2), dwell={t1: 1.3, t2: 0.7}, horizon=20.0)
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        clean = simulation.simulate(sched, z0, dt=0.05)
        attacked = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.05)
        assert np.max(np.abs(attacked.states - clean.states)) > 1e-3
        assert np.max(np.abs(attacked.states[:, 0] - clean.states[:, 0])) < 1e-10

    @pytest.mark.parametrize("rho", [5.0, 7.3])
    def test_delayed_attack_at_complex_zeros_only(self, rho):
        """On this pair's hidden subspace the reduced pencil has a kernel
        only at eta = +-sqrt(7) i.  A delayed attack takes the real part of
        Phi^-1 w as its offset, as rho = 0 takes w.real: the plant's output
        matches the clean run's while its state does not."""
        a = np.array([[0, 1, 1, 1], [1, 0, 2, 0.5], [1, 2, 0, 0], [1, 0.5, 0, 0]], float)
        t1 = graphs.Topology(id=1, n=4, adjacency=a.copy())
        a[2, 3] = a[3, 2] = 2.0  # topology 2 adds link 3-4
        t2 = graphs.Topology(id=2, n=4, adjacency=a)
        sched = scheduling.SwitchingSchedule(order=(t1, t2), dwell={t1: 1.3, t2: 0.7}, horizon=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            atk, cert = synthesize([t1, t2], (1,), (1, 2, 4), rho=rho, schedule_prefix=sched)
        assert cert.valid and max(cert.pencil_residuals) < 1e-14
        assert abs(atk.eta.real) < 1e-12 and abs(abs(atk.eta.imag) - np.sqrt(7.0)) < 1e-10
        assert np.isrealobj(atk.delta_z0)
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        clean = simulation.simulate(sched, z0, dt=0.01)
        attacked = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.01)
        assert np.max(np.abs(attacked.states[:, 0] - clean.states[:, 0])) < 1e-10
        after = attacked.times > rho
        assert np.max(np.abs(attacked.states - clean.states)[after]) > 1e-3

    def test_detectable_set_blocks_synthesis(self, topo1, topo2):
        third = graphs.Topology.from_edges(
            3, 4, [(1, 2, 1.0), (2, 3, 2.0), (2, 4, 1.3), (3, 4, 1.0)]
        )
        assert graphs.detectability([topo1, topo2, third], [1]).ok
        assert synthesize([topo1, topo2, third], (1,), (1, 2, 3, 4), rho=0.0) is None

    def test_weight_cancellation_defeats_component_test(self, topo1, topo2, topo3):
        # The component condition is only generically equivalent to attack
        # impossibility.  Here the third topology changes a single link, and
        # the direction x = e2 + e3 - e4 cancels every pairwise Laplacian
        # difference, so a stealthy attack survives even though every
        # difference-graph component touches the observed agent; the exact
        # rank test sees it.
        rep = graphs.detectability([topo1, topo2, topo3], [1])
        assert pairwise_uncovered([topo1, topo2, topo3], [1]) == ()
        assert not rep.ok
        result = synthesize([topo1, topo2, topo3], (1,), (1, 2, 3, 4), rho=0.0)
        assert result is not None
        assert result[1].valid

    def test_full_observation_blocks_synthesis(self, topo1):
        assert synthesize([topo1], (1, 2, 3, 4), (1, 2, 3, 4), rho=0.0) is None

    def test_empty_attacked_set_rejected(self, topo1):
        with pytest.raises(SynthesisError):
            synthesize([topo1], (1,), (), rho=0.0)

    def test_positive_rho_requires_schedule(self, topo1, topo2):
        with pytest.raises(ValueError):
            synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=5.0)

    def test_rho_beyond_horizon_rejected(self, topo1, topo2):
        # the prefix propagator would stop at the horizon and certify the
        # attack for the wrong start time
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: 1.0, topo2: 1.0}, horizon=20.0)
        with pytest.raises(ValueError, match="horizon"):
            synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=1e308, schedule_prefix=sched)

    def test_positive_rho_needs_hidden_subspace(self, topo1, topo3):
        # the pair {1, 3} covers every changed component, so nothing can hide
        # before the start time
        sched = scheduling.SwitchingSchedule(order=(topo1, topo3), dwell={topo1: 1.0, topo3: 1.0}, horizon=20.0)
        with pytest.raises(SynthesisError):
            synthesize([topo1, topo3], (1,), (1, 2, 3, 4), rho=5.0, schedule_prefix=sched)

    def test_positive_rho_with_empty_hidden_kernel_skips_the_propagator(self, monkeypatch):
        # Both stars commute with the swap (2 3), so e2 - e3 is hidden before
        # the start time; but it is an eigenvector of L_1 at 2 and of L_2 at
        # 4, so no position in it survives (L_2 - L_1) x = 0.
        base = [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
        pair = [graphs.Topology.from_edges(1, 4, base),
                graphs.Topology.from_edges(2, 4, base + [(2, 3, 1.0)])]
        assert unobservable_subspace([t.L for t in pair], (1,)).shape[1] == 2

        def refuse(*args):
            raise AssertionError("the prefix propagator ran")

        monkeypatch.setattr(attacks, "schedule_transition", refuse)
        sched = scheduling.SwitchingSchedule(order=tuple(pair), dwell=dict.fromkeys(pair, 1.0), horizon=20.0)
        assert synthesize(pair, (1,), (1, 2, 3, 4), rho=5.0, schedule_prefix=sched) is None

    def test_positive_rho_hides_from_topologies_outside_the_stealth_set(self, topo1, topo2):
        """Before rho the discrepancy hides from every topology that runs,
        also one the stealth set leaves out: it lies in their common
        unobservable subspace, while the certificate covers the stealth set."""
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: 1.0, topo2: 1.0}, horizon=20.0)
        atk, cert = synthesize([topo1], (1,), (1, 2, 3, 4), rho=5.0, schedule_prefix=sched)
        assert cert.valid and len(cert.pencil_residuals) == 1
        V = unobservable_subspace([topo1.L, topo2.L], (1,))
        np.testing.assert_allclose(V @ (V.T @ atk.delta_z0), atk.delta_z0, atol=1e-14)

    def test_delayed_attack_discrepancy_stays_hidden(self, topo1, topo2):
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: tau, topo2: tau}, horizon=200.0)
        atk, cert = synthesize(
            [topo1, topo2], (1,), (1, 2, 3, 4), rho=50.0, schedule_prefix=sched
        )
        assert cert.observability_residual < 1e-8
        V = unobservable_subspace([t.L for t in (topo1, topo2)], [1])
        proj = V @ (V.T @ atk.delta_z0)
        np.testing.assert_allclose(proj, atk.delta_z0, atol=1e-10)

    def test_scaled_attack_stays_in_kernel(self, topo1, topo2):
        atk, _ = synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=0.0)
        A = assemble_A(topo1.L)
        P = rosenbrock_pencil(A, attack_injection((1, 2, 3, 4), 4), assemble_C([1], 4), atk.eta)
        for c in (1.0, -3.0, 0.25):
            vec = np.concatenate([c * atk.delta_z0, -c * np.real(atk.g0)])
            assert np.linalg.norm(P @ vec) < 1e-10 * np.linalg.norm(vec)

    @pytest.mark.parametrize("seed", range(20))
    def test_existence_agrees_with_scan_oracle_and_detectability(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(3, 6))
        base = random_connected_topology(rng, n, id=1)
        topos = [base]
        for tid in range(2, int(rng.integers(2, 4)) + 1):
            a = base.adjacency.copy()
            # reweight a random subset of potential edges, keeping the
            # spanning structure so the graph stays connected
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        w = rng.uniform(0.2, 2.0) if a[i, j] == 0 or rng.random() < 0.5 else 0.0
                        if a[i, j] > 0 and w == 0.0 and rng.random() < 0.5:
                            continue
                        a[i, j] = a[j, i] = w
            t = graphs.Topology(id=tid, n=n, adjacency=a)
            if t.spectrum.connected:
                topos.append(t)
        if len(topos) < 2:
            topos.append(graphs.Topology(id=2, n=n, adjacency=base.adjacency))
        M = tuple(sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n), replace=False)))
        K = tuple(range(1, n + 1))
        detect_ok = graphs.detectability(topos, M).ok
        synth = synthesize(topos, M, K, rho=0.0)
        oracle = eta_scan_oracle(topos, M, K)
        assert (synth is not None) == oracle
        assert (synth is not None) == (not detect_ok)

    def test_existence_at_any_start_time_agrees_with_the_hidden_subspace_oracle(self):
        """Seeded pairs and triples of ``swap_family`` on 3 to 5 agents, with
        random attacked sets, under a schedule that may add a random
        topology outside the stealth set, at start times across the first
        switching cycle.  The oracle holds the state to the unobservable
        subspace of the topologies with an interval starting before rho (the
        whole state at rho = 0) and scans real and complex rates; synthesis
        finds an attack exactly when the oracle does, and raises
        SynthesisError exactly when that subspace is trivial.  Every kind of
        verdict occurs: attacks at real and at complex rates, and none for
        want of a hidden subspace, of ker N X, or of a rate."""
        rng = np.random.default_rng(2028)
        seen = dict.fromkeys(("real", "complex", "no subspace", "no ker N X", "no rate"), 0)
        for _ in range(80):
            n = int(rng.integers(3, 6))
            topos = swap_family(rng, n, int(rng.integers(2, 4)))
            M = (1,) if n == 5 or rng.random() < 0.5 else (1, n)
            K = tuple(sorted(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)))
            order = topos + [random_connected_topology(rng, n, id=9)] * int(rng.random() < 0.4)
            sched = scheduling.SwitchingSchedule(
                order=tuple(order), dwell={t: float(rng.uniform(0.5, 1.5)) for t in order}, horizon=50.0
            )
            for rho in sched.period * np.array([0.0, 0.3, 0.6, 0.9]):
                V = np.eye(2 * n)
                if rho > 0.0:
                    prefix = dict.fromkeys(t for a, _, t in sched.intervals() if a < rho)
                    V = unobservable_subspace([t.L for t in prefix], M)
                try:
                    found = synthesize(topos, M, K, rho=rho, schedule_prefix=sched)
                except SynthesisError:
                    assert V.shape[1] == 0
                    seen["no subspace"] += 1
                    continue
                assert V.shape[1] > 0
                assert (found is not None) == eta_scan_oracle(topos, M, K, V=V), (n, M, K, rho)
                if found is not None:
                    seen["complex" if found[0].eta.imag else "real"] += 1
                else:
                    NX = graphs.detection_matrix(topos, M) @ V[:n, : V.shape[1] // 2]
                    seen["no rate" if scipy.linalg.null_space(NX).shape[1] else "no ker N X"] += 1
        assert min(seen.values()) >= 10, seen


class TestCandidateRates:
    def test_detectable_pair_skips_the_staircase(self, monkeypatch):
        # Shaped like the scale-n64 benchmark: a random connected pair on 64
        # agents, agent 1 observed, agents 2 and 3 attacked.  N has full
        # column rank, so no position can hide and synthesis returns None
        # before it looks for a rate.
        rng = np.random.default_rng(64)
        pair = [random_connected_topology(rng, 64, id=k) for k in (1, 2)]
        rates, calls = attacks._candidate_rates, []

        def counted(*args):
            calls.append(args)
            return rates(*args)

        monkeypatch.setattr(attacks, "_candidate_rates", counted)
        assert graphs.detectability(pair, (1,)).ok
        assert synthesize(pair, (1,), (2, 3)) is None
        assert calls == []

    def test_detectable_pair_returns_before_building_anything(self, monkeypatch):
        # The same pair.  The singular values of N X alone decide that no
        # attack exists, so no drift, kernel basis or pencil is formed: at
        # rho = 0, and at rho > 0 after a topology that commutes with the
        # swap (2 3), which hides e2 - e3 from agent 1 while N X stays of
        # full column rank.  That hidden subspace is found before the
        # refusals go in, as its closure takes a kernel basis of its own.
        # The agent sets are still checked first.
        rng = np.random.default_rng(64)
        pair = [random_connected_topology(rng, 64, id=k) for k in (1, 2)]
        swap = symmetric_topology(rng, 64, 3, [(2, 3)])
        sched = scheduling.SwitchingSchedule(order=(swap, *pair), dwell=dict.fromkeys((swap, *pair), 1.0),
                                             horizon=20.0)
        V = unobservable_subspace([swap.L], (1,))
        assert V.shape[1] == 2

        def refuse(*args, **kwargs):
            raise AssertionError("synthesis built a matrix after an empty-kernel verdict")

        for name in ("assemble_A", "_nullspace", "rosenbrock_pencil"):
            monkeypatch.setattr(attacks, name, refuse)
        monkeypatch.setattr(attacks, "unobservable_subspace", lambda L_list, M: V)
        assert synthesize(pair, (1,), (2, 3)) is None
        assert synthesize(pair, (1,), (2, 3), rho=0.5, schedule_prefix=sched) is None
        with pytest.raises(graphs.GraphError, match="attacked set"):
            synthesize(pair, (1,), (65,))

    def test_tall_pencil_without_zeros_evaluates_no_pencil(self):
        # The same pair's first topology on the velocity subspace, which a
        # zero ker N leaves.  The reduced pencil eta E - F is tall, and
        # E^+ F has 62 eigenvalues, all 0, that the pencil does not have;
        # deflating E's left kernel proves there is no zero, not even the
        # target, so no pencil is formed.
        rng = np.random.default_rng(64)
        topo = random_connected_topology(rng, 64, id=1)
        A = assemble_A(topo.L)
        U = np.eye(128)[:, 64:]
        assert list(attacks._candidate_rates(A, attack_injection((2, 3), 64), U, 0.05)) == []

    def test_every_rate_but_the_target_is_a_zero_of_the_stacked_pencil(self):
        # Criterion 2's instances with as many attacked agents as observed
        # ones, drawn at random, so that some pencils have isolated zeros
        rng = np.random.default_rng(11)
        zeros = no_rate = 0
        for _ in range(100):
            topos, M, _ = random_topology_set(rng)
            n = topos[0].n
            K = tuple(sorted(rng.choice(np.arange(1, n + 1), size=len(M), replace=False)))
            A_list = [assemble_A(t.L) for t in topos]
            C, B = assemble_C(M, n), attack_injection(K, n)
            U = attacks._nullspace(np.vstack([C] + [A - A_list[0] for A in A_list[1:]]))
            rates = list(attacks._candidate_rates(A_list[0], B, U, 0.05))
            for eta in rates[1:]:
                stacked = np.vstack([rosenbrock_pencil(A, B, C, eta) for A in A_list])
                s = np.linalg.svd(stacked, compute_uv=False)
                assert s[-1] / s[0] < 1e-8, (eta, s[-1] / s[0])
                zeros += 1
            if not rates:
                # a pencil without zeros has no kernel at any scanned rate
                assert not eta_scan_oracle(topos, M, K)
                no_rate += 1
        assert zeros >= 10 and no_rate >= 10


def interval_product(sched, A_of, rho):
    """Oracle: scipy's exponential of every schedule interval before rho,
    multiplied one at a time."""
    Phi = np.eye(8)
    for t0, t1, topo in sched.intervals():
        if t0 >= rho:
            break
        Phi = scipy.linalg.expm(A_of[topo] * (min(t1, rho) - t0)) @ Phi
    return Phi


class TestPrefixPropagator:
    @pytest.fixture
    def A_of(self, topo1, topo2, topo3):
        return {t: assemble_A(t.L) for t in (topo1, topo2, topo3)}

    TWO = scheduling.SwitchingSchedule(order=(TOPO1, TOPO2), dwell={TOPO1: 1.3, TOPO2: 0.7}, horizon=1000.0)
    THREE = scheduling.SwitchingSchedule(
        order=(TOPO3, TOPO1, TOPO2), dwell={TOPO1: 1.1, TOPO2: 0.6, TOPO3: 0.9}, horizon=200.0
    )
    ENDLESS = scheduling.SwitchingSchedule(order=(TOPO1, TOPO2), dwell={TOPO1: 1.0, TOPO2: 1e308}, horizon=60.0)

    @pytest.mark.parametrize(
        "sched, rho",
        [
            (TWO, 0.5),
            (TWO, TWO.switch_times[5]),
            (TWO, 4 * TWO.period),
            # 493 cycles, over which the pair's flow grows to a norm of 5e112;
            # the oracle's switch instants, rounded near t = 1000, move its
            # product ~7e-12 away from the product of exact dwells
            (TWO, 987.3),
            (THREE, 37.45),
            (THREE, THREE.switch_times[7]),
            # the second dwell reaches past rho and is never taken whole
            (ENDLESS, 50.0),
        ],
        ids=["first-dwell", "switch-instant", "whole-periods", "many-cycles", "three-topologies",
             "three-switch-instant", "endless-dwell"],
    )
    def test_matches_interval_by_interval_product(self, A_of, sched, rho):
        Phi = simulation.schedule_transition(sched, A_of, rho)
        oracle = interval_product(sched, A_of, rho)
        assert np.linalg.norm(Phi - oracle) <= 1e-11 * np.linalg.norm(oracle)

    @seed(30)
    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(2, 3),
        dwells=st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3),
        where=st.sampled_from(["inside-a-dwell", "switch-instant", "cycles-in"]),
        k=st.integers(0, 40),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_one_walk_matches_the_oracle_on_random_schedules(self, count, dwells, where, k, frac):
        """The whole-cycle power and the incomplete cycle read from
        ``intervals()`` agree with the interval-by-interval product, for a
        start inside a dwell, on a switch instant, and several cycles in."""
        topos = (TOPO1, TOPO2, TOPO3)[:count]
        A_of = {t: assemble_A(t.L) for t in topos}
        sched = scheduling.SwitchingSchedule(
            order=topos, dwell=dict(zip(topos, dwells)), horizon=50.0 * sum(dwells[:count])
        )
        if where == "inside-a-dwell":
            a, b, _ = list(sched.intervals())[k]
            rho = a + frac * (b - a)
        elif where == "switch-instant":
            rho = sched.switch_times[k]
        else:
            rho = (2 + k % 9 + frac) * sched.period
        Phi = simulation.schedule_transition(sched, A_of, rho)
        oracle = interval_product(sched, A_of, rho)
        assert np.linalg.norm(Phi - oracle) <= 1e-11 * np.linalg.norm(oracle)

    def test_walks_only_the_intervals_of_its_incomplete_cycle(self, monkeypatch):
        """The incomplete cycle is read from the first intervals alone, and
        the walk stops at the first one starting past it, so a long schedule
        is not walked to its end (copies of one topology keep the flow of
        50,000 cycles finite)."""
        taken = []
        walk = scheduling.SwitchingSchedule.intervals

        def counted(sched):
            for iv in walk(sched):
                taken.append(iv)
                yield iv

        monkeypatch.setattr(scheduling.SwitchingSchedule, "intervals", counted)
        copies = tuple(graphs.Topology(id=k, n=4, adjacency=TOPO1.adjacency) for k in (1, 2))
        sched = scheduling.SwitchingSchedule(order=copies, dwell=dict.fromkeys(copies, 1.0), horizon=1e5)
        Phi = simulation.schedule_transition(sched, {t: assemble_A(t.L) for t in copies}, 1e5 - 0.5)
        assert np.isfinite(Phi).all()
        assert [(a, b) for a, b, _ in taken] == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_zero_time_is_the_identity(self, A_of):
        assert np.array_equal(simulation.schedule_transition(self.THREE, A_of, 0.0), np.eye(8))


class TestSignalsAndPrediction:
    def make(self):
        return ZdaAttack(
            eta=0.0161,
            rho=1097.4,
            g0=1e-3 * np.array([0.0, 7.3, 7.3, -14.6]),
            delta_z0=np.eye(8)[2] - np.eye(8)[3],
            attacked=(1, 2, 3, 4),
        )

    def injected(self, topo, t):
        """The trace's injected signal at the sample taken at time t, from a
        run of ``make()``'s attack that ends 100 s after its start."""
        atk = self.make()
        sched = scheduling.SwitchingSchedule(order=(topo,), dwell={topo: 1e9}, horizon=atk.rho + 100.0)
        tr = simulation.simulate(sched, np.ones(8), attack=atk, dt=10.0)
        (i,) = np.flatnonzero(tr.times == t)
        return tr.attack_values[i], tr.attack_values[tr.times < atk.rho]

    def test_zero_before_start(self, topo1):
        at_10, before = self.injected(topo1, 10.0)
        np.testing.assert_array_equal(at_10, np.zeros(4))
        assert len(before) > 100 and not before.any()

    def test_exactly_g0_at_start(self, topo1):
        atk = self.make()
        np.testing.assert_array_equal(self.injected(topo1, atk.rho)[0], np.real(atk.g0))

    def test_exponential_shape(self, topo1):
        atk = self.make()
        expected = 1e-3 * np.array([0.0, 7.3, 7.3, -14.6]) * np.exp(0.0161 * 100.0)
        at_end, _ = self.injected(topo1, atk.rho + 100.0)
        np.testing.assert_allclose(at_end, expected, rtol=1e-12)

    def test_prediction_trivial_cases(self):
        atk = self.make()
        clean = np.arange(8.0)
        assert np.allclose(predicted_state(atk, clean, np.zeros(8), atk.rho + 5.0), clean)
        disc = np.ones(8)
        np.testing.assert_allclose(
            predicted_state(atk, clean, disc, atk.rho), clean + disc
        )

    def test_prediction_matches_simulation(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(topo1,), dwell={topo1: 1e9}, horizon=300.0)
        atk, _ = synthesize(
            [topo1], (1,), (1, 2, 3, 4), rho=50.0, schedule_prefix=sched, eta_target=0.05
        )
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        clean = simulation.simulate(sched, z0, dt=0.5)
        attacked = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.5)
        i0 = int(np.argmin(np.abs(clean.times - atk.rho)))
        disc = attacked.states[i0] - clean.states[i0]
        worst = 0.0
        for i in range(i0 + 1, len(clean.times)):
            pred = predicted_state(atk, clean.states[i], disc, clean.times[i])
            worst = max(
                worst,
                np.linalg.norm(attacked.states[i] - pred)
                / np.linalg.norm(attacked.states[i]),
            )
        assert worst < 1e-6

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ZdaAttack(eta=0.1, rho=-1.0, g0=np.ones(1), delta_z0=np.ones(2), attacked=(1,))
        with pytest.raises(ValueError):
            ZdaAttack(eta=0.1, rho=0.0, g0=np.zeros(1), delta_z0=np.ones(2), attacked=(1,))
        with pytest.raises(ValueError):
            ZdaAttack(eta=0.1, rho=0.0, g0=np.ones(1), delta_z0=np.zeros(2), attacked=(1,))

    def test_json_round_trip_with_certificate(self):
        atk = self.make()
        cert = StealthCertificate(valid=True, pencil_residuals=(1e-12,), observability_residual=0.0)
        text = attack_to_json(atk, cert)
        doc = json.loads(text)
        assert doc["certificate"]["valid"] is True
        back = attack_from_json(text)
        assert back.eta == atk.eta
        assert back.rho == atk.rho
        np.testing.assert_allclose(back.g0, atk.g0)
        np.testing.assert_allclose(back.delta_z0, atk.delta_z0)
        assert back.attacked == atk.attacked

    def test_json_keeps_each_signal_entry_with_its_agent(self):
        text = json.dumps({"eta": {"re": 0.05, "im": 0.0}, "rho": 0.0,
                           "g0": {"re": [1.0, -0.5], "im": [0.0, 0.0]},
                           "delta_z0": [1.0, 0.0], "attacked": [3, 2]})
        atk = attack_from_json(text)
        assert atk.attacked == (2, 3)
        np.testing.assert_array_equal(atk.g0, [-0.5, 1.0])
