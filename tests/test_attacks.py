import json
import warnings

import numpy as np
import pytest
import scipy.linalg

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
    _invariant_zero_candidates,
    predicted_state,
    random_connected_topology,
    random_topology_set,
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


def eta_scan_oracle(topos, M, K, grid_points=100):
    """Brute-force existence test: scan candidate rates and check that the
    stacked pencil kernel carries a nonzero signal component."""
    n = topos[0].n
    A_list = [assemble_A(graphs.laplacian(t)) for t in topos]
    C = assemble_C(M, n)
    B = attack_injection(K, n)
    candidates = list(np.linspace(0.01, 2.0, grid_points))
    candidates += _invariant_zero_candidates(A_list, B, C)
    for eta in candidates:
        if stacked_pencil_has_attack(A_list, B, C, eta):
            return True
    return False


class TestObservability:
    def test_double_integrator_observable(self):
        assert unobservable_subspace([np.zeros((1, 1))], [1]).shape[1] == 0

    def test_rank_matches_pbh_oracle(self):
        t = graphs.Topology.from_edges(1, 3, [(1, 2, 1.0), (2, 3, 1.0)])
        L = graphs.laplacian(t)
        V = unobservable_subspace([L], [1])
        assert V.shape[1] == pbh_unobservable_dim(assemble_A(L), assemble_C([1], 3))

    def test_intersection_kernel_of_undetectable_pair(self, topo1, topo2):
        V = unobservable_subspace([graphs.laplacian(t) for t in (topo1, topo2)], [1])
        # the hidden direction is agent 3 against agent 4, in position and
        # velocity
        assert V.shape == (8, 2)
        probe = np.zeros(8)
        probe[2], probe[3] = 1.0, -1.0
        proj = V @ (V.T @ probe)
        np.testing.assert_allclose(proj, probe, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1e6, 1e8, 1e12])
    def test_hidden_direction_does_not_depend_on_link_scale(self, topo1, topo2, scale):
        """Scaling every link weight leaves every invariant subspace as it
        is; an absolute rank threshold would count the rounding of a large
        L_r as a direction, or a small L_r's directions as rounding."""
        V = unobservable_subspace([scale * graphs.laplacian(t) for t in (topo1, topo2)], [1])
        assert V.shape == (8, 2)
        probe = (np.eye(8)[2] - np.eye(8)[3]) / np.sqrt(2)
        assert np.linalg.norm(probe - V @ (V.T @ probe)) < 1e-12

    def test_full_output_kills_kernel(self, topo1):
        assert unobservable_subspace([graphs.laplacian(topo1)], [1, 2, 3, 4]).shape[1] == 0

    def test_intersection_dimension_monotone(self, topo1, topo2, topo3):
        L1, L2, L3 = (graphs.laplacian(t) for t in (topo1, topo2, topo3))
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
        V = unobservable_subspace([graphs.laplacian(t) for t in pair], [1])
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
        Ls = [graphs.laplacian(t) for t in self.swap_pair()]
        meet = intersection_of_invariant_subspaces(Ls, (1,))
        assert meet.shape[1] == 1 and leaves(meet, Ls[0]) > 0.1
        V = unobservable_subspace(Ls, (1,))
        X = V[:5, : V.shape[1] // 2]
        assert V.shape == (10, 0)
        for L in Ls:
            assert leaves(X, L) <= 1e-12

    def test_delayed_synthesis_on_the_swap_pair_has_no_hidden_prefix(self):
        pair = self.swap_pair()
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 1.0}, horizon=20.0)
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
            Ls = [graphs.laplacian(t) for t in pair]
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
        A = assemble_A(graphs.laplacian(topo1))
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
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: tau, 2: tau}, horizon=60.0)
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
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.3, 2: 0.7}, horizon=20.0)
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        clean = simulation.simulate([t1, t2], sched, z0, dt=0.05, observed=(1,))
        attacked = simulation.simulate(
            [t1, t2], sched, z0 + atk.delta_z0, attack=atk, dt=0.05, observed=(1,)
        )
        assert np.max(np.abs(attacked.states - clean.states)) > 1e-3
        assert np.max(np.abs(attacked.outputs - clean.outputs)) < 1e-10

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
        assert rep.uncovered == ()
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
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 1.0}, horizon=20.0)
        with pytest.raises(ValueError, match="horizon"):
            synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=1e308, schedule_prefix=sched)

    def test_positive_rho_needs_hidden_subspace(self, topo1, topo3):
        # the pair {1, 3} covers every changed component, so nothing can hide
        # before the start time
        sched = scheduling.SwitchingSchedule(order=(1, 3), dwell={1: 1.0, 3: 1.0}, horizon=20.0)
        with pytest.raises(SynthesisError):
            synthesize([topo1, topo3], (1,), (1, 2, 3, 4), rho=5.0, schedule_prefix=sched)

    def test_positive_rho_with_empty_hidden_kernel_skips_the_propagator(self, monkeypatch):
        # Both stars commute with the swap (2 3), so e2 - e3 is hidden before
        # the start time; but it is an eigenvector of L_1 at 2 and of L_2 at
        # 4, so no position in it survives (L_2 - L_1) x = 0.
        base = [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
        pair = [graphs.Topology.from_edges(1, 4, base),
                graphs.Topology.from_edges(2, 4, base + [(2, 3, 1.0)])]
        assert unobservable_subspace([graphs.laplacian(t) for t in pair], (1,)).shape[1] == 2

        def refuse(*args):
            raise AssertionError("the prefix propagator ran")

        monkeypatch.setattr(attacks, "_prefix_propagator", refuse)
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 1.0}, horizon=20.0)
        assert synthesize(pair, (1,), (1, 2, 3, 4), rho=5.0, schedule_prefix=sched) is None

    def test_positive_rho_needs_every_scheduled_topology_in_the_stealth_set(self, topo1, topo2):
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 1.0}, horizon=20.0)
        with pytest.raises(ValueError, match=r"\[2\]") as info:
            synthesize([topo1], (1,), (1, 2, 3, 4), rho=5.0, schedule_prefix=sched)
        assert not isinstance(info.value, SynthesisError)

    def test_delayed_attack_discrepancy_stays_hidden(self, topo1, topo2):
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: tau, 2: tau}, horizon=200.0)
        atk, cert = synthesize(
            [topo1, topo2], (1,), (1, 2, 3, 4), rho=50.0, schedule_prefix=sched
        )
        assert cert.observability_residual < 1e-8
        V = unobservable_subspace([graphs.laplacian(t) for t in (topo1, topo2)], [1])
        proj = V @ (V.T @ atk.delta_z0)
        np.testing.assert_allclose(proj, atk.delta_z0, atol=1e-10)

    def test_scaled_attack_stays_in_kernel(self, topo1, topo2):
        atk, _ = synthesize([topo1, topo2], (1,), (1, 2, 3, 4), rho=0.0)
        A = assemble_A(graphs.laplacian(topo1))
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
            if graphs.spectrum(graphs.laplacian(t)).connected:
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

    def test_tall_pencil_without_zeros_evaluates_no_pencil(self):
        # The same pair's first topology on the velocity subspace, which a
        # zero ker N leaves.  The reduced pencil eta E - F is tall, and
        # E^+ F has 62 eigenvalues, all 0, that the pencil does not have;
        # deflating E's left kernel proves there is no zero, not even the
        # target, so no pencil is formed.
        rng = np.random.default_rng(64)
        topo = random_connected_topology(rng, 64, id=1)
        A = assemble_A(graphs.laplacian(topo))
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
            A_list = [assemble_A(graphs.laplacian(t)) for t in topos]
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


def interval_product(sched, A_by_id, rho):
    """Oracle: scipy's exponential of every schedule interval before rho,
    multiplied one at a time."""
    Phi = np.eye(8)
    for t0, t1, tid in sched.intervals():
        if t0 >= rho:
            break
        Phi = scipy.linalg.expm(A_by_id[tid] * (min(t1, rho) - t0)) @ Phi
    return Phi


class TestPrefixPropagator:
    @pytest.fixture
    def A_by_id(self, topo1, topo2, topo3):
        return {t.id: assemble_A(graphs.laplacian(t)) for t in (topo1, topo2, topo3)}

    TWO = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.3, 2: 0.7}, horizon=1000.0)
    THREE = scheduling.SwitchingSchedule(
        order=(3, 1, 2), dwell={1: 1.1, 2: 0.6, 3: 0.9}, horizon=200.0
    )
    ENDLESS = scheduling.SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 1e308}, horizon=60.0)

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
    def test_matches_interval_by_interval_product(self, A_by_id, sched, rho):
        Phi = attacks._prefix_propagator(sched, A_by_id, rho)
        oracle = interval_product(sched, A_by_id, rho)
        assert np.linalg.norm(Phi - oracle) <= 1e-11 * np.linalg.norm(oracle)


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
        sched = scheduling.SwitchingSchedule(order=(1,), dwell={1: 1e9}, horizon=atk.rho + 100.0)
        tr = simulation.simulate([topo], sched, np.ones(8), attack=atk, dt=10.0)
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
        sched = scheduling.SwitchingSchedule(order=(1,), dwell={1: 1e9}, horizon=300.0)
        atk, _ = synthesize(
            [topo1], (1,), (1, 2, 3, 4), rho=50.0, schedule_prefix=sched, eta_target=0.05
        )
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        clean = simulation.simulate([topo1], sched, z0, dt=0.5, observed=(1,))
        attacked = simulation.simulate(
            [topo1], sched, z0 + atk.delta_z0, attack=atk, dt=0.5, observed=(1,)
        )
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
