import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from zdalab import graphs, observer, scheduling
from zdalab.scheduling import DwellParams, ScheduleError, SwitchingSchedule

from conftest import random_connected_topology

# topologies that serve only as a schedule's labels
T1, T2, T3, T4 = (graphs.Topology.from_edges(k, 2, [(1, 2, 1.0)]) for k in range(1, 5))


class TestDwellParams:
    def test_defaults_are_admissible(self):
        p = DwellParams()
        assert 0.0 < p.tau_hat_max < -math.log(p.beta) / p.alpha

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 1.5},
            {"alpha": -1.0},
            {"kappa": 0},
            {"m": 0},
            {"tau_hat_max": 5.0},  # exceeds -ln(beta)/alpha for the defaults
            {"tau_hat_max": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ScheduleError):
            DwellParams(**kwargs)


class TestSwitchingSchedule:
    def test_switch_times_and_intervals(self):
        s = SwitchingSchedule(order=(T1, T2), dwell={T1: 1.0, T2: 2.0}, horizon=7.0)
        assert s.switch_times == (1.0, 3.0, 4.0, 6.0)
        spans = list(s.intervals())
        assert spans[0] == (0.0, 1.0, T1)
        assert spans[-1] == (6.0, 7.0, T1)
        assert spans[-1][1] == s.horizon
        assert s.period == 3.0

    def test_missing_dwell_rejected(self):
        with pytest.raises(ScheduleError, match="dwell for topology 2 "):
            SwitchingSchedule(order=(T1, T2), dwell={T1: 1.0}, horizon=5.0)

    @pytest.mark.parametrize(
        "dwell, horizon",
        [
            ({T1: 0.2 + 20000 * np.pi, T2: 0.2 + 20000 * np.pi}, 5e8),
            ({T1: 0.2 + 3 * np.pi, T2: 0.2 + 4.5 * np.pi, T3: 0.7}, 1e5),
        ],
    )
    def test_switch_instants_match_exact_sums(self, dwell, horizon):
        s = SwitchingSchedule(order=tuple(dwell), dwell=dwell, horizon=horizon)
        assert len(s.switch_times) > 7000
        exact = Fraction(0)
        for k, t in enumerate(s.switch_times):
            exact += Fraction(dwell[s.order[k % len(s.order)]])
            assert abs(Fraction(t) - exact) <= 4 * Fraction(np.spacing(t))
        # no switch is lost at the horizon
        following = dwell[s.order[len(s.switch_times) % len(s.order)]]
        assert exact < horizon <= exact + Fraction(following)

    def test_switch_count_capped_before_computing(self):
        with pytest.raises(ScheduleError, match="cap"):
            SwitchingSchedule(order=(T1, T2), dwell={T1: 1e-300, T2: 1e-300}, horizon=60.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_dwell_rejected(self, bad):
        with pytest.raises(ScheduleError):
            SwitchingSchedule(order=(T1,), dwell={T1: bad}, horizon=10.0)

    @settings(max_examples=200, deadline=None)
    @given(
        dwells=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4),
        cycles=st.floats(0.5, 20.0),
    )
    def test_signal_right_continuous_at_every_switch(self, dwells, cycles):
        """The intervals tile [0, horizon]: at each switch instant the
        incoming topology's interval starts, and it lasts until the next
        switch; the interval ending at the instant holds the outgoing one."""
        order = (T1, T2, T3, T4)[: len(dwells)]
        s = SwitchingSchedule(
            order=order, dwell=dict(zip(order, dwells)), horizon=cycles * sum(dwells)
        )
        spans = list(s.intervals())
        bounds = (0.0,) + s.switch_times + (s.horizon,)
        assert [(a, b) for a, b, _ in spans] == list(zip(bounds[:-1], bounds[1:]))
        for k, t in enumerate(s.switch_times):
            assert spans[k][2] == order[k % len(order)]
            assert spans[k + 1][2] == order[(k + 1) % len(order)]


def _spec(vals):
    vals = np.asarray(vals, dtype=float)
    return graphs.LaplacianSpectrum(
        eigenvalues=vals, eigenvectors=np.eye(len(vals)), connected=vals[1] > 0
    )


class TestDwellConstruction:
    def test_xi_is_worst_distance_from_one(self):
        assert scheduling.xi([_spec([0.0, 1.0, 3.0, 4.0])]) == pytest.approx(3.0)
        assert scheduling.xi([_spec([0.0, 0.5, 1.5]), _spec([0.0, 0.9, 1.1])]) == pytest.approx(1.0)

    def test_base_period_integer_ratios(self, k4_149):
        spec = k4_149.spectrum
        cert = graphs.rational_ratio_certificate(spec)
        T = scheduling.base_period(cert, spec.eigenvalues[1])
        # modal periods 2*pi, pi, 2*pi/3 share the period 2*pi
        assert T == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_base_period_half_integer_ratio(self):
        # eigenvalues 1 and 2.25: sqrt ratio 3/2, so the common period doubles
        cert = graphs.rational_ratio_certificate(_spec([0.0, 1.0, 2.25]))
        assert cert.ok
        T = scheduling.base_period(cert, 1.0)
        assert T == pytest.approx(4.0 * math.pi, rel=1e-9)

    def test_base_period_requires_certificate(self):
        cert = graphs.rational_ratio_certificate(_spec([0.0, 1.0, 2.0]), max_den=1000)
        with pytest.raises(ScheduleError):
            scheduling.base_period(cert, 1.0)

    def test_dwell_time_smallest_admissible(self):
        p = DwellParams(beta=0.5, alpha=1.0, kappa=1, tau_hat_max=0.2)
        # threshold (1/beta - 1)/(alpha - xi) = 1; half-period pi clears it at m=1
        tau = scheduling.dwell_time(p, T_r=2.0 * math.pi, xi_value=0.0)
        assert tau == pytest.approx(0.2 + math.pi)

    def test_dwell_time_raises_m_to_clear_threshold(self):
        p = DwellParams(beta=0.5, alpha=1.0, kappa=1, tau_hat_max=0.2)
        # threshold 1/(1 - 0.9) = 10 forces m*T/2 > 9.8
        tau = scheduling.dwell_time(p, T_r=0.1, xi_value=0.9)
        assert tau > 10.0
        assert tau == pytest.approx(0.2 + 197 * 0.05)

    def test_dwell_time_respects_requested_multiplier(self):
        p = DwellParams(tau_hat_max=0.2, m=5)
        tau = scheduling.dwell_time(p, T_r=2.0 * math.pi, xi_value=0.0)
        assert tau == pytest.approx(0.2 + 5 * math.pi)

    def test_dwell_time_infeasible_spectrum(self):
        p = DwellParams()
        with pytest.raises(ScheduleError):
            scheduling.dwell_time(p, T_r=1.0, xi_value=3.0)

    @pytest.mark.parametrize(
        "params, T_r, xi_value",
        [
            (DwellParams(beta=0.5, alpha=1.0, kappa=1, tau_hat_max=0.2), 2.0 * math.pi, 0.0),
            (DwellParams(beta=0.5, alpha=1.0, kappa=1, tau_hat_max=0.2), 0.1, 0.9),
            (DwellParams(tau_hat_max=0.2, m=5), 2.0 * math.pi, 0.0),
            (DwellParams(beta=0.1, alpha=3.0, kappa=4), 0.37, 2.5),
            (DwellParams(beta=0.9, alpha=1.5, kappa=2, m=3), 1e-3, 1.2),
        ],
        ids=["m-one", "m-raised", "m-requested", "kappa-four", "short-period"],
    )
    def test_closed_form_matches_stepping_m(self, params, T_r, xi_value):
        """The smallest m found by raising m one step at a time."""
        threshold = (params.beta ** (-1.0 / params.kappa) - 1.0) * params.kappa / (
            params.alpha - xi_value
        )
        m = params.m
        while params.tau_hat_max + m * T_r / 2.0 <= threshold:
            m += 1
        expected = params.tau_hat_max + m * T_r / 2.0
        assert scheduling.dwell_time(params, T_r, xi_value) == expected

    def test_spectrum_at_the_margin_needs_no_stepping(self):
        # alpha - xi = 1e-9 puts the threshold near 1e9: about 4.5e8 half-periods
        p = DwellParams(alpha=1.0 + 1e-9, tau_hat_max=0.2)
        T_r = 4.442882938158366
        tau = scheduling.dwell_time(p, T_r, xi_value=1.0)
        threshold = (1.0 / p.beta - 1.0) / (p.alpha - 1.0)
        assert tau > threshold >= tau - T_r / 2.0
        assert round((tau - 0.2) / (T_r / 2.0)) > 4e8

    @pytest.mark.parametrize(
        "params, T_r",
        [
            (DwellParams(beta=1e-320, alpha=1.0, tau_hat_max=1.0), 1.0),
            (DwellParams(), math.inf),
            (DwellParams(), math.nan),
            (DwellParams(), 0.0),
            (DwellParams(alpha=1e-300, tau_hat_max=1.0), 1e-300),
        ],
        ids=["threshold-overflows", "infinite-period", "nan-period", "zero-period", "m-overflows"],
    )
    def test_non_finite_dwell_rejected(self, params, T_r):
        with pytest.raises(ScheduleError):
            scheduling.dwell_time(params, T_r, xi_value=0.0)

    def test_base_period_overflow_rejected(self):
        # the lcm of the certificate's denominators exceeds every float
        primes = [p for p in range(2, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        cert = graphs.RatioCertificate(ok=True, ratios=tuple(Fraction(1, p) for p in primes))
        with pytest.raises(ScheduleError, match="overflows"):
            scheduling.base_period(cert, 1.0)


class TestMeasureCondition:
    def test_lyapunov_weight_of_minus_identity(self):
        P = scheduling.lyapunov_weight([-np.eye(3)])
        np.testing.assert_allclose(P, 0.5 * np.eye(3), atol=1e-12)

    def test_lyapunov_weight_solves_equation(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        P = scheduling.lyapunov_weight([A])
        np.testing.assert_allclose(P @ A + A.T @ P, -np.eye(2), atol=1e-10)

    def test_lyapunov_weight_skips_non_hurwitz(self):
        unstable = np.array([[1.0]])
        stable = np.array([[-2.0]])
        P = scheduling.lyapunov_weight([unstable, stable])
        np.testing.assert_allclose(P, [[0.25]], atol=1e-12)

    def test_lyapunov_weight_all_non_hurwitz(self):
        with pytest.raises(ScheduleError):
            scheduling.lyapunov_weight([np.zeros((2, 2))])

    def test_log_norm_identity_weight(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert scheduling.weighted_log_norm(A, np.eye(2)) == pytest.approx(0.0, abs=1e-12)
        assert scheduling.weighted_log_norm(-np.eye(2), np.eye(2)) == pytest.approx(-1.0)

    def test_log_norm_matches_symmetric_part(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4))
        expected = np.linalg.eigvalsh(0.5 * (A + A.T)).max()
        assert scheduling.weighted_log_norm(A, np.eye(4)) == pytest.approx(expected)

    def test_measure_condition_weighted_average(self):
        A_minus = -np.eye(2)
        A_plus = 0.5 * np.eye(2)
        rep = scheduling.measure_condition([A_minus, A_plus], [3.0, 1.0], np.eye(2))
        assert rep.nu == (0.75, 0.25)
        assert rep.value == pytest.approx(0.75 * (-1.0) + 0.25 * 0.5)
        assert rep.ok

    def test_measure_condition_fails_when_average_positive(self):
        rep = scheduling.measure_condition(
            [-np.eye(2), np.eye(2)], [1.0, 3.0], np.eye(2)
        )
        assert not rep.ok

    def test_measure_condition_requires_definite_weight(self):
        for P in (np.zeros((2, 2)), np.diag([1.0, -1.0])):
            with pytest.raises(ScheduleError, match="positive-definite"):
                scheduling.measure_condition([-np.eye(2)], [1.0], P)

    @pytest.mark.parametrize("n, seed", [(4, 5), (64, 100), (64, 101)])
    def test_log_norms_match_per_mode_solves(self, n, seed):
        """The one inverse Cholesky factor gives every mode the log-norm of
        two triangular solves per mode to 1e-7, relative, on observer pairs
        shaped like the stealth and scale scenarios."""
        rng = np.random.default_rng(seed)
        A_list = []
        for _ in range(2):
            a = random_connected_topology(rng, n).adjacency
            a = a * ((n / 2) / a.sum(axis=1).max())
            A_list.append(observer_matrix(graphs.Topology(id=1, n=n, adjacency=a), (1,), (1.0,), (1.0,)))
        P = scheduling.lyapunov_weight(A_list)
        rep = scheduling.measure_condition(A_list, [1.0, 2.0], P)

        def solved(A):
            S = P @ A + A.T @ P
            R = np.linalg.cholesky(2.0 * P)
            M = np.linalg.solve(R, np.linalg.solve(R, 0.5 * (S + S.T)).T)
            return float(np.linalg.eigvalsh(0.5 * (M + M.T)).max())

        for A, measure in zip(A_list, rep.measures):
            assert measure == pytest.approx(solved(A), rel=1e-7)
            assert scheduling.weighted_log_norm(A, P) == measure


def lyapunov_residual(A, P) -> float:
    return float(np.linalg.norm(P @ A + A.T @ P + np.eye(len(A)), 1))


def rel_diff(X, Y) -> float:
    return float(np.linalg.norm(X - Y, 1) / np.linalg.norm(Y, 1))


class TestScipyOracles:
    """The sign-function Lyapunov solve and the Cholesky-reduced log-norm
    against scipy's Bartels-Stewart solve and generalized eigh."""

    @pytest.mark.parametrize("d", [1, 2, 8, 40])
    def test_lyapunov_weight_matches_scipy(self, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(d, d))
        A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.1, 1.0)) * np.eye(d)
        P = scheduling.lyapunov_weight([A])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(d))
        assert rel_diff(P, ref) <= 1e-12
        assert lyapunov_residual(A, P) <= lyapunov_residual(A, ref)

    def test_small_gain_weight(self, k4_149):
        """Criterion 6's matrix decays at 2e-8 against ||A|| = 9, so ||P|| is
        about 1e13.  The weight must solve its equation no worse than scipy,
        and its log-norm is then -1 / (2 lam_max(P)).  It reads 1.1e-6
        relative off that value: storing P in doubles moves the exact
        log-norm by 2e-7 and forming P A + A^T P in doubles by the rest
        (checked in 50-digit arithmetic), so 1e-6 would sit on the rounding
        floor and 1e-5 bounds it with margin; scipy's own P reads 7e-4 off."""
        cfg = observer.ObserverConfig(observed=(1,), psi=(1e-6,), theta=(1e-6,))
        A = observer.assemble_observer_A(k4_149.L, *observer.gain_matrices(cfg, 4))
        P = scheduling.lyapunov_weight([A])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(8))
        assert lyapunov_residual(A, P) <= lyapunov_residual(A, 0.5 * (ref + ref.T))
        exact = -1.0 / (2.0 * np.linalg.eigvalsh(P).max())
        assert scheduling.weighted_log_norm(A, P) == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("d", [2, 8, 40])
    def test_log_norm_matches_generalized_eigh(self, d):
        rng = np.random.default_rng(10 + d)
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        P = B @ B.T + 0.1 * np.eye(d)
        vals = scipy.linalg.eigh(P @ A + A.T @ P, 2.0 * P, eigvals_only=True)
        assert abs(scheduling.weighted_log_norm(A, P) - vals.max()) <= 1e-12 * np.abs(vals).max()


class TestHurwitz:
    def test_margin_scales_with_norm(self):
        # decay at rounding level relative to ||A|| is not decay
        assert not scheduling.hurwitz(np.diag([-1e-13, -4.0]))
        assert scheduling.hurwitz(np.diag([-1e-10, -4.0]))
        assert scheduling.hurwitz(np.diag([-1e-10, -4.0]), tol=0.0)
        assert not scheduling.hurwitz(np.diag([-1e-10, -4.0]), tol=1e-7)

    def test_small_gain_observer_matrices(self, topo2, k4_149):
        cfg = observer.ObserverConfig(observed=(1,), psi=(1e-6,), theta=(1e-6,))
        Phi, Theta = observer.gain_matrices(cfg, 4)
        # max Re = -2.5e-17: one mode is undamped up to rounding
        blind = observer.assemble_observer_A(topo2.L, Phi, Theta)
        assert not scheduling.hurwitz(blind)
        # max Re = -2.06e-8 at ||A|| = 9: slow but genuine decay
        slow = observer.assemble_observer_A(k4_149.L, Phi, Theta)
        assert scheduling.hurwitz(slow)
        # the weight comes from the slow matrix, not from the blind one
        np.testing.assert_array_equal(
            scheduling.lyapunov_weight([blind, slow]), scheduling.lyapunov_weight([slow])
        )


def normalized_residual(A, P) -> float:
    """||A^T P + P A + I||_F / (2 ||A||_F ||P||_F), the measure LYAP_RTOL bounds."""
    R = A.T @ P + P @ A + np.eye(len(A))
    return float(np.linalg.norm(R) / (2.0 * np.linalg.norm(A) * np.linalg.norm(P)))


def observer_matrix(topology, observed, psi, theta):
    cfg = observer.ObserverConfig(observed=observed, psi=psi, theta=theta)
    return observer.assemble_observer_A(topology.L,
                                        *observer.gain_matrices(cfg, topology.n))


def critically_damped_path():
    """The 2-agent path observed at agent 1 with psi = 1, theta = 2: the
    observer matrix has the double pair -1/2 +- i sqrt(3)/2, so its
    eigenvector matrix is nearly singular (cond(V) about 1e8)."""
    return observer_matrix(graphs.Topology.from_edges(1, 2, [(1, 2, 1.0)]), (1,), (1.0,), (2.0,))


def random_hurwitz_observer(seed):
    """A Hurwitz observer matrix at n = 2..64 with gains over 1e-6..1e3.
    Every third draw observes every agent with uniform gains and puts theta
    within 1e-12..1e-2 of critical damping for one Laplacian mode mu, theta^2
    = 4 (mu + psi), so two eigenvalues of the matrix nearly coincide."""
    rng = np.random.default_rng(seed)
    n = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)[seed % 11]
    while True:
        topology = random_connected_topology(rng, n)
        gain = 10.0 ** rng.uniform(-6, 3)
        if seed % 3 == 2:
            observed, psi = tuple(range(1, n + 1)), (gain,) * n
            mu = rng.choice(np.linalg.eigvalsh(topology.L))
            theta = (2.0 * math.sqrt(mu + gain) * (1.0 + 10.0 ** rng.uniform(-12, -2)),) * n
        else:
            size = int(rng.integers(1, min(n, 3) + 1))
            observed = tuple(int(i) for i in rng.choice(np.arange(1, n + 1), size, replace=False))
            psi, theta = (tuple(gain * 10.0 ** rng.uniform(-0.5, 0.5, size)) for _ in "pt")
        A = observer_matrix(topology, observed, psi, theta)
        if scheduling.hurwitz(A):
            return A


class TestLyapunovWeight:
    """The weight from one eigendecomposition, with the sign iteration as
    the fallback where the eigenvectors are nearly dependent, against
    scipy's Bartels-Stewart solve."""

    @pytest.mark.parametrize("seed", range(33))
    def test_residual_within_tolerance_and_agrees_with_scipy(self, seed):
        """Each P solves its equation to LYAP_RTOL, and lies within the two
        solutions' error bounds of scipy's.  The inverse of X -> A^T X + X A
        has norm ||P||_2 for a Hurwitz A, so a normalized residual r bounds
        the relative error by 2 ||A|| ||P|| r.  Both residuals sit at the
        rounding level, so neither orders the two solutions: on seed 23 (n = 3)
        P's reads 9.5e-17 and scipy's 2.0e-17, while against a 50-digit solve
        P errs by 1.2e-15 and scipy's by 1.1e-15."""
        A = random_hurwitz_observer(seed)
        P = scheduling.lyapunov_weight([A])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(len(A)))
        r, r_ref = normalized_residual(A, P), normalized_residual(A, ref)
        assert r <= scheduling.LYAP_RTOL
        bound = 2.0 * np.linalg.norm(A) * np.linalg.norm(P) * (r + r_ref)
        assert np.linalg.norm(P - ref) <= bound * np.linalg.norm(ref)
        np.testing.assert_array_equal(P, P.T)

    def test_critically_damped_path_matches_scipy(self):
        A = critically_damped_path()
        P = scheduling.lyapunov_weight([A])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(4))
        assert normalized_residual(A, P) <= scheduling.LYAP_RTOL
        assert rel_diff(P, ref) <= 1e-12

    @staticmethod
    def without_sign_iteration(monkeypatch):
        def refuse(A):
            raise AssertionError("sign iteration reached")

        monkeypatch.setattr(scheduling, "_lyapunov", refuse)

    def test_scale_shaped_observer_needs_no_sign_iteration(self, monkeypatch):
        """n = 64 with unit gains at agent 1, as in the scale benchmark: the
        eigendecomposition's weight passes the residual gate."""
        rng = np.random.default_rng(100)
        while True:
            A = observer_matrix(random_connected_topology(rng, 64), (1,), (1.0,), (1.0,))
            if scheduling.hurwitz(A):
                break
        self.without_sign_iteration(monkeypatch)
        assert normalized_residual(A, scheduling.lyapunov_weight([A])) <= scheduling.LYAP_RTOL

    def test_critically_damped_path_needs_sign_iteration(self, monkeypatch):
        self.without_sign_iteration(monkeypatch)
        with pytest.raises(AssertionError, match="sign iteration reached"):
            scheduling.lyapunov_weight([critically_damped_path()])

    def test_rotations_near_the_margin(self):
        """Rotation blocks with omega = (1, 3) damped at 2e-12 * omega_max
        in a random orthogonal basis: the sign iteration alone reaches only
        a normalized residual of about 4e-11 there, scipy about 1e-16."""
        rng = np.random.default_rng(0)
        damping = -2e-12 * 3.0
        B = scipy.linalg.block_diag(*([[damping, w], [-w, damping]] for w in (1.0, 3.0)))
        Q, _ = np.linalg.qr(rng.normal(size=B.shape))
        A = Q @ B @ Q.T
        P = scheduling.lyapunov_weight([A])
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(4))
        assert normalized_residual(A, P) <= 2.0 * normalized_residual(A, ref)
