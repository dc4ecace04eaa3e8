import math
from fractions import Fraction

import numpy as np
import pytest

from zdalab import graphs, scheduling
from zdalab.scheduling import DwellParams, ScheduleError, SwitchingSchedule


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
        s = SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 2.0}, horizon=7.0)
        assert s.switch_times == (1.0, 3.0, 4.0, 6.0)
        spans = list(s.intervals())
        assert spans[0] == (0.0, 1.0, 1)
        assert spans[-1] == (6.0, 7.0, 1)
        assert spans[-1][1] == s.horizon
        assert s.period == 3.0

    def test_right_continuity_at_switch_instant(self):
        s = SwitchingSchedule(order=(1, 2), dwell={1: 1.0, 2: 1.0}, horizon=4.0)
        assert scheduling.switching_signal(s, 0.0) == 1
        assert scheduling.switching_signal(s, 1.0) == 2
        assert scheduling.switching_signal(s, 1.0 - 1e-9) == 1
        assert scheduling.switching_signal(s, 2.5) == 1

    def test_time_outside_horizon_rejected(self):
        s = SwitchingSchedule(order=(1,), dwell={1: 1.0}, horizon=2.0)
        with pytest.raises(ScheduleError):
            scheduling.switching_signal(s, -0.5)
        with pytest.raises(ScheduleError):
            scheduling.switching_signal(s, 3.0)

    def test_json_round_trip(self):
        s = SwitchingSchedule(order=(2, 1), dwell={1: 0.5, 2: 1.5}, horizon=10.0)
        back = SwitchingSchedule.from_json(s.to_json())
        assert back.order == s.order
        assert back.dwell == s.dwell
        assert back.switch_times == s.switch_times

    def test_missing_dwell_rejected(self):
        with pytest.raises(ScheduleError):
            SwitchingSchedule(order=(1, 2), dwell={1: 1.0}, horizon=5.0)

    @pytest.mark.parametrize(
        "dwell, horizon",
        [
            ({1: 0.2 + 20000 * np.pi, 2: 0.2 + 20000 * np.pi}, 5e8),
            ({1: 0.2 + 3 * np.pi, 2: 0.2 + 4.5 * np.pi, 3: 0.7}, 1e5),
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
            SwitchingSchedule(order=(1, 2), dwell={1: 1e-300, 2: 1e-300}, horizon=60.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_dwell_rejected(self, bad):
        with pytest.raises(ScheduleError):
            SwitchingSchedule(order=(1,), dwell={1: bad}, horizon=10.0)


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
        spec = graphs.spectrum(graphs.laplacian(k4_149))
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
        with pytest.raises(ScheduleError):
            scheduling.measure_condition([-np.eye(2)], [1.0], np.zeros((2, 2)))


class TestHurwitz:
    def test_margin_scales_with_norm(self):
        # decay at rounding level relative to ||A|| is not decay
        assert not scheduling.hurwitz(np.diag([-1e-13, -4.0]))
        assert scheduling.hurwitz(np.diag([-1e-10, -4.0]))
        assert scheduling.hurwitz(np.diag([-1e-10, -4.0]), tol=0.0)
        assert not scheduling.hurwitz(np.diag([-1e-10, -4.0]), tol=1e-7)

    def test_small_gain_observer_matrices(self, topo2, k4_149):
        from zdalab import observer

        cfg = observer.ObserverConfig(observed=(1,), psi=(1e-6,), theta=(1e-6,))
        Phi, Theta = observer.gain_matrices(cfg, 4)
        # max Re = -2.5e-17: one mode is undamped up to rounding
        blind = observer.assemble_observer_A(graphs.laplacian(topo2), Phi, Theta)
        assert not scheduling.hurwitz(blind)
        # max Re = -2.06e-8 at ||A|| = 9: slow but genuine decay
        slow = observer.assemble_observer_A(graphs.laplacian(k4_149), Phi, Theta)
        assert scheduling.hurwitz(slow)
        # the weight comes from the slow matrix, not from the blind one
        np.testing.assert_array_equal(
            scheduling.lyapunov_weight([blind, slow]), scheduling.lyapunov_weight([slow])
        )

    def test_observer_uses_the_same_predicate(self):
        from zdalab import observer

        assert observer.hurwitz is scheduling.hurwitz
