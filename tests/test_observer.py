import numpy as np
import pytest
import scipy.linalg

from zdalab import attacks, graphs, observer, scheduling, simulation
from zdalab.observer import (
    ObserverConfig,
    assemble_observer_A,
    detect,
    gain_matrices,
    hurwitz,
    run_observer,
)
from zdalab.scheduling import ScheduleError

from test_simulation import rk4


class TestConfig:
    def test_valid_config_normalized(self):
        cfg = ObserverConfig(observed=(3, 1), psi=(0.0, 1.0), theta=(1.0, 0.0))
        assert cfg.observed == (1, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"observed": (), "psi": (), "theta": ()},
            {"observed": (1,), "psi": (0.0,), "theta": (1.0,)},
            {"observed": (1,), "psi": (1.0,), "theta": (0.0,)},
            {"observed": (1,), "psi": (-1.0,), "theta": (1.0,)},
            {"observed": (1,), "psi": (1.0, 2.0), "theta": (1.0,)},
            {"observed": (1,), "psi": (1.0,), "theta": (1.0,), "alarm_threshold": 0.0},
            {"observed": (1,), "psi": (1.0,), "theta": (1.0,), "alarm_window": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObserverConfig(**kwargs)

    def test_gain_matrices_placement(self):
        cfg = ObserverConfig(observed=(1, 3), psi=(2.0, 0.0), theta=(0.0, 5.0))
        Phi, Theta = gain_matrices(cfg, 4)
        assert Phi[0, 0] == 2.0 and Phi[2, 2] == 0.0 and Phi.sum() == 2.0
        assert Theta[2, 2] == 5.0 and Theta.sum() == 5.0


class TestErrorDynamics:
    def test_zero_gains_reduce_to_plant_matrix(self, topo1):
        L = graphs.laplacian(topo1)
        A = assemble_observer_A(L, np.zeros((4, 4)), np.zeros((4, 4)))
        np.testing.assert_array_equal(A, simulation.assemble_A(L))

    def test_scalar_example_hurwitz(self):
        A = assemble_observer_A(np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(A, [[0.0, 1.0], [-1.0, -1.0]])
        assert hurwitz(A)

    def test_minus_identity_hurwitz(self):
        assert hurwitz(-np.eye(3))
        assert not hurwitz(np.zeros((2, 2)))

    def test_path_p4_distinct_spectrum_hurwitz(self):
        t = graphs.Topology.from_edges(1, 4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        cfg = ObserverConfig(observed=(1,), psi=(0.7,), theta=(0.9,))
        Phi, Theta = gain_matrices(cfg, 4)
        assert hurwitz(assemble_observer_A(graphs.laplacian(t), Phi, Theta))

    def test_cycle_c4_repeated_spectrum_not_hurwitz(self):
        t = graphs.Topology.from_edges(
            1, 4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)]
        )
        cfg = ObserverConfig(observed=(1,), psi=(0.7,), theta=(0.9,))
        Phi, Theta = gain_matrices(cfg, 4)
        assert not hurwitz(assemble_observer_A(graphs.laplacian(t), Phi, Theta))


class TestRunObserver:
    def setup_run(self, topo1, topo2, horizon=20.0, dt=0.1):
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(
            order=(1, 2), dwell={1: tau, 2: tau}, horizon=horizon
        )
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate([topo1, topo2], sched, z0, dt=dt, observed=(1,))
        return sched, z0, tr

    def test_perfect_initialization_keeps_residual_zero(self, topo1, topo2):
        sched, z0, tr = self.setup_run(topo1, topo2)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        run = run_observer(tr, [topo1, topo2], sched, cfg)
        assert np.max(np.abs(run.residuals)) < 1e-10

    def test_matches_exact_error_dynamics_on_fixed_topology(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(1,), dwell={1: 100.0}, horizon=30.0)
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate([topo1], sched, z0, dt=1.0, observed=(1,))
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        xhat0, vhat0 = np.array([1, 1, 3, 5.0]), np.array([1, 1, 4, 4.0])
        run = run_observer(tr, [topo1], sched, cfg, xhat0=xhat0, vhat0=vhat0)
        Phi, Theta = gain_matrices(cfg, 4)
        A_err = assemble_observer_A(graphs.laplacian(topo1), Phi, Theta)
        e0 = np.concatenate([xhat0, vhat0]) - z0
        for k, t in enumerate(tr.times):
            e_sim = np.hstack([run.xhat[k], run.vhat[k]]) - tr.states[k]
            e_exact = scipy.linalg.expm(A_err * t) @ e0
            assert np.linalg.norm(e_sim - e_exact) < 1e-10

    def test_schedule_mismatch_rejected(self, topo1, topo2):
        sched, z0, tr = self.setup_run(topo1, topo2)
        other = scheduling.SwitchingSchedule(
            order=(2, 1), dwell={1: np.pi / 2 + 0.2, 2: np.pi / 2 + 0.2}, horizon=20.0
        )
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        with pytest.raises(ScheduleError):
            run_observer(tr, [topo1, topo2], other, cfg)

    def test_no_attack_never_alarms(self, topo1, topo2):
        sched, z0, tr = self.setup_run(topo1, topo2, horizon=40.0)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,), alarm_threshold=1e-6)
        run = run_observer(tr, [topo1, topo2], sched, cfg)
        assert detect(run.times, run.residuals, cfg) is None

    def test_wrong_initialization_with_large_gains_converges(self, k4_149):
        # needs a graph whose Laplacian eigenvectors all touch the observed
        # agent; symmetric graphs can hide a mode from a single sensor
        sched = scheduling.SwitchingSchedule(order=(1,), dwell={1: 1e4}, horizon=700.0)
        z0 = np.array([1, 2, 3, 4, 0.5, 0, -0.5, 0], float)
        tr = simulation.simulate([k4_149], sched, z0, dt=0.5, observed=(1,))
        cfg = ObserverConfig(observed=(1,), psi=(1.0,), theta=(1.0,))
        run = run_observer(
            tr, [k4_149], sched, cfg, xhat0=np.array([0, 0, 0, 0.0]), vhat0=np.zeros(4)
        )
        err = np.linalg.norm(np.hstack([run.xhat, run.vhat]) - tr.states, axis=1)
        assert err[-1] < 1e-2 * err[0]


class TestObserverUnderAttack:
    @pytest.mark.parametrize(
        "eta, g0",
        [
            (0.3, np.array([0.02, -0.01])),
            (0.15 + 0.9j, np.array([0.02 + 0.01j, -0.01 + 0.03j])),
        ],
        ids=["real-eta", "complex-eta"],
    )
    def test_matches_rk4_of_plant_and_observer(self, topo1, topo2, eta, g0):
        # the attack starts between two switches and stays active across the
        # later ones; the oracle integrates plant and observer as written
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(
            order=(1, 2), dwell={1: tau, 2: tau}, horizon=7.0
        )
        rho = 2.6
        atk = attacks.ZdaAttack(
            eta=eta, rho=rho, g0=g0, delta_z0=np.ones(8), attacked=(2, 4)
        )
        z0 = np.array([1, 2, 3, 4, 0.5, 0, -0.5, 0], float)
        tr = simulation.simulate([topo1, topo2], sched, z0, attack=atk, dt=0.25)
        cfg = ObserverConfig(observed=(1, 3), psi=(0.8, 0.4), theta=(0.6, 0.9))
        xhat0, vhat0 = np.array([0.5, 2, 3.5, 4]), np.array([0, 0, -0.5, 0.5])
        run = run_observer(tr, [topo1, topo2], sched, cfg, xhat0=xhat0, vhat0=vhat0)

        phi = np.array([0.8, 0, 0.4, 0])
        theta = np.array([0.6, 0, 0.9, 0])
        L_by_id = {1: graphs.laplacian(topo1), 2: graphs.laplacian(topo2)}
        w = np.concatenate([z0, xhat0, vhat0])
        oracle = [w[8:]]
        for a, b in zip(tr.times[:-1], tr.times[1:]):
            L = L_by_id[scheduling.switching_signal(sched, 0.5 * (a + b))]
            active = 0.5 * (a + b) > rho

            def f(t, w, L=L, active=active):
                x, v, xh, vh = w[:4], w[4:8], w[8:12], w[12:]
                u = np.zeros(4)
                if active:
                    u[[1, 3]] = np.real(g0 * np.exp(eta * (t - rho)))
                return np.concatenate([
                    v,
                    -L @ x + u,
                    vh,
                    -L @ xh - phi * (xh - x) - theta * (vh - v),
                ])

            w = rk4(f, w, a, b, 100)
            oracle.append(w[8:])
        oracle = np.array(oracle)
        est = np.hstack([run.xhat, run.vhat])
        assert np.abs(est - oracle).max() < 1e-8 * np.abs(oracle).max()
        assert np.abs(tr.states - oracle).max() > 1e-3


class TestPartialTrace:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_observer_aligns_with_partial_trace(self, topo1, topo2):
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(
            order=(1, 2), dwell={1: tau, 2: tau}, horizon=1000.0
        )
        atk = attacks.ZdaAttack(
            eta=2.0, rho=0.0, g0=np.array([1e-2]), delta_z0=np.eye(8)[0], attacked=(2,)
        )
        with pytest.raises(simulation.SimulationError) as err:
            simulation.simulate([topo1, topo2], sched, np.ones(8), attack=atk, dt=0.3)
        partial = err.value.trace
        steps = sum(len(seg.steps) for seg in partial.segments)
        assert steps == len(partial.times) - 1
        cfg = ObserverConfig(observed=(1,), psi=(1.0,), theta=(1.0,))
        run = run_observer(partial, [topo1, topo2], sched, cfg)
        assert run.residuals.shape == (len(partial.times), 1)


class TestDetect:
    def cfg(self, window=3):
        return ObserverConfig(
            observed=(1,), psi=(1.0,), theta=(1.0,), alarm_threshold=1e-6, alarm_window=window
        )

    def test_all_zero_no_alarm(self):
        times = np.arange(10.0)
        assert detect(times, np.zeros((10, 1)), self.cfg()) is None

    def test_step_alarm_at_end_of_window(self):
        times = np.arange(10.0)
        r = np.zeros((10, 1))
        r[4:, 0] = 1e-5
        # exceedances start at sample 4; with a window of 3 the alarm lands
        # on sample 6
        assert detect(times, r, self.cfg(window=3)) == 6.0

    def test_short_burst_below_window_ignored(self):
        times = np.arange(10.0)
        r = np.zeros((10, 1))
        r[4:6, 0] = 1e-5
        assert detect(times, r, self.cfg(window=3)) is None

    def test_empty_residuals_rejected(self):
        with pytest.raises(ValueError):
            detect(np.array([]), np.zeros((0, 1)), self.cfg())

    def test_decision_is_function_of_residuals_and_config_only(self):
        # the alarm path never sees the attack description: fabricated
        # residual series alone determine the decision
        times = np.arange(20.0)
        r = np.zeros((20, 1))
        r[10:, 0] = 1.0
        atk_irrelevant = attacks.ZdaAttack(
            eta=0.3, rho=5.0, g0=np.array([1.0]), delta_z0=np.ones(4), attacked=(2,)
        )
        del atk_irrelevant
        assert detect(times, r, self.cfg(window=5)) == 14.0
