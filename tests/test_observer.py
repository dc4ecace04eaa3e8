import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zdalab import attacks, graphs, observer, scenario, scheduling, simulation
from zdalab.observer import (
    ObserverConfig,
    assemble_observer_A,
    detect,
    gain_matrices,
    run_observer,
)
from zdalab.scheduling import hurwitz

from conftest import random_connected_topology
from test_scenario_cli import stealth_doc
from test_simulation import closed_form_oracle, rk4, row_gap, topology_before


class TestConfig:
    def test_valid_config_normalized(self):
        cfg = ObserverConfig(observed=(3, 1), psi=(0.0, 1.0), theta=(1.0, 0.0))
        assert cfg.observed == (1, 3)
        assert cfg.psi == (1.0, 0.0) and cfg.theta == (0.0, 1.0)

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
        L = topo1.L
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
        assert hurwitz(assemble_observer_A(t.L, Phi, Theta))

    def test_cycle_c4_repeated_spectrum_not_hurwitz(self):
        t = graphs.Topology.from_edges(
            1, 4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)]
        )
        cfg = ObserverConfig(observed=(1,), psi=(0.7,), theta=(0.9,))
        Phi, Theta = gain_matrices(cfg, 4)
        assert not hurwitz(assemble_observer_A(t.L, Phi, Theta))


class TestRunObserver:
    def setup_run(self, topo1, topo2, horizon=20.0, dt=0.1):
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(
            order=(topo1, topo2), dwell={topo1: tau, topo2: tau}, horizon=horizon
        )
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate(sched, z0, dt=dt)
        return sched, z0, tr

    def test_perfect_initialization_keeps_residual_zero(self, topo1, topo2):
        sched, z0, tr = self.setup_run(topo1, topo2)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        run = run_observer(tr, cfg)
        assert np.max(np.abs(run.residuals)) < 1e-10

    def test_rejects_segments_that_miss_a_sample(self, topo1, topo2):
        _, _, tr = self.setup_run(topo1, topo2)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        with pytest.raises(ValueError, match="do not step through every sample"):
            run_observer(dataclasses.replace(tr, segments=tr.segments[:-1]), cfg)

    def test_matches_exact_error_dynamics_on_fixed_topology(self, topo1):
        sched = scheduling.SwitchingSchedule(order=(topo1,), dwell={topo1: 100.0}, horizon=30.0)
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate(sched, z0, dt=1.0)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        zhat0 = np.array([1, 1, 3, 5.0, 1, 1, 4, 4.0])
        run = run_observer(tr, cfg, zhat0=zhat0)
        Phi, Theta = gain_matrices(cfg, 4)
        A_err = assemble_observer_A(topo1.L, Phi, Theta)
        e0 = zhat0 - z0
        for k, t in enumerate(tr.times):
            e_sim = run.error[k]
            e_exact = scipy.linalg.expm(A_err * t) @ e0
            assert np.linalg.norm(e_sim - e_exact) < 1e-10

    def test_trace_without_an_attack_mode_reads_as_no_attack(self, topo1, topo2):
        sched, z0, tr = self.setup_run(topo1, topo2)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        bare = dataclasses.replace(tr, Eta=None, G=None)
        zhat0 = np.r_[z0[:4] + 0.1, z0[4:]]
        np.testing.assert_array_equal(run_observer(bare, cfg, zhat0=zhat0).error,
                                      run_observer(tr, cfg, zhat0=zhat0).error)

    def test_no_attack_never_alarms(self, topo1, topo2):
        sched, z0, tr = self.setup_run(topo1, topo2, horizon=40.0)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,), alarm_threshold=1e-6)
        run = run_observer(tr, cfg)
        assert detect(tr.times, run.residuals, cfg) is None

    def test_wrong_initialization_with_large_gains_converges(self, k4_149):
        # needs a graph whose Laplacian eigenvectors all touch the observed
        # agent; symmetric graphs can hide a mode from a single sensor
        sched = scheduling.SwitchingSchedule(order=(k4_149,), dwell={k4_149: 1e4}, horizon=700.0)
        z0 = np.array([1, 2, 3, 4, 0.5, 0, -0.5, 0], float)
        tr = simulation.simulate(sched, z0, dt=0.5)
        cfg = ObserverConfig(observed=(1,), psi=(1.0,), theta=(1.0,))
        run = run_observer(tr, cfg, zhat0=np.zeros(8))
        err = np.linalg.norm(run.error, axis=1)
        assert err[-1] < 1e-2 * err[0]

    def test_huge_steps_take_the_exponential(self, topo1, topo2, monkeypatch):
        """Partial steps of 5e5 put ||J||_1 tau far above the Taylor budget
        of d products; they go to the stacked exponential (an overflowing
        product is refused the same way, see ``taylor_plan``'s tests)."""
        def refused(*args):
            raise AssertionError("Taylor action taken for a huge step")

        monkeypatch.setattr(observer, "expm_action", refused)
        sched = scheduling.SwitchingSchedule(
            order=(topo1, topo2), dwell={topo1: 2.5e6, topo2: 2.5e6}, horizon=1e7
        )
        tr = simulation.simulate(sched, np.ones(8), dt=1e6)
        assert 5e5 in {float(seg.steps[0]) for seg in tr.segments}
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        run = run_observer(tr, cfg)
        assert np.max(np.abs(run.residuals)) < 1e-10

    def test_segments_stack_unless_their_table_would_outgrow_their_rows(self, topo1, topo2,
                                                                         monkeypatch):
        """A segment of at least 2d samples (d = 8 here) takes its partial
        steps from the stacked exponential, also those the Taylor action
        could take; a shorter one takes the action where that costs at most
        d matrix-vector products.  Both agree with scipy's exponential of
        each step."""
        actions, stacked = [], set()

        def action(A, v, t, m, s, expm_action=observer.expm_action):
            actions.append((t, m * s))
            return expm_action(A, v, t, m, s)

        def exponential(M, expm=observer.expm):
            stacked.update(M[:, 0, 4].tolist())  # J tau holds tau where J holds 1
            return expm(M)

        monkeypatch.setattr(observer, "expm_action", action)
        monkeypatch.setattr(observer, "expm", exponential)
        # 50 samples under topology 1, 3 or 4 under topology 2; the cycle
        # drifts against the lattice, so partial steps take many sizes
        sched = scheduling.SwitchingSchedule(
            order=(topo1, topo2), dwell={topo1: 5 + np.e / 100, topo2: 0.3 + np.pi / 100}, horizon=110.0
        )
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate(sched, z0, dt=0.1)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        e0 = np.array([0.5, 0, 0, -0.5, 0, 0.5, 0, 0])
        run = run_observer(tr, cfg, zhat0=z0 + e0)
        Phi, Theta = gain_matrices(cfg, 4)
        norms = {seg.topology: np.abs(assemble_observer_A(seg.topology.L, Phi, Theta)).sum(axis=0).max()
                 for seg in tr.segments}
        short, long = set(), set()
        for seg in tr.segments:
            partial = {(seg.topology, tau) for tau in (seg.steps[0], seg.steps[-1]) if tau != tr.dt}
            (short if len(seg.steps) < 16 else long).update(partial)
        assert actions and all(cost <= 8 for _, cost in actions)
        assert {tau for tau, _ in actions} <= {tau for _, tau in short}
        assert {tau for _, tau in long} <= stacked
        assert any(simulation.taylor_plan(norms[t] * tau, 8) for t, tau in long)
        oracle = sequential_errors(tr, cfg, e0)
        assert np.abs(run.error - oracle).max() <= 1e-12 * np.abs(oracle).max()


class TestExponentialBlocks:
    """The observer's exponentials come in blocks of consecutive segments
    holding at most EXPM_BLOCK_VALUES values, one stack per drift per block."""

    @staticmethod
    def run_counted(doc, monkeypatch, cap):
        calls = []

        def counted(M, expm=observer.expm):
            calls.append(M.shape)
            return expm(M)

        monkeypatch.setattr(observer, "expm", counted)
        monkeypatch.setattr(observer, "EXPM_BLOCK_VALUES", cap)
        sc = scenario.load_scenario(doc)
        atk, _ = scenario.synthesize_for(sc)
        z0 = np.array(sc.initial) + atk.delta_z0
        tr = simulation.simulate(sc.schedule, z0, attack=atk, dt=sc.dt)
        run = run_observer(tr, sc.observer_cfg,
                           zhat0=np.array(sc.initial))
        drifts = {seg.topology for seg in tr.segments}
        return run.residuals, calls, len(drifts), len(tr.segments)

    def test_stealth_n4_shape_takes_one_stack_per_drift(self, monkeypatch):
        """The README stealth demo's shape (8,638 samples over 239 segments)
        fits one block: 2 exponentials, one per topology's drift, where one
        per segment made 207."""
        doc = stealth_doc(horizon=420.0, attack={"synthesize": True, "rho": 110.0, "eta_target": 0.05})
        _, calls, drifts, segments = self.run_counted(doc, monkeypatch, simulation.EXPM_BLOCK_VALUES)
        assert (len(calls), drifts, segments) == (2, 2, 239)

    @pytest.mark.parametrize("per_block", [1, 4, 12])
    def test_blocks_change_no_bit(self, monkeypatch, per_block):
        """With room for 1, 4 or 12 segments per block (three new 9 x 9
        propagators each), a stealth run takes several blocks, each stack
        within the bound, and its residuals equal the unbounded run's bit for
        bit: on this scenario every block's stack takes the same Pade degree
        and scaling as the whole run's."""
        doc = stealth_doc()
        whole, calls, drifts, _ = self.run_counted(doc, monkeypatch, 10**12)
        assert len(calls) == drifts
        cap = 3 * 9 * 9 * per_block
        residuals, calls, drifts, segments = self.run_counted(doc, monkeypatch, cap)
        blocks = -(-segments // per_block)
        assert drifts < len(calls) <= drifts * blocks
        assert all(math.prod(shape) <= cap for shape in calls)
        assert np.array_equal(residuals, whole)

    def test_whole_steps_at_segment_ends_take_p_in_later_blocks(self, topo1, topo2, monkeypatch):
        """Dwell times on the lattice make segments start with a whole dt
        step, which a block after the first takes from the P it kept."""
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: 2.0, topo2: 2.0}, horizon=20.0)
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate(sched, z0, dt=0.5)
        assert all(seg.steps[0] == tr.dt for seg in tr.segments)
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        zhat0 = np.array([1, 1, 3, 5.0, 1, 1, 4, 4.0])
        whole = run_observer(tr, cfg, zhat0=zhat0).residuals
        monkeypatch.setattr(observer, "EXPM_BLOCK_VALUES", 1)  # one segment per block
        assert np.array_equal(run_observer(tr, cfg, zhat0=zhat0).residuals, whole)


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
            order=(topo1, topo2), dwell={topo1: tau, topo2: tau}, horizon=7.0
        )
        rho = 2.6
        atk = attacks.ZdaAttack(
            eta=eta, rho=rho, g0=g0, delta_z0=np.ones(8), attacked=(2, 4)
        )
        z0 = np.array([1, 2, 3, 4, 0.5, 0, -0.5, 0], float)
        tr = simulation.simulate(sched, z0, attack=atk, dt=0.25)
        cfg = ObserverConfig(observed=(1, 3), psi=(0.8, 0.4), theta=(0.6, 0.9))
        zhat0 = np.array([0.5, 2, 3.5, 4, 0, 0, -0.5, 0.5])
        run = run_observer(tr, cfg, zhat0=zhat0)

        phi = np.array([0.8, 0, 0.4, 0])
        theta = np.array([0.6, 0, 0.9, 0])
        L_by_id = {1: topo1.L, 2: topo2.L}
        w = np.concatenate([z0, zhat0])
        oracle = [w[8:]]
        for a, b in zip(tr.times[:-1], tr.times[1:]):
            L = L_by_id[topology_before(sched, 0.5 * (a + b))]
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
        est = tr.states + run.error
        assert np.abs(est - oracle).max() < 1e-8 * np.abs(oracle).max()
        assert np.abs(tr.states - oracle).max() > 1e-3


    def test_long_dormant_span_before_a_fast_attack(self, topo1):
        """One topology under an attack at eta = 15 from rho = 120: over the
        dormant span its exponential would reach e^1800, and the mode block
        of P^1024 overflows before P^2048 is squared from it, yet a zero
        mode forces nothing.  The plant reaches the horizon finite and
        matches its closed form, and the observer's errors match the
        per-step oracle."""
        sched = scheduling.SwitchingSchedule(order=(topo1,), dwell={topo1: 1e9}, horizon=130.0)
        atk = attacks.ZdaAttack(eta=15.0, rho=120.0, g0=np.array([1.0, -0.5]),
                                delta_z0=1e-3 * np.eye(8)[3], attacked=(2, 3))
        z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
        tr = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.05)
        assert tr.times[-1] == 130.0 and tr.blowup_time is None and np.isfinite(tr.states).all()
        assert row_gap(tr.states, closed_form_oracle(tr)) <= 1e-13
        cfg = ObserverConfig(observed=(1,), psi=(1.0,), theta=(1.0,))
        run = run_observer(tr, cfg, zhat0=z0)
        assert np.isfinite(run.error).all()
        assert row_gap(run.error, sequential_errors(tr, cfg, -atk.delta_z0)) <= 1e-13


def sequential_errors(tr, cfg, e0):
    """The per-step oracle: the joint (mode, error) state of each segment
    advanced sample by sample with scipy's exponential of each step."""
    n = tr.n
    Phi, Theta = gain_matrices(cfg, n)
    err = [np.asarray(e0, float)]
    for seg in tr.segments:
        A_obs = assemble_observer_A(seg.topology.L, Phi, Theta)
        d = len(seg.mode0)
        J = np.block([[tr.Eta, np.zeros((d, 2 * n))], [-tr.G, A_obs]])
        props = {tau: scipy.linalg.expm(J * tau) for tau in set(seg.steps.tolist())}
        state = np.concatenate([seg.mode0, err[-1]])
        for tau in seg.steps.tolist():
            state = props[tau] @ state
            err.append(state[d:])
    return np.array(err)


class TestLargeNetwork:
    """A seeded random pair at n = 64 (d = 128, or 129 with the attack mode):
    the partial steps take the Taylor action (61 of them) and the steady runs
    are filled by doubling, with one exponential per drift."""

    def test_matches_per_step_oracle_with_one_expm_per_drift(self, monkeypatch):
        rng = np.random.default_rng(64)
        n, horizon = 64, 52.5
        topologies = []
        for tid in (1, 2):
            a = random_connected_topology(rng, n).adjacency
            # a largest weighted degree of n/2 keeps ||J||_1 dt near 3.2
            a = a * ((n / 2) / a.sum(axis=1).max())
            topologies.append(graphs.Topology(id=tid, n=n, adjacency=a))
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(order=tuple(topologies), dwell=dict.fromkeys(topologies, tau),
                                             horizon=horizon)
        atk = attacks.ZdaAttack(
            eta=0.1, rho=horizon / 2, g0=np.array([1.0, -0.5]),
            delta_z0=1e-3 * np.eye(2 * n)[0], attacked=(2, 3),
        )
        z0 = rng.uniform(0.5, 4.5, 2 * n)
        tr = simulation.simulate(sched, z0, attack=atk, dt=0.05)
        cfg = ObserverConfig(observed=(1,), psi=(1.0,), theta=(1.0,))
        calls, actions = [], []

        def counted(M, expm=observer.expm):
            calls.append(M.shape)
            return expm(M)

        def action(A, v, t, m, s, expm_action=observer.expm_action):
            actions.append(t)
            return expm_action(A, v, t, m, s)

        monkeypatch.setattr(observer, "expm", counted)
        monkeypatch.setattr(observer, "expm_action", action)
        run = run_observer(tr, cfg)
        drifts = {seg.topology for seg in tr.segments}
        assert len(calls) == len(drifts) == 2
        assert len(actions) == 61
        oracle = sequential_errors(tr, cfg, np.zeros(2 * n))[:, [0]]
        assert np.abs(run.residuals - oracle).max() <= 1e-12 * np.abs(oracle).max()
        alarm = detect(tr.times, run.residuals, cfg)
        assert alarm is not None and alarm > atk.rho
        assert alarm == detect(tr.times, oracle, cfg)


class TestChainAndFill:
    """The observer's two passes, a chain of segment end errors and one
    batched doubling fill per drift, against the per-step oracle: every
    error within 1e-12 of the largest."""

    @staticmethod
    def check(tr, cfg, e0, monkeypatch=None):
        actions = []
        if monkeypatch is not None:
            def action(A, v, t, m, s, expm_action=observer.expm_action):
                actions.append(t)
                return expm_action(A, v, t, m, s)

            monkeypatch.setattr(observer, "expm_action", action)
        n = tr.n
        run = run_observer(tr, cfg, zhat0=tr.states[0] + e0)
        oracle = sequential_errors(tr, cfg, e0)
        assert np.abs(run.error - oracle).max() <= 1e-12 * np.abs(oracle).max()
        idx = [i - 1 for i in cfg.observed]
        assert np.abs(run.residuals - oracle[:, idx]).max() <= 1e-12 * np.abs(oracle).max()
        return actions

    def test_stealth_n4_shape(self, monkeypatch):
        """239 segments: each of at least 2d = 18 samples (d = 9) ends
        through its stacked propagator, and of the short segments at the
        attack start and at the horizon, one partial step takes the Taylor
        action."""
        doc = stealth_doc(horizon=420.0, attack={"synthesize": True, "rho": 110.0, "eta_target": 0.05})
        sc = scenario.load_scenario(doc)
        atk, _ = scenario.synthesize_for(sc)
        z0 = np.array(sc.initial) + atk.delta_z0
        tr = simulation.simulate(sc.schedule, z0, attack=atk, dt=sc.dt)
        assert (len(tr.times), len(tr.segments)) == (8638, 239)
        e0 = np.array(sc.initial) - z0
        assert len(self.check(tr, sc.observer_cfg, e0, monkeypatch)) == 1

    def test_seeded_n16_pair(self, monkeypatch):
        """At n = 16 (d = 32 or 33) segments of 35 samples are shorter than
        2d: partial steps within the budget take the Taylor action and the
        others are stacked, so both kinds of chain link run."""
        rng = np.random.default_rng(16)
        n = 16
        topologies = []
        for tid in (1, 2):
            a = random_connected_topology(rng, n).adjacency
            a = a * ((n / 2) / a.sum(axis=1).max())
            topologies.append(graphs.Topology(id=tid, n=n, adjacency=a))
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(order=tuple(topologies), dwell=dict.fromkeys(topologies, tau),
                                             horizon=30.0)
        atk = attacks.ZdaAttack(eta=0.2, rho=12.0, g0=np.array([1.0, -0.5]),
                                delta_z0=1e-3 * np.eye(2 * n)[0], attacked=(2, 3))
        tr = simulation.simulate(sched, rng.uniform(0.5, 4.5, 2 * n), attack=atk, dt=0.05)
        cfg = ObserverConfig(observed=(1, 5), psi=(1.0, 0.5), theta=(1.0, 2.0))
        actions = self.check(tr, cfg, 1e-2 * rng.normal(size=2 * n), monkeypatch)
        assert 0 < len(actions) < 2 * len(tr.segments)

    def test_complex_rate(self, topo1, topo2):
        """A complex rate's two mode columns fill work's row: d = 2n + 2."""
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell={topo1: tau, topo2: tau}, horizon=40.0)
        atk = attacks.ZdaAttack(eta=0.15 + 0.9j, rho=9.1, g0=np.array([0.02 + 0.01j, -0.01 + 0.03j]),
                                delta_z0=np.ones(8), attacked=(2, 4))
        z0 = np.array([1, 2, 3, 4, 0.5, 0, -0.5, 0], float)
        tr = simulation.simulate(sched, z0, attack=atk, dt=0.05)
        cfg = ObserverConfig(observed=(1, 3), psi=(0.8, 0.4), theta=(0.6, 0.9))
        self.check(tr, cfg, np.array([-0.5, 0, 0.5, 0, -0.5, 0, 0, 0.5]))

    @pytest.mark.parametrize("dwell, counts", [((0.3, 0.2), {1}), ((0.45, 0.4), {1, 2})],
                             ids=["one-sample", "two-sample"])
    def test_segments_of_one_and_two_samples(self, topo1, topo2, dwell, counts):
        """With dt at least the dwell, segments hold one or two samples: no
        sample lies inside a segment, and the chain alone writes the trace."""
        sched = scheduling.SwitchingSchedule(order=(topo1, topo2), dwell=dict(zip((topo1, topo2), dwell)), horizon=30.0)
        atk = attacks.ZdaAttack(eta=0.1, rho=10.2, g0=np.array([0.02, -0.01]),
                                delta_z0=1e-3 * np.eye(8)[0], attacked=(2, 4))
        z0 = np.array([1, 2, 3, 4, 0.5, 0, -0.5, 0], float)
        tr = simulation.simulate(sched, z0, attack=atk, dt=0.5)
        assert {len(seg.steps) for seg in tr.segments} == counts
        cfg = ObserverConfig(observed=(1,), psi=(0.5,), theta=(0.5,))
        self.check(tr, cfg, np.array([0.5, 0, 0, -0.5, 0, 0.5, 0, 0]))


def test_residuals_are_the_error_on_the_observed_positions():
    """``residuals`` is ``error[:, observed - 1]`` bit for bit, on the stealth
    scenario with two agents observed, listed out of order."""
    sc = scenario.load_scenario(stealth_doc(
        observed=[2, 1], observer={"psi": [3, 1], "theta": [0.5, 2], "threshold": 1e-6, "window": 5}))
    atk, _ = scenario.synthesize_for(sc)
    z0 = np.array(sc.initial) + atk.delta_z0
    tr = simulation.simulate(sc.schedule, z0, attack=atk, dt=sc.dt)
    run = run_observer(tr, sc.observer_cfg, zhat0=np.array(sc.initial))
    assert run.error.shape == tr.states.shape
    assert np.abs(run.error).max() > 0.0
    assert np.array_equal(run.residuals, run.error[:, [0, 1]])


class TestStealthErrorClosedForm:
    @pytest.mark.parametrize("dwell", [None, 40.0], ids=["test-dwell", "long-dwell"])
    def test_error_is_minus_the_attack_response(self, dwell):
        """Under a stealthy attack the output correction never acts, so the
        observer error is minus the plant's response to (delta_z0, attack)
        from the zero state; each row within 1e-10 of its own size, over
        steady runs of 35 and of 800 samples."""
        doc = stealth_doc()
        if dwell is not None:
            doc = stealth_doc(dwell={"1": dwell, "2": dwell}, horizon=400.0)
        sc = scenario.load_scenario(doc)
        atk, _ = scenario.synthesize_for(sc)
        z0 = np.array(sc.initial) + atk.delta_z0
        tr = simulation.simulate(sc.schedule, z0, attack=atk, dt=sc.dt)
        run = run_observer(tr, sc.observer_cfg,
                           zhat0=np.array(sc.initial))
        e = run.error
        response = simulation.simulate(sc.schedule, atk.delta_z0, attack=atk, dt=sc.dt).states
        assert np.all(np.abs(e + response).max(axis=1) <= 1e-10 * np.abs(e).max(axis=1))


class TestPartialTrace:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_observer_aligns_with_partial_trace(self, topo1, topo2):
        tau = np.pi / 2 + 0.2
        sched = scheduling.SwitchingSchedule(
            order=(topo1, topo2), dwell={topo1: tau, topo2: tau}, horizon=1000.0
        )
        atk = attacks.ZdaAttack(
            eta=2.0, rho=0.0, g0=np.array([1e-2]), delta_z0=np.eye(8)[0], attacked=(2,)
        )
        partial = simulation.simulate(sched, np.ones(8), attack=atk, dt=0.3)
        assert partial.blowup_time is not None
        steps = sum(len(seg.steps) for seg in partial.segments)
        assert steps == len(partial.times) - 1
        cfg = ObserverConfig(observed=(1,), psi=(1.0,), theta=(1.0,))
        run = run_observer(partial, cfg)
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

    @settings(max_examples=300, deadline=None)
    @given(
        r=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)),
                 elements=st.sampled_from([0.0, 5e-7, 1e-6, -1e-6, 2e-6, -3e-6])),
        window=st.integers(1, 45),
    )
    def test_matches_sample_loop(self, r, window):
        """The cumulative-sum scan alarms where a loop over the samples
        counting the current run of exceedances does, also when the window
        outlasts the trace."""
        times = 0.25 * np.arange(len(r))
        run, expected = 0, None
        for k, flag in enumerate(np.abs(r).max(axis=1) > 1e-6):
            run = run + 1 if flag else 0
            if run >= window:
                expected = float(times[k])
                break
        assert detect(times, r, self.cfg(window=window)) == expected

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
