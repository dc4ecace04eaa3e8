import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdalab import attacks, graphs, observer, scenario, scheduling, simulation
from zdalab.simulation import (
    SimulationError,
    assemble_A,
    assemble_C,
    attack_injection,
    consensus_error,
    propagate_interval,
    simulate,
)

from conftest import random_connected_topology


def rk4(f, z0, t0, t1, steps):
    """Classic fixed-step integrator, the independent oracle for the
    exact-exponential propagation."""
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
    def test_double_integrator_unit_drift(self):
        A = assemble_A(np.zeros((1, 1)))
        times, states, _ = propagate_interval(A, [0.0, 1.0], 0.0, 0.5, 1.0)
        np.testing.assert_allclose(states[-1], [1.0, 1.0], atol=1e-14)

    def test_vanishing_duration_is_continuous(self, topo1):
        A = assemble_A(graphs.laplacian(topo1))
        z0 = np.arange(8.0)
        _, states, _ = propagate_interval(A, z0, 0.0, 1.0, 1e-9)
        np.testing.assert_allclose(states[-1], z0, atol=1e-12)

    def test_dormant_attack_matches_no_attack(self, topo1):
        rng = np.random.default_rng(5)
        A = assemble_A(graphs.laplacian(topo1))
        z0 = rng.normal(size=8)
        atk = make_attack(rng, 4)
        _, plain, _ = propagate_interval(A, z0, 0.0, 0.1, 2.0)
        _, dormant, _ = propagate_interval(A, z0, 0.0, 0.1, 2.0, attack=atk, attack_active=False)
        np.testing.assert_allclose(plain, dormant, atol=0.0)

    def test_invalid_steps_rejected(self, topo1):
        A = assemble_A(graphs.laplacian(topo1))
        with pytest.raises(ValueError):
            propagate_interval(A, np.zeros(8), 0.0, 0.1, -1.0)
        with pytest.raises(ValueError):
            propagate_interval(A, np.zeros(8), 0.0, 0.0, 1.0)

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
        _, states, _ = propagate_interval(
            A, z0, 0.0, duration, duration, attack=atk, attack_active=True
        )

        def f(t, z):
            return A @ z + B @ np.real(atk.g0 * np.exp(atk.eta * t))

        oracle = rk4(f, z0, 0.0, duration, 4000)
        rel = np.linalg.norm(states[-1] - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-8

    def test_semigroup_property(self, topo2):
        rng = np.random.default_rng(8)
        A = assemble_A(graphs.laplacian(topo2))
        z0 = rng.normal(size=8)
        _, direct, _ = propagate_interval(A, z0, 0.0, 3.0, 3.0)
        _, first, _ = propagate_interval(A, z0, 0.0, 1.2, 1.2)
        _, second, _ = propagate_interval(A, first[-1], 1.2, 1.8, 1.8)
        rel = np.linalg.norm(direct[-1] - second[-1]) / np.linalg.norm(direct[-1])
        assert rel < 1e-10


class TestSimulate:
    def make_schedule(self, horizon=10.0):
        tau = np.pi / 2 + 0.2
        return scheduling.SwitchingSchedule(order=(1, 2), dwell={1: tau, 2: tau}, horizon=horizon)

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
        A = assemble_A(graphs.laplacian(topo1))
        with pytest.raises(ValueError, match="samples"):
            propagate_interval(A, np.ones(8), 0.0, 1e-12, 420.0)

    def test_expm_calls_bounded_by_segments(self, monkeypatch):
        """One steady propagator per (topology, attack active) drift; only the
        partial first and last step of a segment need their own."""
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
        assert 0 < calls["zdalab.simulation"] <= bound
        assert 0 < calls["zdalab.observer"] <= bound


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
