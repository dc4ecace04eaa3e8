"""Acceptance gate: one test per headline claim, each printing a single
pass/fail line.

Criterion 5 runs the attack-free plant under half-period dwell times and
checks that it is neutrally stable: the handover returns each topology to its
starting modal phase, the interval flows and their monodromy preserve volume
with unit-modulus eigenvalues, the disagreement stays within the monodromy's
eigenvector-conditioning bound, and it does not reach consensus.  The drift
[[0, I], [-L, 0]] is Hamiltonian, so every interval flow is symplectic; a
product of such flows has determinant one and cannot contract to consensus.
"""
import time

import numpy as np
import pytest
import scipy.linalg

from zdalab import attacks, graphs, observer, scheduling, simulation

from conftest import (
    K4_WEIGHTS,
    _invariant_zero_candidates,
    predicted_state,
    random_connected_topology,
    random_topology_set,
    stacked_pencil_has_attack,
)


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)


def structured_repeated_topology(rng, id=1):
    """Graphs with provably repeated Laplacian eigenvalues: stars, cycles,
    and unweighted complete graphs, randomly scaled."""
    s = float(rng.uniform(0.5, 2.0))
    kind = rng.integers(0, 3)
    if kind == 0:
        n = int(rng.integers(4, 9))
        edges = [(1, j, s) for j in range(2, n + 1)]
    elif kind == 1:
        n = int(rng.choice([4, 6, 8]))
        edges = [(i, i + 1, s) for i in range(1, n)] + [(1, n, s)]
    else:
        n = int(rng.integers(4, 9))
        edges = [(i, j, s) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return graphs.Topology.from_edges(id, n, edges), n


def test_criterion_1_hurwitz_equivalence():
    """Observer-matrix stability coincides with the distinct-eigenvalue test
    over 200 random graphs and gain choices."""
    rng = np.random.default_rng(42)
    start = time.time()
    agreements = 0
    total = 200
    for k in range(total):
        if k % 4 == 0:
            topo, n = structured_repeated_topology(rng)
        else:
            n = int(rng.integers(3, 9))
            topo = random_connected_topology(rng, n)
        L = topo.L
        spec = topo.spectrum
        distinct = graphs.has_distinct_eigenvalues(spec)
        for _ in range(50):
            # with repeated eigenvalues and several observed agents the
            # damping can cover every mode, so exercise the non-distinct
            # side at a single observed agent
            m_size = 1 if not distinct else int(rng.integers(1, n + 1))
            M = tuple(sorted(rng.choice(np.arange(1, n + 1), size=m_size, replace=False)))
            cfg = observer.ObserverConfig(
                observed=M,
                psi=tuple(rng.uniform(0.5, 2.0, m_size)),
                theta=tuple(rng.uniform(0.5, 2.0, m_size)),
            )
            Phi, Theta = observer.gain_matrices(cfg, n)
            A = observer.assemble_observer_A(L, Phi, Theta)
            margin = float(np.max(np.linalg.eigvals(A).real))
            # the 1e-7 tolerance band is numerically undecidable; redraw the
            # observed set and gains when the margin lands inside it
            if abs(margin) > 1e-6:
                break
        agreements += int(scheduling.hurwitz(A, tol=1e-7) == distinct)
    elapsed = time.time() - start
    ok = agreements == total and elapsed < 30.0
    report(1, "observer stability matches distinct-eigenvalue test",
           ok, f"{agreements}/{total} in {elapsed:.1f}s")
    assert agreements == total
    assert elapsed < 30.0


def _eta_scan(topos, M, K):
    from zdalab.simulation import assemble_A, assemble_C, attack_injection

    n = topos[0].n
    A_list = [assemble_A(t.L) for t in topos]
    C = assemble_C(M, n)
    B = attack_injection(K, n)
    candidates = list(np.linspace(0.01, 2.0, 100))
    candidates += _invariant_zero_candidates(A_list, B, C)
    return any(stacked_pencil_has_attack(A_list, B, C, e) for e in candidates)


def test_criterion_2_synthesis_iff_undetectable():
    """Attack synthesis succeeds exactly when the exact detectability rank
    test fails, in agreement with a brute-force rate scan, on 200 random
    instances."""
    rng = np.random.default_rng(7)
    start = time.time()
    agree = 0
    total = 200
    for _ in range(total):
        topos, M, K = random_topology_set(rng)
        detect_ok = graphs.detectability(topos, M).ok
        synth = attacks.synthesize(topos, M, K, rho=0.0)
        oracle = _eta_scan(topos, M, K)
        if (synth is not None) == oracle == (not detect_ok):
            agree += 1
    elapsed = time.time() - start
    ok = agree == total and elapsed < 300.0
    report(2, "synthesis succeeds iff detectability rank test fails (scan oracle concurs)",
           ok, f"{agree}/{total} in {elapsed:.1f}s")
    assert agree == total
    assert elapsed < 300.0


def _stealth_family():
    t1 = graphs.Topology.from_edges(1, 4, [(1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)])
    t2 = graphs.Topology.from_edges(
        2, 4,
        [(1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 0.5), (1, 3, 1.0), (1, 4, 1.0)],
    )
    t3 = graphs.Topology.from_edges(3, 4, [(1, 2, 1.0), (2, 3, 2.0), (2, 4, 1.3), (3, 4, 1.0)])
    return t1, t2, t3


def _stealth_attack_and_run():
    t1, t2, _ = _stealth_family()
    tau = np.pi / 2 + 0.2
    sched = scheduling.SwitchingSchedule(order=(t1, t2), dwell={t1: tau, t2: tau}, horizon=420.0)
    rho = 110.0
    atk, cert = attacks.synthesize(
        [t1, t2], (1,), (1, 2, 3, 4), rho=rho, schedule_prefix=sched, eta_target=0.05
    )
    z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
    clean = simulation.simulate(sched, z0, dt=0.05)
    attacked = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.05)
    return t1, t2, sched, rho, atk, z0, clean, attacked


def test_criterion_3_stealthiness():
    """A mid-horizon attack under the undetecting pair destabilizes the
    velocities while the residual and the output stay clean."""
    t1, t2, sched, rho, atk, z0, clean, attacked = _stealth_attack_and_run()
    assert atk.eta.real > 0.0 and atk.rho > 0.0

    output_gap = float(np.max(np.abs(attacked.states[:, 0] - clean.states[:, 0])))
    err = simulation.consensus_error(attacked)
    pre = err["vel_disagreement"][attacked.times <= rho].max()
    ratio = float(err["vel_disagreement"].max() / pre)
    cfg = observer.ObserverConfig(observed=(1,), psi=(1e-6,), theta=(1e-6,))
    run = observer.run_observer(attacked, cfg, zhat0=z0)
    max_residual = float(np.max(np.abs(run.residuals)))

    ok = max_residual < 1e-6 and ratio > 10.0 and output_gap < 1e-8
    report(3, "stealthy attack: silent residual, runaway velocities", ok,
           f"residual {max_residual:.2e}, velocity ratio {ratio:.0f}, output gap {output_gap:.2e}")
    assert max_residual < 1e-6
    assert ratio > 10.0
    assert output_gap < 1e-8


def test_criterion_4_detection_with_third_topology():
    """Adding a topology that makes the switching set detectable raises an
    alarm on an attack that is stealthy against the undetecting pair, no
    later than two switching periods after its start.  The attack starts at
    rho = 1.0 under the triple's own schedule (1, 2, 3), before topology 3
    first runs at 2 tau = 3.542, and is synthesized against the topologies
    that run before rho: its residual stays at rounding level until
    topology 3 runs, and the alarm comes after that, so it is the injected
    attack that the third topology exposes."""
    t1, t2, t3 = _stealth_family()
    tau = np.pi / 2 + 0.2
    sched = scheduling.SwitchingSchedule(
        order=(t1, t2, t3), dwell={t1: tau, t2: tau, t3: tau}, horizon=130.0
    )
    rho = 1.0
    atk, cert = attacks.synthesize(
        [t1, t2], (1,), (1, 2, 3, 4), rho=rho, schedule_prefix=sched, eta_target=0.05
    )
    assert cert.valid and graphs.detectability([t1, t2, t3], (1,)).ok

    z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
    tr = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.01)
    cfg = observer.ObserverConfig(
        observed=(1,), psi=(1e-6,), theta=(1e-6,), alarm_threshold=1e-6, alarm_window=5
    )
    run = observer.run_observer(tr, cfg, zhat0=z0)
    alarm = observer.detect(tr.times, run.residuals, cfg)
    exposed = 2.0 * tau  # topology 3 first runs
    silent = float(np.max(np.abs(run.residuals[tr.times < exposed])))
    deadline = rho + 2.0 * sched.period

    ok = silent < 1e-12 and alarm is not None and exposed < alarm <= deadline
    report(4, "detecting set raises the alarm within two periods of the start",
           ok, f"residual {silent:.2e} before t={exposed:.3f}, alarm at t={alarm}, deadline {deadline:.2f}")
    assert silent < 1e-12
    assert alarm is not None
    assert exposed < alarm <= deadline


def test_criterion_5_switched_consensus():
    """Half-period dwell times leave the attack-free switched plant neutrally
    stable: it neither contracts to consensus nor diverges.

    The drift [[0, I], [-L, 0]] equals J diag(L, I) with L symmetric, so each
    interval flow is symplectic and every product of them has determinant one
    on the disagreement subspace.  On the same run the test checks (a) the
    half-period handover H_r^2 = I, (b) symplectic interval flows, (c) a
    monodromy with unit determinant and unit-modulus eigenvalues, (d) the
    simulated disagreement norm at every period boundary within the exact
    cond(V) bound of its initial value, and (e) no consensus at t = 500.
    """
    start = time.time()
    scale_a, scale_b = 1.0 / 9.0, 4.0 / 81.0
    ta = graphs.Topology.from_edges(1, 4, [(i, j, w * scale_a) for i, j, w in K4_WEIGHTS])
    tb = graphs.Topology.from_edges(2, 4, [(i, j, w * scale_b) for i, j, w in K4_WEIGHTS])

    params = scheduling.DwellParams(tau_hat_max=0.2)
    spectra = {t.id: t.spectrum for t in (ta, tb)}
    xi_val = scheduling.xi(spectra.values())
    dwell = {}
    for t in (ta, tb):
        T_r = graphs.modal_period(spectra[t.id])
        dwell[t] = scheduling.dwell_time(params, T_r, xi_val)
    sched = scheduling.SwitchingSchedule(order=(ta, tb), dwell=dwell, horizon=500.0)

    z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
    tr = simulation.simulate(sched, z0, dt=0.05)

    n = 4
    # orthonormal basis of the disagreement subspace (positions and velocities
    # each orthogonal to 1); every drift leaves it invariant since L 1 = 0
    Q = scipy.linalg.null_space(np.ones((1, n)))
    Qb = scipy.linalg.block_diag(Q, Q)
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    handover = symplectic = 0.0
    flows = {}
    for t in (ta, tb):
        A = simulation.assemble_A(t.L)
        H = Qb.T @ scipy.linalg.expm(A * (dwell[t] - params.tau_hat_max)) @ Qb
        handover = max(handover, float(np.abs(H @ H - np.eye(2 * n - 2)).max()))
        Phi = scipy.linalg.expm(A * dwell[t])
        symplectic = max(symplectic, float(np.abs(Phi.T @ J @ Phi - J).max()))
        flows[t.id] = Qb.T @ Phi @ Qb
    M = flows[2] @ flows[1]
    det_gap = abs(float(np.linalg.det(M)) - 1.0)
    eigvals, V = np.linalg.eig(M)
    modulus_gap = float(np.abs(np.abs(eigvals) - 1.0).max())
    kappa = float(np.linalg.cond(V))

    # period boundaries kT are every second switch; t = 0 is k = 0
    boundaries = np.array((0.0,) + sched.switch_times[1::2])
    idx = np.searchsorted(tr.times, boundaries)
    assert np.allclose(tr.times[idx], boundaries, rtol=0.0, atol=1e-9)
    d = tr.states @ Qb
    ratios = np.linalg.norm(d[idx], axis=1) / np.linalg.norm(d[0])

    err = simulation.consensus_error(tr)
    final = float(max(err["pos_disagreement"][-1], err["vel_disagreement"][-1]))
    elapsed = time.time() - start

    bounded = bool(np.all((ratios >= 1.0 / kappa) & (ratios <= kappa)))
    ok = (
        handover <= 1e-9 and symplectic <= 1e-10 and det_gap <= 1e-9
        and modulus_gap <= 1e-9 and bounded and final >= 1e-3 and elapsed < 10.0
    )
    report(5, "attack-free switched plant is neutrally stable, no consensus by t=500",
           ok, f"handover {handover:.1e}, symplectic {symplectic:.1e}, "
           f"|det M - 1| {det_gap:.1e}, ||lambda| - 1| {modulus_gap:.1e}, "
           f"period-boundary norm ratios [{ratios.min():.2f}, {ratios.max():.2f}] "
           f"within cond(V) {kappa:.2f}, final disagreement {final:.3g} in {elapsed:.1f}s")
    assert elapsed < 10.0
    assert handover <= 1e-9
    assert symplectic <= 1e-10
    assert det_gap <= 1e-9
    assert modulus_gap <= 1e-9
    assert bounded, (ratios.min(), ratios.max(), kappa)
    assert final >= 1e-3


def test_criterion_6_observer_tracking_small_gains():
    """With gains of 1e-6 and a schedule passing the averaged-contraction
    check, the wrongly initialized observer still locks on."""
    ga = graphs.Topology.from_edges(1, 4, K4_WEIGHTS)
    perturbed = [(i, j, w + (1e-9 if (i, j) == (3, 4) else 0.0)) for i, j, w in K4_WEIGHTS]
    gb = graphs.Topology.from_edges(2, 4, perturbed)

    cfg = observer.ObserverConfig(observed=(1,), psi=(1e-6,), theta=(1e-6,))
    Phi, Theta = observer.gain_matrices(cfg, 4)
    A_list = [
        observer.assemble_observer_A(g.L, Phi, Theta) for g in (ga, gb)
    ]
    P = scheduling.lyapunov_weight(A_list)
    tau = 0.2 + 20000 * np.pi
    measure = scheduling.measure_condition(A_list, [tau, tau], P)
    assert measure.ok

    sched = scheduling.SwitchingSchedule(order=(ga, gb), dwell={ga: tau, gb: tau}, horizon=5e8)
    z0 = np.array([1, 2, 3, 4, 1, 2, -1, -2], float)
    tr = simulation.simulate(sched, z0, dt=1e6)
    run = observer.run_observer(tr, cfg, zhat0=np.array([1, 1, 3, 5.0, 1, 1, 0, -1.0]))
    err = np.linalg.norm(run.error, axis=1)
    ratio = float(err[-1] / err[0])

    ok = ratio < 1e-4
    report(6, "observer with 1e-6 gains tracks to 1e-4 of its initial error",
           ok, f"error ratio {ratio:.2e}, averaged measure {measure.value:.2e}")
    assert ratio < 1e-4


def test_criterion_7_integration_fidelity():
    """``simulate``'s closed-form propagation of one attacked dwell interval
    agrees with a fine-step RK4 oracle, and handing the interval over to an
    identical topology midway, with the attack mode active across the
    switch, ends where the unsplit interval ends (the semigroup property)."""
    from test_simulation import make_attack, rk4, run_interval, run_split
    from zdalab.simulation import assemble_A, attack_injection

    rng = np.random.default_rng(123)
    worst_rk4 = 0.0
    worst_semi = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        topo = random_connected_topology(rng, n)
        A = assemble_A(topo.L)
        z0 = rng.normal(size=2 * n)
        atk = make_attack(rng, n)
        B = attack_injection(atk.attacked, n)
        duration = float(rng.uniform(0.3, 1.2))
        dt = duration / 10.0
        states = run_interval(topo, z0, dt, duration, attack=atk).states

        def f(t, z, A=A, B=B, atk=atk):
            return A @ z + B @ np.real(atk.g0 * np.exp(atk.eta * t))

        oracle = rk4(f, z0, 0.0, duration, int(duration / (dt / 100.0)))
        worst_rk4 = max(
            worst_rk4, np.linalg.norm(states[-1] - oracle) / np.linalg.norm(oracle)
        )

        split = float(rng.uniform(0.2, 0.8)) * duration
        second = run_split(topo, z0, duration, [split], duration, attack=atk).states
        direct = run_interval(topo, z0, duration, duration, attack=atk).states
        worst_semi = max(
            worst_semi,
            np.linalg.norm(direct[-1] - second[-1]) / np.linalg.norm(direct[-1]),
        )

    ok = worst_rk4 < 1e-8 and worst_semi < 1e-10
    report(7, "closed-form modal propagation matches RK4 oracle",
           ok, f"worst RK4 gap {worst_rk4:.2e}, worst semigroup gap {worst_semi:.2e}")
    assert worst_rk4 < 1e-8
    assert worst_semi < 1e-10


def test_criterion_8_closed_form_predictor():
    """After the start time, the attacked state equals the clean state plus
    the start-time discrepancy scaled by the attack exponential."""
    t1, _, _ = _stealth_family()
    sched = scheduling.SwitchingSchedule(order=(t1,), dwell={t1: 1e9}, horizon=300.0)
    rho = 50.0
    atk, _ = attacks.synthesize(
        [t1], (1,), (1, 2, 3, 4), rho=rho, schedule_prefix=sched, eta_target=0.05
    )
    z0 = np.array([1, 2, 3, 4, 1, 2, 3, 4], float)
    clean = simulation.simulate(sched, z0, dt=0.05)
    attacked = simulation.simulate(sched, z0 + atk.delta_z0, attack=atk, dt=0.05)
    i0 = int(np.argmin(np.abs(clean.times - rho)))
    disc = attacked.states[i0] - clean.states[i0]
    worst = 0.0
    for i in range(i0 + 1, len(clean.times)):
        pred = predicted_state(atk, clean.states[i], disc, clean.times[i])
        worst = max(
            worst,
            np.linalg.norm(attacked.states[i] - pred) / np.linalg.norm(attacked.states[i]),
        )

    ok = worst < 1e-6
    report(8, "closed-form predictor reproduces the attacked trajectory",
           ok, f"worst relative gap {worst:.2e}")
    assert worst < 1e-6
