"""Scenario files, admissibility validation, and end-to-end runs.

A scenario bundles topologies, a switching order, dwell-time parameters,
observed and attacked agent sets, initial conditions, and observer settings
into one versioned JSON document.  Running a scenario produces a trace CSV,
an alarm decision, and a human-readable report.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import attacks, graphs, observer, scheduling, simulation

__all__ = [
    "Scenario",
    "ScenarioError",
    "ValidationReport",
    "RunResult",
    "load_scenario",
    "build_schedule",
    "validate",
    "run",
    "synthesize_for",
]

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


@dataclass(frozen=True)
class Scenario:
    topologies: tuple
    order: tuple
    horizon: float
    initial_x: tuple
    initial_v: tuple
    observed: tuple
    dt: float = 0.01
    dwell_params: scheduling.DwellParams = field(default_factory=scheduling.DwellParams)
    dwell_override: dict | None = None
    attacked: tuple = ()
    attack: attacks.ZdaAttack | None = None
    synthesize_directive: dict | None = None
    reported_x: tuple | None = None
    reported_v: tuple | None = None
    observer_cfg: observer.ObserverConfig | None = None
    id: str = "scenario"

    @property
    def n(self) -> int:
        return self.topologies[0].n


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def load_scenario(source) -> Scenario:
    """Parse a scenario from a JSON file path, JSON text, or a dict.  A string
    that does not start with ``{`` is a path."""
    if isinstance(source, dict):
        d = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            _require(os.path.isfile(source), f"no such file: {source}")
            with open(source) as fh:
                text = fh.read()
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    _require(d.get("schema") == SCHEMA_VERSION, f"scenario schema must be {SCHEMA_VERSION}")
    _require("topologies" in d and d["topologies"], "scenario needs at least one topology")
    topologies = tuple(
        graphs.Topology.from_edges(t["id"], t["n"], t["edges"]) for t in d["topologies"]
    )
    ids = {t.id for t in topologies}
    _require(len(ids) == len(topologies), "topology ids must be unique")
    n = topologies[0].n
    _require(all(t.n == n for t in topologies), "all topologies must have the same size")
    order = tuple(d["order"])
    _require(bool(order), "switching order must be nonempty")
    _require(all(tid in ids for tid in order), "switching order references unknown topology ids")

    horizon = float(d["horizon"])
    _require(horizon > 0.0, "horizon must be positive")
    dt = float(d.get("dt", 0.01))
    _require(0.0 < dt < float("inf"), "dt must be positive and finite")
    initial = d["initial"]
    x0, v0 = tuple(map(float, initial["x"])), tuple(map(float, initial["v"]))
    _require(len(x0) == n and len(v0) == n, "initial condition size must match n")
    observed = tuple(sorted(int(i) for i in d["observed"]))
    _require(all(1 <= i <= n for i in observed), "observed agents out of range")
    attacked = tuple(sorted(int(i) for i in d.get("attacked", [])))
    _require(all(1 <= i <= n for i in attacked), "attacked agents out of range")

    dp = d.get("dwell_params", {})
    allowed = {"beta", "alpha", "kappa", "tau_hat_max", "m"}
    unknown = set(dp) - allowed
    _require(not unknown, f"unknown dwell parameters: {sorted(unknown)}")
    dwell_params = scheduling.DwellParams(**dp)
    dwell_override = None
    if d.get("dwell") is not None:
        dwell_override = {int(k): float(v) for k, v in d["dwell"].items()}
        _require(
            all(dwell_override.get(tid, 0.0) > 0.0 for tid in order),
            "dwell map needs a positive dwell time for every topology in order",
        )

    attack = None
    synth = None
    a = d.get("attack")
    if isinstance(a, dict) and a.get("synthesize"):
        synth = a
        _require(bool(attacked), "synthesize directive requires a nonempty attacked set")
    elif isinstance(a, dict):
        attack = attacks.attack_from_json(json.dumps(a))
    elif isinstance(a, str):
        with open(a) as fh:
            attack = attacks.attack_from_json(fh.read())

    reported = d.get("reported_initial")
    rx = tuple(map(float, reported["x"])) if reported else None
    rv = tuple(map(float, reported["v"])) if reported else None

    oc = d.get("observer")
    cfg = None
    if oc is not None:
        cfg = observer.ObserverConfig(
            observed=observed,
            psi=tuple(map(float, oc["psi"])),
            theta=tuple(map(float, oc["theta"])),
            alarm_threshold=float(oc.get("threshold", 1e-6)),
            alarm_window=int(oc.get("window", 5)),
        )

    return Scenario(
        topologies=topologies,
        order=order,
        horizon=horizon,
        dt=dt,
        initial_x=x0,
        initial_v=v0,
        observed=observed,
        dwell_params=dwell_params,
        dwell_override=dwell_override,
        attacked=attacked,
        attack=attack,
        synthesize_directive=synth,
        reported_x=rx,
        reported_v=rv,
        observer_cfg=cfg,
        id=str(d.get("id", "scenario")),
    )


def build_schedule(sc: Scenario, m: int | None = None) -> scheduling.SwitchingSchedule:
    """Dwell times per topology from its modal period, or the explicit
    override when the scenario supplies one."""
    if sc.dwell_override is not None and m is None:
        return scheduling.SwitchingSchedule(
            order=sc.order, dwell=sc.dwell_override, horizon=sc.horizon
        )
    topo_by_id = {t.id: t for t in sc.topologies}
    spectra = {
        tid: graphs.spectrum(graphs.laplacian(topo_by_id[tid])) for tid in sc.order
    }
    xi_val = scheduling.xi(spectra.values())
    params = sc.dwell_params
    if m is not None:
        params = scheduling.DwellParams(
            beta=params.beta,
            alpha=params.alpha,
            kappa=params.kappa,
            tau_hat_max=params.tau_hat_max,
            m=m,
        )
    dwell = {}
    for tid in sc.order:
        spec = spectra[tid]
        cert = graphs.rational_ratio_certificate(spec)
        T_r = scheduling.base_period(cert, spec.eigenvalues[1])
        dwell[tid] = scheduling.dwell_time(params, T_r, xi_val)
    return scheduling.SwitchingSchedule(order=sc.order, dwell=dwell, horizon=sc.horizon)


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition admissibility results; failures are warnings, not errors,
    since scenarios may deliberately violate a condition."""

    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def lines(self):
        return [f"{'PASS' if v else 'FAIL'}  {k}" for k, v in self.checks.items()]


def validate(sc: Scenario) -> ValidationReport:
    """Check the admissibility conditions the switching design relies on:
    rational modal-period ratios, a distinct-eigenvalue member, dwell-time
    construction, the averaged contraction condition, and detectability of
    the running topology set."""
    checks: dict = {}
    topo_by_id = {t.id: t for t in sc.topologies}
    spectra = {tid: graphs.spectrum(graphs.laplacian(topo_by_id[tid])) for tid in sc.order}

    rational_ok = True
    for tid in sc.order:
        try:
            cert = graphs.rational_ratio_certificate(spectra[tid])
            rational_ok &= cert.ok
        except graphs.GraphError:
            rational_ok = False
    checks["rational modal-period ratios (all topologies)"] = bool(rational_ok)

    distinct = any(graphs.has_distinct_eigenvalues(s) for s in spectra.values())
    checks["some topology has distinct eigenvalues"] = bool(distinct)

    sched = None
    try:
        sched = build_schedule(sc)
        checks["dwell-time construction"] = True
    except (scheduling.ScheduleError, graphs.GraphError):
        checks["dwell-time construction"] = False

    measure_ok = False
    if sched is not None and sc.observer_cfg is not None and distinct:
        try:
            Phi, Theta = observer.gain_matrices(sc.observer_cfg, sc.n)
            A_list = [
                observer.assemble_observer_A(graphs.laplacian(topo_by_id[tid]), Phi, Theta)
                for tid in sc.order
            ]
            P = scheduling.lyapunov_weight(A_list)
            tau_list = [sched.dwell[tid] for tid in sc.order]
            measure_ok = scheduling.measure_condition(A_list, tau_list, P).ok
        except scheduling.ScheduleError:
            measure_ok = False
    checks["averaged contraction of observer error"] = bool(measure_ok)

    running = [topo_by_id[tid] for tid in dict.fromkeys(sc.order)]
    if len(running) >= 2:
        det = graphs.detectability(running, sc.observed)
        checks["detectability of running topology set"] = det.ok
    else:
        checks["detectability of running topology set"] = False
    return ValidationReport(checks=checks)


def synthesize_for(sc: Scenario) -> tuple:
    """Execute the scenario's synthesize directive against its stealth set."""
    if sc.synthesize_directive is None:
        raise ScenarioError("scenario has no synthesize directive")
    directive = sc.synthesize_directive
    topo_by_id = {t.id: t for t in sc.topologies}
    stealth_ids = directive.get("stealth_set", list(dict.fromkeys(sc.order)))
    stealth = [topo_by_id[int(tid)] for tid in stealth_ids]
    rho = float(directive.get("rho", 0.0))
    sched = build_schedule(sc) if rho > 0.0 else None
    result = attacks.synthesize(
        stealth,
        sc.observed,
        sc.attacked,
        rho=rho,
        schedule_prefix=sched,
        seed=int(directive.get("seed", 0)),
        eta_target=directive.get("eta_target"),
    )
    if result is None:
        raise attacks.SynthesisError(
            "no stealthy attack exists for this topology set and channel choice"
        )
    return result


@dataclass(frozen=True)
class RunResult:
    summary: str
    alarm_time: float | None
    trace_path: str
    alarm_path: str
    report_path: str
    blowup_time: float | None = None


def run(sc: Scenario, out_dir: str, dt: float | None = None) -> RunResult:
    """Simulate the scenario, run the observer when configured, and write
    trace CSV, alarm JSON, and a report.  Deterministic for a fixed scenario."""
    os.makedirs(out_dir, exist_ok=True)
    dt = sc.dt if dt is None else dt
    sched = build_schedule(sc)
    report = validate(sc)

    atk = sc.attack
    if sc.synthesize_directive is not None:
        atk, _ = synthesize_for(sc)

    z0 = np.array(sc.initial_x + sc.initial_v, dtype=float)
    if atk is not None:
        z0 = z0 + atk.delta_z0

    blowup = None
    try:
        tr = simulation.simulate(
            sc.topologies, sched, z0, attack=atk, dt=dt, observed=sc.observed
        )
    except simulation.SimulationError as exc:
        if not hasattr(exc, "trace"):
            raise
        tr = exc.trace
        blowup = exc.blowup_time

    residuals = None
    alarm_time = None
    if sc.observer_cfg is not None:
        rx = sc.reported_x if sc.reported_x is not None else sc.initial_x
        rv = sc.reported_v if sc.reported_v is not None else sc.initial_v
        obs_run = observer.run_observer(
            tr, sc.topologies, sched, sc.observer_cfg,
            xhat0=np.array(rx), vhat0=np.array(rv),
        )
        residuals = obs_run.residuals
        alarm_time = observer.detect(obs_run.times, residuals, sc.observer_cfg)

    err = simulation.consensus_error(tr)
    final_dis = max(err["pos_disagreement"][-1], err["vel_disagreement"][-1])
    initial_dis = max(err["pos_disagreement"][0], err["vel_disagreement"][0])

    parts = []
    if blowup is not None:
        parts.append(f"unstable (overflow at t={blowup:.6g})")
    elif final_dis < 1e-3:
        parts.append("consensus reached")
    elif final_dis > 10.0 * max(initial_dis, 1e-9):
        parts.append(f"unstable (disagreement grew to {final_dis:.3g})")
    else:
        parts.append(f"final disagreement {final_dis:.3g}")
    if sc.observer_cfg is not None:
        parts.append(f"alarm at t={alarm_time:.6g}" if alarm_time is not None else "no alarm")
    summary = ", ".join(parts) if parts else "completed"

    trace_path = os.path.join(out_dir, f"{sc.id}_trace.csv")
    simulation.trace_to_csv(tr, trace_path, residuals=residuals)
    alarm_path = os.path.join(out_dir, f"{sc.id}_alarm.json")
    with open(alarm_path, "w") as fh:
        json.dump(
            {
                "alarm_time": alarm_time,
                "threshold": sc.observer_cfg.alarm_threshold if sc.observer_cfg else None,
            },
            fh,
        )
    report_path = os.path.join(out_dir, f"{sc.id}_report.txt")
    with open(report_path, "w") as fh:
        fh.write(f"scenario: {sc.id}\n")
        fh.write("admissibility checks:\n")
        for line in report.lines():
            fh.write(f"  {line}\n")
        fh.write(f"summary: {summary}\n")
        fh.write(f"final position disagreement: {final_dis:.6g}\n")
    return RunResult(
        summary=summary,
        alarm_time=alarm_time,
        trace_path=trace_path,
        alarm_path=alarm_path,
        report_path=report_path,
        blowup_time=blowup,
    )
