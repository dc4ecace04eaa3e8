"""Scenario files, admissibility validation, and end-to-end runs.

A scenario bundles topologies, a switching order, dwell-time parameters,
observed and attacked agent sets, initial conditions, and observer settings
into one versioned JSON document.  Running a scenario produces a trace CSV,
an alarm decision, and a human-readable report.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import attacks, graphs, observer, scheduling, simulation
from .graphs import _real

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
    """One run plan: a scenario at one dwell-time multiplier
    ``dwell_params.m``.  Its derived inputs are computed on first use and
    cached on the instance; ``dataclasses.replace`` starts a fresh plan, and
    ``at_multiplier`` one that keeps the inputs that do not depend on m."""

    topologies: tuple
    order: tuple
    horizon: float
    initial: tuple  # the 2n state z(0) = [x; v], positions then velocities
    observed: tuple
    dt: float = 0.01
    dwell_params: scheduling.DwellParams = field(default_factory=scheduling.DwellParams)
    dwell_override: dict | None = None
    attacked: tuple = ()
    attack: attacks.ZdaAttack | None = None
    synthesize_directive: dict | None = None  # as _directive parses it; None without one
    reported: tuple | None = None  # z(0) as reported; the loader fills it, from initial by default
    observer_cfg: observer.ObserverConfig | None = None
    id: str = "scenario"

    @property
    def n(self) -> int:
        return self.topologies[0].n

    @functools.cached_property
    def running(self) -> tuple:
        """The topologies of ``order``, each once, in order of first appearance."""
        return tuple(dict.fromkeys(self.order))

    @functools.cached_property
    def schedule(self) -> scheduling.SwitchingSchedule:
        """The switching schedule ``build_schedule`` derives."""
        return build_schedule(self)

    @functools.cached_property
    def observer_weight(self) -> tuple:
        """The observer matrices in switching order and their Lyapunov weight
        P, None when no mode has one; needs an observer configuration."""
        Phi, Theta = observer.gain_matrices(self.observer_cfg, self.n)
        A_list = tuple(observer.assemble_observer_A(t.L, Phi, Theta) for t in self.order)
        try:
            return A_list, scheduling.lyapunov_weight(A_list)
        except scheduling.ScheduleError:
            return A_list, None

    def at_multiplier(self, m: int) -> Scenario:
        """This plan at multiplier m with derived dwell times, as ``<id>_m<m>``;
        it shares the topologies, with their spectra and periods, and
        keeps the observer weight, none of which depends on m."""
        sub = replace(self, id=f"{self.id}_m{m}", dwell_override=None,
                      dwell_params=replace(self.dwell_params, m=m))
        if self.observer_cfg is not None:
            sub.__dict__["observer_weight"] = self.observer_weight
        return sub


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _state(part, n: int, what: str) -> tuple:
    x, v = (tuple(_real(a, what) for a in part[k]) for k in "xv")
    _require(len(x) == n and len(v) == n, f"{what} size must match n")
    _require(all(map(math.isfinite, x + v)), f"{what} must be finite")
    return x + v


def load_scenario(source) -> Scenario:
    """Parse a scenario from a JSON file path or a dict; a string attack is a
    path relative to the scenario file's folder.  Every malformed or
    inconsistent document raises ScenarioError."""
    base = ""
    if isinstance(source, dict):
        d = source
    else:
        _require(os.path.isfile(source), f"no such file: {source}")
        base = os.path.dirname(source)
        with open(source) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return _parse(d, base)
    except ScenarioError:
        raise
    except ValueError as exc:  # a bad number, or a constructor's GraphError or ScheduleError
        raise ScenarioError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ScenarioError(f"malformed scenario: {what}") from exc


def _topologies(tids, by_id: dict, what: str) -> tuple:
    """The topologies of the ids ``tids``; ScenarioError unless each is an integer id in ``by_id``."""
    for tid in (tids := tuple(tids)):
        _require(graphs._is_id(tid) and tid in by_id, f"{what} holds {tid!r}, which is not a known topology id")
    return tuple(by_id[tid] for tid in tids)


def _directive(order, rho=0.0, stealth_set=None, eta_target=None) -> dict:
    """A synthesize directive as a run reads it; the stealth set defaults to
    the running topologies in first-appearance order."""
    stealth = dict.fromkeys(order) if stealth_set is None else stealth_set
    return {"rho": _real(rho, "directive rho"), "stealth_set": tuple(stealth),
            "eta_target": None if eta_target is None else _real(eta_target, "directive eta_target")}


def _parse(d: dict, base: str) -> Scenario:
    _require(graphs._is_id(d.get("schema")) and d["schema"] == SCHEMA_VERSION,
             f"scenario schema must be {SCHEMA_VERSION}")
    _require("topologies" in d and d["topologies"], "scenario needs at least one topology")
    topologies = tuple(
        graphs.Topology.from_edges(t["id"], t["n"], t["edges"]) for t in d["topologies"]
    )
    by_id = {t.id: t for t in topologies}
    _require(len(by_id) == len(topologies), "topology ids must be unique")
    n = topologies[0].n
    _require(all(t.n == n for t in topologies), "all topologies must have the same size")
    order = _topologies(d["order"], by_id, "switching order")
    _require(bool(order), "switching order must be nonempty")

    horizon = _real(d["horizon"], "horizon")
    _require(horizon > 0.0, "horizon must be positive")
    dt = _real(d.get("dt", Scenario.dt), "dt")
    _require(0.0 < dt < float("inf"), "dt must be positive and finite")
    initial = _state(d["initial"], n, "initial condition")
    observed = graphs.agent_set(d["observed"], n, "observed")
    attacked = tuple(d.get("attacked", []))
    attacked = graphs.agent_set(attacked, n, "attacked") if attacked else ()

    dp = d.get("dwell_params", {})
    allowed = {"beta", "alpha", "kappa", "tau_hat_max", "m"}
    unknown = set(dp) - allowed
    _require(not unknown, f"unknown dwell parameters: {sorted(unknown)}")
    dwell_params = scheduling.DwellParams(**{  # kappa and m are integers, checked there
        k: v if k in ("kappa", "m") or v is None else _real(v, f"dwell_params {k}") for k, v in dp.items()})
    dwell_override = None
    if d.get("dwell") is not None:
        keys = [int(k) if isinstance(k, str) else k for k in d["dwell"]]  # JSON keys are strings
        dwell_override = dict(zip(_topologies(keys, by_id, "dwell map"),
                                  (_real(v, "dwell time") for v in d["dwell"].values())))
        _require(
            all(dwell_override.get(t, 0.0) > 0.0 for t in order),
            "dwell map needs a positive dwell time for every topology in order",
        )

    attack = None
    synth = None
    a = d.get("attack")
    if isinstance(a, dict) and a.get("synthesize"):
        _require(bool(attacked), "synthesize directive requires a nonempty attacked set")
        synth = _directive(order, **{k: a[k] for k in ("rho", "stealth_set", "eta_target") if k in a})
        rho, eta = synth["rho"], synth["eta_target"]
        _require(0.0 <= rho < math.inf, "directive rho must be finite and nonnegative")
        _require(rho <= horizon, "directive rho must not exceed the horizon")
        _require(eta is None or math.isfinite(eta), "directive eta_target must be null or finite")
        _require(bool(synth["stealth_set"]), "directive stealth_set must be nonempty")
        if "stealth_set" in a:
            synth["stealth_set"] = _topologies(a["stealth_set"], by_id, "directive stealth_set")
    elif isinstance(a, dict):
        attack = attacks.attack_from_json(a)
    elif isinstance(a, str):
        path = os.path.join(base, a)
        _require(os.path.isfile(path), f"no such attack file: {path}")
        with open(path) as fh:
            attack = attacks.attack_from_json(fh.read())
    else:
        _require(a is None, "attack must be a directive, an attack object or a file path")
    if attack is not None:
        graphs.agent_set(attack.attacked, n, "attacked")

    reported = d.get("reported_initial")
    reported = _state(reported, n, "reported initial condition") if reported else initial

    oc = d.get("observer")
    cfg = None
    if oc is not None:
        cfg = observer.ObserverConfig(
            observed=tuple(d["observed"]),  # in the order of psi and theta
            psi=tuple(_real(v, "observer psi") for v in oc["psi"]),
            theta=tuple(_real(v, "observer theta") for v in oc["theta"]),
            alarm_threshold=_real(oc.get("threshold", observer.ObserverConfig.alarm_threshold), "observer threshold"),
            alarm_window=oc.get("window", observer.ObserverConfig.alarm_window),
        )

    return Scenario(
        topologies=topologies,
        order=order,
        horizon=horizon,
        dt=dt,
        initial=initial,
        observed=observed,
        dwell_params=dwell_params,
        dwell_override=dwell_override,
        attacked=attacked,
        attack=attack,
        synthesize_directive=synth,
        reported=reported,
        observer_cfg=cfg,
        id=str(d.get("id", Scenario.id)),
    )


def build_schedule(sc: Scenario) -> scheduling.SwitchingSchedule:
    """Dwell times per topology from its modal period, or the explicit
    override when the scenario supplies one."""
    dwell = sc.dwell_override
    if dwell is None:
        xi_val = scheduling.xi(t.spectrum for t in sc.running)
        dwell = {}
        for t in sc.running:
            if t.period is None:
                raise scheduling.ScheduleError(f"topology {t.id}: eigenvalue ratios not rational within tolerance")
            dwell[t] = scheduling.dwell_time(sc.dwell_params, t.period, xi_val)
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
    the running topology set.  That line tests N with every agent attacked,
    so it can FAIL for a scenario whose own attacked set admits no attack
    at any rate, where ``attacks.synthesize`` returns None."""
    checks: dict = {}
    try:
        rational_ok = all(t.period is not None for t in sc.running)
    except graphs.GraphError:
        rational_ok = False
    checks["rational modal-period ratios (all topologies)"] = bool(rational_ok)

    checks["some topology has distinct eigenvalues"] = any(
        graphs.has_distinct_eigenvalues(t.spectrum) for t in sc.running)

    sched = None
    try:
        sched = sc.schedule
        checks["dwell-time construction"] = True
    except (scheduling.ScheduleError, graphs.GraphError):
        checks["dwell-time construction"] = False

    measure_ok = False
    if sched is not None and sc.observer_cfg is not None:
        A_list, P = sc.observer_weight
        if P is not None:
            tau_list = [sched.dwell[t] for t in sc.order]
            measure_ok = scheduling.measure_condition(A_list, tau_list, P).ok
    checks["averaged contraction of observer error"] = bool(measure_ok)

    checks["detectability of running topology set"] = (
        len(sc.running) >= 2 and graphs.detectability(sc.running, sc.observed).ok)
    return ValidationReport(checks=checks)


def synthesize_for(sc: Scenario) -> tuple:
    """Execute the scenario's synthesize directive, or the default one when it
    has none, against its stealth set."""
    directive = sc.synthesize_directive or _directive(sc.order)
    rho = directive["rho"]
    sched = sc.schedule if rho > 0.0 else None
    result = attacks.synthesize(
        directive["stealth_set"],
        sc.observed,
        sc.attacked,
        rho=rho,
        schedule_prefix=sched,
        eta_target=directive["eta_target"],
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


def run(sc: Scenario, out_dir: str) -> RunResult:
    """Simulate the scenario every ``sc.dt``, run the observer when configured, and
    write trace CSV, alarm JSON, and a report.  Deterministic for a fixed scenario."""
    simulation.check_sample_count(sc.horizon, sc.dt, sc.n)
    os.makedirs(out_dir, exist_ok=True)
    report = validate(sc)

    atk = sc.attack
    if sc.synthesize_directive is not None:
        atk, _ = synthesize_for(sc)

    z0 = np.array(sc.initial, dtype=float)
    if atk is not None:
        z0 = z0 + atk.delta_z0

    tr = simulation.simulate(sched=sc.schedule, z0=z0, attack=atk, dt=sc.dt)
    residuals = None
    alarm_time = None
    if sc.observer_cfg is not None:
        residuals = observer.run_observer(tr, sc.observer_cfg, zhat0=sc.reported).residuals
        alarm_time = observer.detect(tr.times, residuals, sc.observer_cfg)

    err = simulation.consensus_error(replace(tr, times=tr.times[[0, -1]], states=tr.states[[0, -1]]))
    initial_dis, final_dis = np.maximum(err["pos_disagreement"], err["vel_disagreement"])

    parts = []
    if tr.blowup_time is not None:
        parts.append(f"unstable (overflow at t={tr.blowup_time:.6g})")
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
    simulation.trace_to_csv(tr, trace_path, sc.observed, residuals=residuals)
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
    )
