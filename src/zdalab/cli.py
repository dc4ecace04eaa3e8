"""Command-line harness: validate, run, synthesize, and sweep scenarios.

Exit codes: 0 success, 2 scenario invalid or unparseable, 3 no stealthy
attack exists, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import attacks, scenario, simulation

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_ATTACK = 3
EXIT_NUMERIC = 4


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _load(path: str) -> scenario.Scenario:
    try:
        return scenario.load_scenario(path)
    except (scenario.ScenarioError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def cmd_validate(args) -> int:
    sc = _load(args.scenario)
    report = scenario.validate(sc)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_run(args) -> int:
    sc = _load(args.scenario)
    try:
        result = scenario.run(sc, args.out, dt=args.dt)
    except attacks.SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_NO_ATTACK
    except simulation.SimulationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(result.summary)
    print(f"trace: {result.trace_path}")
    print(f"alarm: {result.alarm_path}")
    print(f"report: {result.report_path}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    sc = _load(args.scenario)
    if sc.synthesize_directive is None and not sc.attacked:
        print("scenario error: no attack channels", file=sys.stderr)
        return EXIT_INVALID
    try:
        if sc.synthesize_directive is not None:
            atk, cert = scenario.synthesize_for(sc)
        else:
            stealth = list(sc.topologies)
            result = attacks.synthesize(stealth, sc.observed, sc.attacked, rho=0.0)
            if result is None:
                raise attacks.SynthesisError(
                    "no stealthy attack exists for this topology set"
                )
            atk, cert = result
    except attacks.SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_NO_ATTACK
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.id}_attack.json")
    with open(path, "w") as fh:
        fh.write(attacks.attack_to_json(atk, cert))
    print(f"attack: {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc = _load(args.scenario)
    table = {}
    for m in range(args.m_min, args.m_max + 1):
        try:
            sched = scenario.build_schedule(sc, m=m)
            sub = dataclasses.replace(
                sc, dwell_override=dict(sched.dwell), id=f"{sc.id}_m{m}"
            )
            result = scenario.run(sub, os.path.join(args.out, f"m{m}"), dt=args.dt)
            table[str(m)] = {
                "alarm_time": result.alarm_time,
                "switch_count": len(sched.switch_times),
                "summary": result.summary,
            }
        except (
            attacks.SynthesisError,
            simulation.SimulationError,
            scenario.scheduling.ScheduleError,
        ) as exc:
            table[str(m)] = {"error": str(exc)}

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.id}_sweep.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=2)
    print(f"sweep: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zdalab",
        description="Switched-consensus attack synthesis and detection harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scenario", required=True, help="scenario JSON path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--dt", type=_positive, default=None, help="sample step override (s)")

    sp = sub.add_parser("validate", help="check admissibility conditions")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("run", help="simulate and detect")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("synthesize", help="design a stealthy attack")
    common(sp)
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("sweep", help="batch runs over dwell-time multiplier m")
    common(sp)
    sp.add_argument("--m-min", type=int, default=1)
    sp.add_argument("--m-max", type=int, default=4)
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except simulation.SimulationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ScheduleError, GraphError, the work caps
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
