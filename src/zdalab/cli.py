"""Command-line harness: validate, run, synthesize, and sweep scenarios.

Exit codes: 0 success, 2 scenario invalid or unparseable or an output that
cannot be written (OSError), 3 no stealthy attack exists, 4 numeric failure.
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


def _fail(exc: Exception) -> int:
    """Report an error a verb raised on stderr and return its exit code."""
    if isinstance(exc, attacks.SynthesisError):
        label, code = "synthesis failed", EXIT_NO_ATTACK
    elif isinstance(exc, simulation.SimulationError):
        label, code = "numeric failure", EXIT_NUMERIC
    elif isinstance(exc, OSError):
        label, code = "output error", EXIT_INVALID
    else:  # ScheduleError, GraphError, the work caps
        label, code = "scenario error", EXIT_INVALID
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def cmd_validate(sc, args) -> int:
    report = scenario.validate(sc)
    for line in report.lines():
        print(line)
    return EXIT_OK


def cmd_run(sc, args) -> int:
    result = scenario.run(sc, args.out)
    print(result.summary)
    print(f"trace: {result.trace_path}")
    print(f"alarm: {result.alarm_path}")
    print(f"report: {result.report_path}")
    return EXIT_OK


def cmd_synthesize(sc, args) -> int:
    atk, cert = scenario.synthesize_for(sc)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.id}_attack.json")
    with open(path, "w") as fh:
        fh.write(attacks.attack_to_json(atk, cert))
    print(f"attack: {path}")
    return EXIT_OK


def cmd_sweep(sc, args) -> int:
    table, errors = {}, []
    for m in range(args.m_min, args.m_max + 1):
        try:
            sub = sc.at_multiplier(m)
            switch_count = len(sub.schedule.switch_times)
            result = scenario.run(sub, os.path.join(args.out, f"m{m}"))
            table[str(m)] = {
                "alarm_time": result.alarm_time,
                "switch_count": switch_count,
                "summary": result.summary,
            }
        except (simulation.SimulationError, ValueError) as exc:
            table[str(m)] = {"error": str(exc)}
            errors.append(exc)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.id}_sweep.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=2)
    print(f"sweep: {path}")
    if errors and len(errors) == len(table):
        # no m succeeded: exit as `run` would on the first m
        return _fail(errors[0])
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
        sp.add_argument("--dt", type=_positive, default=None, help="the plan's sample step (s)")

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
        args = (parser := build_parser()).parse_args(argv)
        if args.command == "sweep" and args.m_min > args.m_max:
            parser.error(f"empty sweep range: --m-min {args.m_min} exceeds --m-max {args.m_max}")
        sc = scenario.load_scenario(args.scenario)  # the run plan, each verb's one input
        if args.dt is not None:
            sc = dataclasses.replace(sc, dt=args.dt)
        return args.func(sc, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (simulation.SimulationError, ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
