import ast
import contextlib
import copy
import json
import math
import operator
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import zdalab.observer
from zdalab import attacks, cli, scenario
from zdalab.scenario import ScenarioError, load_scenario


TAU = float(np.pi / 2 + 0.2)


def stealth_doc(**overrides):
    doc = {
        "schema": 1,
        "id": "stealth",
        "topologies": [
            {"id": 1, "n": 4, "edges": [[1, 2, 1], [2, 3, 1], [2, 4, 1], [3, 4, 1]]},
            {
                "id": 2,
                "n": 4,
                "edges": [
                    [1, 2, 1],
                    [2, 3, 1],
                    [2, 4, 1],
                    [3, 4, 0.5],
                    [1, 3, 1],
                    [1, 4, 1],
                ],
            },
        ],
        "order": [1, 2],
        "dwell": {"1": TAU, "2": TAU},
        "horizon": 60.0,
        "dt": 0.05,
        "initial": {"x": [1, 2, 3, 4], "v": [1, 2, 3, 4]},
        "observed": [1],
        "attacked": [1, 2, 3, 4],
        "attack": {"synthesize": True, "rho": 20.0, "eta_target": 0.05},
        "observer": {"psi": [1e-6], "theta": [1e-6], "threshold": 1e-6, "window": 5},
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_round_trip_fields(self):
        sc = load_scenario(stealth_doc())
        t1, t2 = sc.topologies
        assert sc.n == 4 and (t1.id, t2.id) == (1, 2)
        assert sc.order == (t1, t2)
        assert sc.attacked == (1, 2, 3, 4)
        assert sc.synthesize_directive == {"rho": 20.0, "stealth_set": (t1, t2), "eta_target": 0.05}
        assert (sc.reported_x, sc.reported_v) == (sc.initial_x, sc.initial_v)
        assert sc.observer_cfg.alarm_window == 5

    @pytest.mark.parametrize(
        "path, value, message",
        [(("horizon",), "x", "'x'"), (("dt",), "x", "'x'"), (("attack", "rho"), "x", "'x'"),
         (("attack", "eta_target"), "x", "'x'"), (("attack", "stealth_set"), [1, "x"], "'x'"),
         (("topologies", 0, "edges", 0, 2), "x", "'x'"), (("observed",), ["x"], "'x'"),
         (("topologies", 0, "edges", 0, 2), float("inf"), "edge weights must be finite"),
         (("observed",), [1, 1], "observed set repeats agent 1"),
         (("dwell_params",), {"beta": 2}, "beta must be in (0,1), got 2")],
        ids=["horizon", "dt", "rho", "eta-target", "stealth-set-entry", "edge-weight",
             "observed-entry", "weight-inf", "observed-repeated", "beta"],
    )
    def test_every_bad_value_raises_scenario_error(self, path, value, message):
        """A string where a number belongs, and the checks of the topology,
        agent-set and dwell-parameter constructors, all end in ScenarioError
        with the message they raised."""
        doc = stealth_doc()
        box = doc
        for key in path[:-1]:
            box = box[key]
        box[path[-1]] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(doc)

    @pytest.mark.parametrize("key", [1.0, True], ids=["float", "bool"])
    def test_dwell_key_that_is_not_an_integer_raises(self, key):
        """A dict document's dwell keys pass the same integer test as the
        topology ids of a JSON document's string keys."""
        with pytest.raises(ScenarioError, match=f"dwell map holds {key!r}, which is not a known topology id"):
            load_scenario(stealth_doc(dwell={key: TAU, 2: TAU}))

    def test_explicit_stealth_set_kept_as_given(self):
        sc = load_scenario(stealth_doc(attack={"synthesize": True, "stealth_set": [2, 1]}))
        t1, t2 = sc.topologies
        assert sc.synthesize_directive == {"rho": 0.0, "stealth_set": (t2, t1), "eta_target": None}

    def test_relative_path_starting_with_a_brace(self, tmp_path, monkeypatch, capsys):
        """A scenario argument is a path, whatever its first character."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "{run-1}.json").write_text(json.dumps(stealth_doc()))
        assert cli.main(["validate", "--scenario", "{run-1}.json"]) == 0
        assert "PASS  dwell-time construction" in capsys.readouterr().out

    def test_unknown_schema_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario(stealth_doc(schema=99))

    def test_unknown_order_id_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario(stealth_doc(order=[1, 7]))

    def test_initial_size_mismatch_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario(stealth_doc(initial={"x": [1, 2], "v": [1, 2]}))

    def test_parse_error_reports_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema": 1,\n  "oops\n}')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(str(p))

    def test_attack_path_relative_to_scenario_file(self, tmp_path, monkeypatch):
        atk, cert = scenario.synthesize_for(load_scenario(stealth_doc()))
        folder, elsewhere = tmp_path / "scenarios", tmp_path / "elsewhere"
        folder.mkdir()
        elsewhere.mkdir()
        (folder / "attack.json").write_text(attacks.attack_to_json(atk, cert))
        doc = stealth_doc(attack="attack.json")
        (folder / "scenario.json").write_text(json.dumps(doc))
        monkeypatch.chdir(elsewhere)
        for path in (str(folder / "scenario.json"), os.path.join("..", "scenarios", "scenario.json")):
            loaded = load_scenario(path).attack
            assert loaded.eta == atk.eta and loaded.rho == atk.rho
            np.testing.assert_array_equal(loaded.delta_z0, atk.delta_z0)
        # an absolute attack path is kept as it is
        doc["attack"] = str(folder / "attack.json")
        (elsewhere / "absolute.json").write_text(json.dumps(doc))
        assert load_scenario("absolute.json").attack.eta == atk.eta

    def test_missing_attack_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(attack="absent.json")))
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "absent.json" in capsys.readouterr().err


class TestValidate:
    def test_undetecting_pair_flags_detectability_only(self):
        rep = scenario.validate(load_scenario(stealth_doc()))
        assert rep.checks["rational modal-period ratios (all topologies)"]
        assert rep.checks["some topology has distinct eigenvalues"]
        assert rep.checks["dwell-time construction"]
        assert not rep.checks["detectability of running topology set"]

    def test_repeated_spectrum_pair_contracts_when_two_agents_are_observed(self, tmp_path, capsys):
        """The unit 4-cycle has spectrum {0, 2, 2, 4}, yet observed at agents
        1 and 2 with unit gains its observer matrix is Hurwitz (max Re
        lambda = -0.12): the contraction line rests on that alone."""
        cycle = [[1, 2, 1], [2, 3, 1], [3, 4, 1], [4, 1, 1]]
        doc = stealth_doc(
            topologies=[{"id": tid, "n": 4, "edges": cycle} for tid in (1, 2)],
            dwell={"1": 3.0, "2": 3.0},
            observed=[1, 2],
            observer=_observer(psi=[1, 1], theta=[1, 1]),
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "PASS  averaged contraction of observer error" in out
        assert "FAIL  some topology has distinct eigenvalues" in out

    def test_detectability_line_assumes_every_agent_attacked(self, tmp_path, capsys):
        """The line tests N with every agent attacked, so it FAILs on a
        scenario whose own attacked set admits no attack at any rate: the
        fifth draw of ``random_topology_set`` from seed 11, with as many
        attacked agents as observed ones, as the candidate-rate test draws."""
        from conftest import random_topology_set

        rng = np.random.default_rng(11)
        for _ in range(5):
            topos, M, _ = random_topology_set(rng)
            n = topos[0].n
            K = sorted(rng.choice(np.arange(1, n + 1), size=len(M), replace=False).tolist())
        links = list(zip(*np.triu_indices(n, 1)))
        doc = stealth_doc(
            topologies=[{"id": t.id, "n": n, "edges": [[int(i) + 1, int(j) + 1, float(t.adjacency[i, j])]
                                                      for i, j in links if t.adjacency[i, j]]} for t in topos],
            order=[t.id for t in topos],
            dwell={str(t.id): TAU for t in topos},
            initial={"x": list(range(1, n + 1)), "v": list(range(1, n + 1))},
            observed=[int(i) for i in M],
            attacked=K,
            observer=_observer(psi=[1e-6] * len(M), theta=[1e-6] * len(M)),
        )
        del doc["attack"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--scenario", str(path)]) == 0
        assert "FAIL  detectability of running topology set" in capsys.readouterr().out.splitlines()
        sc = load_scenario(str(path))
        assert sc.attacked == (4, 5) and len(sc.attacked) < n
        assert attacks.synthesize(list(sc.topologies), sc.observed, sc.attacked) is None

    def test_report_lines_are_pass_fail(self):
        rep = scenario.validate(load_scenario(stealth_doc()))
        for line in rep.lines():
            assert line.startswith(("PASS", "FAIL"))


class TestRun:
    def test_deterministic_trace_bytes(self, tmp_path):
        sc = load_scenario(stealth_doc())
        r1 = scenario.run(sc, str(tmp_path / "a"))
        r2 = scenario.run(sc, str(tmp_path / "b"))
        with open(r1.trace_path, "rb") as f1, open(r2.trace_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_artifacts_written(self, tmp_path):
        sc = load_scenario(stealth_doc())
        result = scenario.run(sc, str(tmp_path))
        assert os.path.exists(result.trace_path)
        alarm = json.load(open(result.alarm_path))
        assert alarm["threshold"] == 1e-6
        report = open(result.report_path).read()
        assert "admissibility checks" in report

    def test_sample_cap_checked_before_any_stage(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("stage ran before the sample cap was checked")

        for stage in ("build_schedule", "validate", "synthesize_for"):
            monkeypatch.setattr(scenario, stage, unreachable)
        sc = load_scenario(stealth_doc(horizon=420.0))
        with pytest.raises(ValueError, match="exceed the cap"):
            scenario.run(sc, str(tmp_path), dt=1e-12)

    def test_attack_free_consensus_summary_absent_for_marginal_run(self, tmp_path):
        doc = stealth_doc()
        doc.pop("attack")
        doc.pop("attacked")
        sc = load_scenario(doc)
        result = scenario.run(sc, str(tmp_path))
        assert result.alarm_time is None
        assert "no alarm" in result.summary
        # the undamped plant is neutrally stable: the disagreement neither
        # decays to consensus nor grows tenfold
        assert "consensus reached" not in result.summary
        assert "final disagreement" in result.summary


class TestCli:
    def write(self, tmp_path, doc):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_validate_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, stealth_doc())
        assert cli.main(["validate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL  detectability" in out

    def test_run_exit_zero(self, tmp_path):
        path = self.write(tmp_path, stealth_doc())
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 0

    def test_malformed_scenario_exit_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["validate", "--scenario", str(p)]) == 2

    def test_synthesize_writes_attack_file(self, tmp_path):
        path = self.write(tmp_path, stealth_doc())
        out = str(tmp_path / "out")
        assert cli.main(["synthesize", "--scenario", path, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "stealth_attack.json")))
        assert doc["certificate"]["valid"]
        assert doc["eta"]["re"] > 0.0

    def test_synthesize_detectable_set_exit_three(self, tmp_path):
        doc = stealth_doc()
        doc["topologies"].append(
            {"id": 3, "n": 4, "edges": [[1, 2, 1], [2, 3, 2], [2, 4, 1.3], [3, 4, 1]]}
        )
        doc["order"] = [1, 2, 3]
        doc["dwell"]["3"] = TAU
        path = self.write(tmp_path, doc)
        assert cli.main(["synthesize", "--scenario", path, "--out", str(tmp_path)]) == 3

    def test_synthesize_ignores_directive_seed(self, tmp_path):
        outs = []
        for extra in ({}, {"seed": 5}):
            doc = stealth_doc(attack={"synthesize": True, "rho": 20.0, **extra})
            path = self.write(tmp_path, doc)
            out = tmp_path / f"out{len(outs)}"
            assert cli.main(["synthesize", "--scenario", path, "--out", str(out)]) == 0
            outs.append((out / "stealth_attack.json").read_bytes())
        assert outs[0] == outs[1]

    def test_numeric_failure_exit_four(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, stealth_doc())

        def boom(*args, **kwargs):
            raise scenario.simulation.SimulationError("overflow")

        monkeypatch.setattr(scenario, "run", boom)
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path)]) == 4

    def test_sweep_writes_summary(self, tmp_path):
        from conftest import K4_WEIGHTS

        # spectrum {0, 1/9, 4/9, 1}: within distance 1 of every eigenvalue
        # from 1, rational sqrt ratios, common modal period 6*pi
        edges = [[i, j, w / 9.0] for i, j, w in K4_WEIGHTS]
        doc = stealth_doc(horizon=30.0)
        doc["topologies"] = [{"id": 1, "n": 4, "edges": edges}]
        doc["order"] = [1]
        doc.pop("attack")
        doc.pop("attacked")
        doc.pop("dwell")
        doc["dwell_params"] = {"tau_hat_max": 0.2}
        path = self.write(tmp_path, doc)
        out = str(tmp_path / "sweep")
        code = cli.main(
            ["sweep", "--scenario", path, "--out", out, "--m-min", "1", "--m-max", "2"]
        )
        assert code == 0
        table = json.load(open(os.path.join(out, "stealth_sweep.json")))
        assert set(table) == {"1", "2"}
        for entry in table.values():
            assert "switch_count" in entry

    def test_empty_sweep_range_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """--m-min above --m-max names no multiplier: exit 2 with the usage,
        before the scenario is read or any m runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("sweep ran with an empty range")

        monkeypatch.setattr(scenario, "load_scenario", refuse)
        out = tmp_path / "sweep"
        argv = ["sweep", "--scenario", str(tmp_path / "missing.json"), "--out", str(out),
                "--m-min", "3", "--m-max", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "empty sweep range: --m-min 3 exceeds --m-max 1" in err
        assert not out.exists()


def _src_env() -> dict:
    """The environment of a subprocess that imports this checkout's zdalab."""
    src = os.path.dirname(os.path.dirname(zdalab.observer.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def _directive(**keys):
    return {"synthesize": True, "rho": 20.0, "eta_target": 0.05, **keys}


def _observer(**keys):
    return {"psi": [1e-6], "theta": [1e-6], "threshold": 1e-6, "window": 5, **keys}


def _inline_attack_doc(rate, **attack):
    """The README stealth pair under an inline attack object on agents 2 and
    3 from rho = 1, with g0 = (1, -0.5) and delta_z0 = 1e-3 on x4, observed
    with unit gains."""
    attack = {"eta": {"re": rate, "im": 0.0}, "rho": 1.0, "g0": {"re": [1.0, -0.5], "im": [0.0, 0.0]},
              "delta_z0": [0, 0, 0, 1e-3, 0, 0, 0, 0], "attacked": [2, 3], **attack}
    return stealth_doc(dwell={"1": 1.7708, "2": 1.7708}, attacked=[2, 3], attack=attack,
                       observer=_observer(psi=[1.0], theta=[1.0]))


def _topology_ids(*ids):
    """The stealth document's topologies under the given ids."""
    return {"topologies": [dict(t, id=tid) for t, tid in zip(stealth_doc()["topologies"], ids)]}


NAN = float("nan")
INF = float("inf")


class TestExitCodes:
    @pytest.mark.parametrize(
        "doc, extra_args",
        [
            (stealth_doc(dt=0), []),
            (stealth_doc(dt=-0.1), []),
            (stealth_doc(dwell={"1": TAU}), []),
            (stealth_doc(order=[]), []),
            (stealth_doc(), ["--dt", "0"]),
            (stealth_doc(), ["--dt", "-0.1"]),
            (None, []),
            (stealth_doc(dwell=None), []),
            (stealth_doc(dwell={"1": 1e-300, "2": 1e-300}), []),
            (stealth_doc(dt=1e-12, horizon=420.0), []),
            ([stealth_doc()], []),
            (stealth_doc(initial=5), []),
            (stealth_doc(dwell_params={"m": "x"}), []),
            (stealth_doc(attack=_directive(stealth_set=[9])), []),
            (stealth_doc(attack=_directive(rho=NAN)), []),
            (stealth_doc(attack=_directive(rho=None)), []),
            (stealth_doc(attack=_directive(rho=1e308)), []),
            (stealth_doc(attack=_directive(eta_target="x")), []),
            (stealth_doc(attack=0), []),
            (stealth_doc(observer=_observer(threshold=NAN)), []),
            (stealth_doc(observer=_observer(psi=[float("inf")])), []),
            (stealth_doc(observer=_observer(window=float("inf"))), []),
            (stealth_doc(initial={"x": [NAN, 2, 3, 4], "v": [1, 2, 3, 4]}), []),
            (stealth_doc(reported_initial={"x": [1, 2], "v": [1, 2]}), []),
            (stealth_doc(reported_initial={"x": [1, 2, 3, 4], "v": [1, 2, 3, NAN]}), []),
            (stealth_doc(dwell_params={"m": 1.5}), []),
            (stealth_doc(dwell_params={"m": True}), []),
            (stealth_doc(dwell_params={"kappa": 1.5}), []),
            (stealth_doc(observer=_observer(window=2.5)), []),
            (stealth_doc(observer=_observer(window=True)), []),
            (stealth_doc(schema=True), []),
            (stealth_doc(dt=True), []),
            (stealth_doc(dt="0.05"), []),
            (stealth_doc(horizon=True, attack=_directive(rho=0.5)), []),
            (stealth_doc(dwell_params={"alpha": True}), []),
            (stealth_doc(dwell_params={"alpha": 0.1, "tau_hat_max": True}), []),
            (stealth_doc(observer=_observer(threshold=True)), []),
            (stealth_doc(observer=_observer(psi=[True])), []),
            (stealth_doc(observer=_observer(theta=[True])), []),
            (stealth_doc(initial={"x": [True, 2, 3, 4], "v": [1, 2, 3, 4]}), []),
            (stealth_doc(reported_initial={"x": [1, 2, 3, 4], "v": [1, 2, 3, False]}), []),
            (stealth_doc(dwell={"1": True, "2": TAU}), []),
            (stealth_doc(attack=_directive(rho=True)), []),
            (stealth_doc(attack=_directive(eta_target=True)), []),
            (stealth_doc(**{"topologies": [{"id": 1, "n": 4, "edges": [[1, 2, True], [2, 3, 1], [3, 4, 1]]},
                                           stealth_doc()["topologies"][1]]}), []),
            (_inline_attack_doc(0.05, rho=True), []),
            (_inline_attack_doc(0.05, rho="1.0"), []),
            (_inline_attack_doc(0.05, eta={"re": True, "im": 0.0}), []),
            (_inline_attack_doc(0.05, g0={"re": [True, -0.5], "im": [0.0, 0.0]}), []),
            (_inline_attack_doc(0.05, delta_z0=[0, 0, 0, True, 0, 0, 0, 0]), []),
        ],
        ids=["dt-zero", "dt-negative", "dwell-lacks-id", "empty-order", "flag-dt-zero",
             "flag-dt-negative", "missing-file", "dwell-construction-inapplicable",
             "dwell-tiny", "dt-tiny", "top-level-list", "initial-not-object",
             "dwell-m-not-number", "stealth-set-unknown-id", "rho-nan", "rho-null",
             "rho-past-horizon", "eta-target-not-number", "attack-not-object", "threshold-nan", "gain-inf", "window-inf",
             "initial-nan", "reported-initial-short", "reported-initial-nan", "dwell-m-fraction",
             "dwell-m-bool", "dwell-kappa-fraction", "window-fraction", "window-bool", "schema-bool",
             "dt-bool", "dt-string", "horizon-bool", "alpha-bool", "tau-hat-max-bool",
             "threshold-bool", "psi-bool", "theta-bool", "initial-bool", "reported-initial-bool",
             "dwell-time-bool", "rho-bool", "eta-target-bool", "edge-weight-bool",
             "attack-rho-bool", "attack-rho-string", "attack-eta-bool", "attack-g0-bool",
             "attack-delta-z0-bool"],
    )
    def test_invalid_input_exits_two(self, tmp_path, capsys, doc, extra_args):
        path = tmp_path / "scenario.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + extra_args) == 2
        err = capsys.readouterr().err
        assert extra_args or err.startswith("scenario error: ")
        if doc is None:
            assert "no such file" in err

    @staticmethod
    def undetected_k4_doc():
        from conftest import K4_WEIGHTS

        # K4/9 and its 3-cycle relabelling: dwell times derive from the
        # common modal period, and no stealthy attack exists for the pair
        base = [[i, j, w / 9.0] for i, j, w in K4_WEIGHTS]
        perm = (2, 3, 1, 4)
        twin = [[perm[i - 1], perm[j - 1], w] for i, j, w in base]
        doc = stealth_doc(horizon=10.0, dwell=None, dwell_params={"tau_hat_max": 0.2})
        doc["topologies"] = [{"id": 1, "n": 4, "edges": base}, {"id": 2, "n": 4, "edges": twin}]
        doc["attack"] = {"synthesize": True}
        return doc

    @pytest.fixture(scope="class")
    def attack_object(self):
        """The stealth scenario's synthesized attack, as an attack file holds it."""
        return json.loads(attacks.attack_to_json(*scenario.synthesize_for(load_scenario(stealth_doc()))))

    @pytest.mark.parametrize("source", ["inline", "file"])
    @pytest.mark.parametrize(
        "path, value",
        [(None, None), (("eta", "re"), NAN), (("eta", "im"), INF), (("rho",), INF),
         (("rho",), NAN), (("g0", "re", 0), -INF), (("g0", "im", 1), NAN),
         (("delta_z0", 0), INF), (("delta_z0", 7), NAN)],
        ids=["unchanged", "eta-re-nan", "eta-im-inf", "rho-inf", "rho-nan", "g0-re-inf",
             "g0-im-nan", "delta-z0-inf", "delta-z0-nan"],
    )
    def test_non_finite_attack_object_exits_two(self, tmp_path, capsys, attack_object,
                                                source, path, value):
        """json.loads accepts NaN and Infinity, so the attack itself rejects
        them; the unchanged attack runs."""
        atk = copy.deepcopy(attack_object)
        if path is not None:
            box = atk
            for key in path[:-1]:
                box = box[key]
            box[path[-1]] = value
        if source == "file":
            (tmp_path / "attack.json").write_text(json.dumps(atk))
            atk = "attack.json"
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(stealth_doc(attack=atk)))
        code = cli.main(["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if path is None:
            assert code == 0, err
        else:
            assert code == 2
            assert err.startswith("scenario error: ") and "finite" in err

    @pytest.mark.parametrize("case, code", [("no-dwell", 2), ("no-attack", 3), ("overflow", 4)])
    def test_sweep_exits_as_run_when_every_m_fails(self, tmp_path, monkeypatch, case, code):
        doc = stealth_doc(dwell=None) if case == "no-dwell" else self.undetected_k4_doc()
        if case == "overflow":
            doc.pop("attack")

            def overflow(*args, **kwargs):
                raise scenario.simulation.SimulationError("overflow")

            monkeypatch.setattr(scenario.simulation, "simulate", overflow)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == code
        argv = ["sweep", "--scenario", str(path), "--out", str(out), "--m-min", "1", "--m-max", "2"]
        assert cli.main(argv) == code
        table = json.loads((out / "stealth_sweep.json").read_text())
        assert set(table) == {"1", "2"}
        assert all("error" in entry for entry in table.values())

    @pytest.mark.parametrize("verb", ["run", "synthesize"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, verb):
        """An --out below a regular file cannot be made: os.makedirs raises
        NotADirectoryError, an OSError, which exits 2 on one line."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc()))
        (tmp_path / "file").write_text("")
        argv = [verb, "--scenario", str(path), "--out", str(tmp_path / "file" / "sub")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_synthesize_without_attack_key_uses_the_default_directive(self, tmp_path):
        """With no attack key, `synthesize` runs the directive's defaults."""
        written = []
        for name, attack in (("absent", None), ("bare", {"synthesize": True})):
            doc = stealth_doc(attack=attack)
            if attack is None:
                doc.pop("attack")
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / name
            assert cli.main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
            written.append((out / "stealth_attack.json").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("verb", ["validate", "run", "synthesize"])
    def test_non_finite_edge_weight_exits_two(self, tmp_path, capsys, verb):
        """JSON reads 1e400 as inf; the topology rejects it before any stage."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc()).replace("[1, 2, 1]", "[1, 2, 1e400]", 1))
        assert cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and "edge weights must be finite" in err

    @pytest.mark.parametrize("case", ["gain", "finite-powers-gain", "weight"])
    def test_observer_overflow_exits_four(self, tmp_path, capsys, case):
        """A huge gain, or a huge weight without an attack, overflows the
        observer's propagators; the run reports it and writes no trace.
        With psi = 1e100 the drift's squares are finite but its fourth powers
        are not, so expm has no scaling to choose."""
        doc = stealth_doc(observer=_observer(psi=[1e308], theta=[1.0]))
        if case == "finite-powers-gain":
            doc = stealth_doc(observer=_observer(psi=[1e100], theta=[1.0]), dt=0.5)
        if case == "weight":
            doc = stealth_doc(attack=None)
            doc["topologies"][0]["edges"][0][2] = 1e200
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: observer overflow at t=") and err.count("\n") == 1
        assert not (tmp_path / "out" / "stealth_trace.csv").exists()

    def test_synthesized_attack_file_is_strict_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc()))
        out = tmp_path / "out"
        assert cli.main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        text = (out / "stealth_attack.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["certificate"]["max_output_gap"] is None

    def test_directive_rho_within_horizon(self):
        assert load_scenario(stealth_doc(attack=_directive(rho=60.0))).synthesize_directive
        with pytest.raises(ScenarioError, match="horizon"):
            load_scenario(stealth_doc(attack=_directive(rho=60.5)))

    def test_module_entry_point_has_no_runpy_warning(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(horizon=5.0, attack=_directive(rho=2.0))))
        proc = subprocess.run(
            [sys.executable, "-m", "zdalab.cli", "validate", "--scenario", str(path)],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "found in sys.modules" not in proc.stderr

    def test_run_path_imports_no_scipy(self, tmp_path):
        """scipy is only the test suite's oracle: importing the CLI and
        running the README stealth scenario loads no scipy module."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(horizon=420.0, attack=_directive(rho=110.0))))
        code = (
            "import sys, zdalab.cli; "
            "code = zdalab.cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.exit(code)"
        )
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-c", code] + argv,
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_cli_import_loads_no_process_pool(self):
        """The CLI runs in one process: a fresh interpreter's
        `import zdalab.cli` loads neither multiprocessing nor
        concurrent.futures, each of which costs milliseconds to import."""
        code = (
            "import sys, zdalab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


_FIRST_WEIGHT = ("topologies", 0, "edges", 0, 2)


def _field_paths(doc):
    """Every top-level key, the keys of each nested object, the keys of
    the first topology, and the weight of its first edge."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value]
    return paths + [("topologies", 0, sub) for sub in doc["topologies"][0]] + [_FIRST_WEIGHT]


_DELETE = object()
_ODD_VALUES = [_DELETE, None, 0, -1, "x", [], {}, [1], [1, 1], [0], True, NAN, 1e308]


@contextlib.contextmanager
def _wall_bound(seconds):
    """Fail the test when its body runs longer than ``seconds`` of wall time,
    so a run that never ends cannot stall the suite.  pytest.fail raises an
    exception that cli.main does not catch; a TimeoutError is an OSError,
    which cli.main would report as exit 2."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNeverATraceback:
    @pytest.mark.parametrize(
        "path", _field_paths(stealth_doc()), ids=lambda p: ".".join(map(str, p))
    )
    def test_single_field_change(self, tmp_path, capsys, path):
        """Deleting one field or giving it one odd value ends in a documented
        exit code, never in an exception."""
        scenario_path = tmp_path / "scenario.json"
        for value in _ODD_VALUES + [INF] * (path == _FIRST_WEIGHT):
            doc = copy.deepcopy(stealth_doc())
            box = doc
            for key in path[:-1]:
                box = box[key]
            if value is _DELETE:
                del box[path[-1]]
            else:
                box[path[-1]] = value
            scenario_path.write_text(json.dumps(doc))
            with _wall_bound(30):
                for verb in ("validate", "run"):
                    argv = [verb, "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]
                    assert cli.main(argv) in (0, 2, 3), (verb, path, value)
        capsys.readouterr()

    def test_dwell_at_the_spectrum_margin_ends(self, tmp_path, capsys):
        """alpha just above xi = 1 puts the dwell threshold near 1e9, about
        4.5e8 half-periods of the pair's modal period."""
        doc = stealth_doc(
            topologies=[{"id": tid, "n": 2, "edges": [[1, 2, 1.0]]} for tid in (1, 2)],
            dwell=None,
            dwell_params={"alpha": 1.0 + 1e-9},
            horizon=10.0,
            initial={"x": [0.0, 1.0], "v": [0.0, 0.0]},
            attacked=[2],
            attack=None,
            observer=None,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--scenario", str(path)]) == 0
        assert "PASS  dwell-time construction" in capsys.readouterr().out
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_overflowing_modal_period(self, tmp_path, capsys):
        """Two 128-agent weighted paths: the lcm of the ratio certificate's
        denominators has more digits than any float holds."""
        rng = np.random.default_rng(0)
        n = 128
        doc = stealth_doc(
            topologies=[
                {"id": tid, "n": n,
                 "edges": [[i, i + 1, w] for i, w in zip(range(1, n), rng.uniform(0.2, 0.5, n - 1))]}
                for tid in (1, 2)
            ],
            dwell=None,
            dwell_params={},
            initial={"x": [0.0] * n, "v": [0.0] * n},
            attacked=[2],
            attack=None,
            observer=None,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--scenario", str(path)]) == 0
        assert "FAIL  dwell-time construction" in capsys.readouterr().out
        assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "modal period overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "synthesize"])
    def test_delayed_directive_leaving_out_a_scheduled_topology(self, tmp_path, capsys, verb):
        """Before rho the discrepancy hides from every topology that runs, so
        a stealth set without topology 2 is a valid directive.  On this pair
        the hidden subspace also holds the attack after rho: no alarm."""
        doc = stealth_doc(attack={"synthesize": True, "rho": 20.0, "stealth_set": [1]})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        if verb == "run":
            assert capsys.readouterr().out.splitlines()[0].endswith(", no alarm")
        else:
            assert json.loads((tmp_path / "out" / "stealth_attack.json").read_text())["certificate"]["valid"]


class TestAgentSets:
    """Each gain pair and each attack signal entry stays with its agent, and
    a repeated agent is an input error."""

    @staticmethod
    def outputs(tmp_path, name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        return [(out / f"stealth_{f}").read_bytes() for f in ("trace.csv", "alarm.json", "report.txt")]

    def test_observed_order_keeps_each_gain_pair(self, tmp_path):
        """A falsified reported state makes every gain show in the residuals."""
        reported = {"x": [1.5, 2, 3, 4], "v": [1, 2, 3.5, 4]}
        written = stealth_doc(observed=[2, 1], observer=_observer(psi=[3, 1], theta=[0.5, 2]),
                              reported_initial=reported)
        ascending = stealth_doc(observed=[1, 2], observer=_observer(psi=[1, 3], theta=[2, 0.5]),
                                reported_initial=reported)
        assert self.outputs(tmp_path, "written", written) == self.outputs(tmp_path, "ascending", ascending)

    def test_attacked_order_keeps_each_signal_entry(self, tmp_path):
        def doc(attacked, g0):
            return stealth_doc(attack={"eta": {"re": 0.05, "im": 0.0}, "rho": 5.1,
                                       "g0": {"re": g0, "im": [0.0, 0.0]},
                                       "delta_z0": [0.1] + [0.0] * 7, "attacked": attacked})

        written = self.outputs(tmp_path, "written", doc([3, 2], [1.0, -0.5]))
        assert written == self.outputs(tmp_path, "ascending", doc([2, 3], [-0.5, 1.0]))

    @pytest.mark.parametrize(
        "overrides, message",
        [({"attacked": [3, 3, 4]}, "attacked set repeats agent 3"),
         ({"observed": [1, 1], "observer": _observer(psi=[1e-6] * 2, theta=[1e-6] * 2)},
          "observed set repeats agent 1")],
        ids=["attacked", "observed"],
    )
    def test_repeated_agent_exits_two(self, tmp_path, capsys, overrides, message):
        """A repeated agent is an input error before synthesis runs; a
        repeated attacked agent must not read as "no stealthy attack", and a
        repeated observed agent must not start a closure that never ends."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(**overrides)))
        with _wall_bound(5):
            code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (2, f"scenario error: {message}\n")


    @pytest.mark.parametrize(
        "overrides, message",
        [({"observed": [1.7]}, "observed set holds 1.7, which is not an integer agent id"),
         ({"observed": [True]}, "observed set holds True, which is not an integer agent id"),
         ({"attacked": [2.0, 3.0]}, "attacked set holds 2.0, which is not an integer agent id"),
         ({"attack": {"eta": {"re": 0.05, "im": 0.0}, "rho": 5.1, "g0": {"re": [1.0, -0.5], "im": [0.0, 0.0]},
                      "delta_z0": [0.1] + [0.0] * 7, "attacked": [2.0, 3.0]}},
          "attacked set holds 2.0, which is not an integer agent id"),
         ({"topologies": [{"id": 1, "n": 4, "edges": [[1.0, 2, 1], [2, 3, 1], [3, 4, 1]]}], "order": [1],
           "dwell": {"1": TAU}}, "bad edge (1.0, 2) for n=4"),
         ({"attack": _directive(rho=0.0, stealth_set=[1.7, 2])},
          "directive stealth_set holds 1.7, which is not a known topology id"),
         ({"attack": _directive(rho=0.0, stealth_set=[True, 2])},
          "directive stealth_set holds True, which is not a known topology id"),
         ({"order": [1.0, 2]}, "switching order holds 1.0, which is not a known topology id"),
         ({"order": [True, 2]}, "switching order holds True, which is not a known topology id"),
         ({"dwell": {"1": TAU, "2": TAU, "3": TAU}}, "dwell map holds 3, which is not a known topology id"),
         (_topology_ids(1.0, 2.0), "topology id 1.0 is not an integer"),
         (_topology_ids(1, 2.0), "topology id 2.0 is not an integer"),
         (_topology_ids(True, 2), "topology id True is not an integer")],
        ids=["observed-fraction", "observed-bool", "attacked-float", "attack-object-float", "edge-float",
             "stealth-set-fraction", "stealth-set-bool", "order-float", "order-bool", "dwell-unknown",
             "topology-floats", "topology-float", "topology-bool"],
    )
    def test_id_that_is_not_an_integer_exits_two(self, tmp_path, capsys, overrides, message):
        """1.7 is not truncated to agent 1, and an attack object's or an
        edge's 2.0 or 1.0 does not reach an array index as a float; a
        topology id in a stealth set, a switching order or a dwell map is
        a known integer id too (1.7 and true used to run as topologies 1)."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(**overrides)))
        code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (2, f"scenario error: {message}\n")

    @pytest.mark.parametrize("tid", [2**63, -(2**63) - 1, 2**64], ids=["2^63", "-2^63-1", "2^64"])
    def test_topology_id_outside_int64_exits_two(self, tmp_path, capsys, tid):
        """The trace stores topology ids in one int64 array: 2^64 and
        -2^63-1 used to make it an object array and end in a traceback, and
        2^63 + 1 a float array whose CSV printed a rounded id."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(**_topology_ids(tid, 2), order=[tid, 2],
                                               dwell={str(tid): TAU, "2": TAU})))
        code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (2, f"scenario error: topology id {tid} is outside int64\n")


@pytest.mark.parametrize("seed", [5, 100])
def test_rounding_level_gains_are_injected_as_zero(tmp_path, seed):
    """On the stealth pair at rho = 110, agents 1 and 2 hold entries of the
    kernel vector at its rounding level (about 1e-16 of the others): they
    inject exactly nothing, and the certificate still holds."""
    rng = np.random.default_rng(seed)
    initial = {"x": rng.uniform(0.5, 4.5, 4).tolist(), "v": rng.uniform(0.5, 4.5, 4).tolist()}
    sc = load_scenario(stealth_doc(horizon=420.0, dwell={"1": 1.7708, "2": 1.7708}, initial=initial,
                                   attack=_directive(rho=110.0, eta_target=0.05)))
    atk, cert = scenario.synthesize_for(sc)
    assert cert.valid
    assert atk.g0[:2].tolist() == [0.0, 0.0] and np.all(atk.g0[2:] != 0.0)
    result = scenario.run(sc, str(tmp_path))
    with open(result.trace_path) as fh:
        cols = fh.readline().rstrip("\n").split(",")
        k1, k2 = cols.index("attack1"), cols.index("attack2")
        assert {v for line in fh for v in operator.itemgetter(k1, k2)(line.split(","))} == {"0"}
    assert result.alarm_time is None


def _symmetric_k4(s):
    """A weighting of K4 that swapping agents 2 and 3 leaves unchanged, with
    spectrum {0, 1/9, 4/9, 1} and eigenvector (0, 1, -1, 0) for 4/9, for
    each s in about [2.8, 3.3]: weights a (1-2, 1-3), b (2-4, 3-4), c (1-4)
    and d (2-3), times 9, solve a + b + 2d = 4, 3(a + b) + 2c = 10 and
    2ab + c(a + b) = 9/4."""
    c, d = (10 - 3 * s) / 2, (4 - s) / 2
    a = (s + math.sqrt(s * s - 9 / 2 + 2 * c * s)) / 2
    b = s - a
    weights = [(1, 2, a), (1, 3, a), (2, 4, b), (3, 4, b), (1, 4, c), (2, 3, d)]
    return [[i, j, w / 9] for i, j, w in weights]


def _delayed_attack_doc():
    """Two such weightings: dwell times derive from the common modal period,
    and agent 1 cannot see the shared mode (0, 1, -1, 0), so an attack that
    starts at rho = 2 stays hidden."""
    doc = stealth_doc(
        horizon=10.0,
        dwell=None,
        dwell_params={"tau_hat_max": 0.2},
        attack={"synthesize": True, "rho": 2.0},
    )
    doc["topologies"] = [
        {"id": 1, "n": 4, "edges": _symmetric_k4(3.0)},
        {"id": 2, "n": 4, "edges": _symmetric_k4(3.2)},
    ]
    return doc


def _prefix_doc(rho):
    """The stealth pair, then the topology that makes the set detectable
    (``test_third_topology_restores_detectability``), each for tau, under an
    attack synthesized against the pair that starts at rho."""
    third = {"id": 3, "n": 4, "edges": [[1, 2, 1.0], [2, 3, 2.0], [2, 4, 1.3], [3, 4, 1.0]]}
    return stealth_doc(topologies=stealth_doc()["topologies"] + [third], order=[1, 2, 3],
                       dwell={"1": TAU, "2": TAU, "3": TAU}, horizon=6.0, dt=0.01,
                       attack={"synthesize": True, "rho": rho, "stealth_set": [1, 2]},
                       observer=_observer(psi=[1.0], theta=[1.0]))


@pytest.mark.parametrize("rho, alarm", [(1.0, 3.9), (2.5, 3.91)], ids=["under-1", "under-2"])
def test_delayed_attack_hides_until_a_topology_outside_the_stealth_set_runs(tmp_path, rho, alarm):
    """An attack against the pair {1, 2} starting while topology 1 (rho = 1)
    or topology 2 (rho = 2.5) runs hides its discrepancy from the topologies
    that run before rho: the residual stays at the rounding level until
    topology 3 first runs, at 2 tau = 3.54, and the alarm fires in that dwell."""
    sc = load_scenario(_prefix_doc(rho))
    atk, cert = scenario.synthesize_for(sc)
    assert atk.eta == 0.05 and cert.valid and max(cert.pencil_residuals) < 1e-15
    result = scenario.run(sc, str(tmp_path))
    trace = np.genfromtxt(result.trace_path, delimiter=",", names=True)
    third = sc.schedule.switch_times[1]
    assert third == pytest.approx(2 * TAU)
    assert np.abs(trace["r1"][trace["t"] <= third]).max() < 1e-14
    assert third < result.alarm_time < third + TAU
    assert result.alarm_time == pytest.approx(alarm, abs=1e-9)


@pytest.mark.parametrize("observed, summary", [(True, "unstable (overflow at t=18.75), alarm at t=0.65"),
                                                (False, "unstable (overflow at t=18.75)")],
                         ids=["observer", "no-observer"])
def test_plant_overflow_is_reported_without_a_warning(tmp_path, capsys, observed, summary):
    """An attack growing like e^{40 t} overflows the plant at t = 18.75: the
    run exits 0, reports the overflow, and writes the finite rows before it,
    with no floating-point warning on the way."""
    doc = _inline_attack_doc(40.0)
    if not observed:
        del doc["observer"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == summary
    rows = np.loadtxt(tmp_path / "out" / "stealth_trace.csv", delimiter=",", skiprows=1)
    assert np.isfinite(rows).all() and rows[-1, 0] == pytest.approx(18.7)


@pytest.mark.parametrize(
    "rate, rho, one_topology, summary, last",
    [(15.0, 50.0, True, "unstable (disagreement grew to 1.37e+64), alarm at t=0.65", 60.0),
     (4e4, 5.0, False, "unstable (overflow at t=5.05), alarm at t=0.65", 5.0),
     (4e4, 0.0, False, "unstable (overflow at t=0.05), no alarm", 0.0)],
    ids=["long-dormant-span", "overflow-within-one-step", "overflow-at-the-first-step"])
def test_a_fast_attack_runs_to_its_overflow_or_the_horizon(tmp_path, capsys, rate, rho, one_topology,
                                                           summary, last):
    """The attack's mode is zero while it is dormant, however far its
    exponential would overflow: a rate-15 attack from rho = 50, under one
    topology for the whole run, leaves the trace finite to the horizon, and
    a rate-4e4 attack, whose mode overflows within one dt step, ends the
    trace at its overflow after rho, or at t = 0 when rho = 0.  The observer
    follows the trace that far, and each run exits 0."""
    doc = _inline_attack_doc(rate, rho=rho)
    if one_topology:
        doc.update(topologies=doc["topologies"][:1], order=[1], dwell={"1": 1e9})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == summary
    rows = np.loadtxt(tmp_path / "out" / "stealth_trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.isfinite(rows).all() and rows[-1, 0] == last


@pytest.mark.parametrize("horizon", [1e-10, 5e-10, 1e-9])
def test_a_horizon_within_the_merge_tolerance_runs_one_sample(tmp_path, capsys, horizon):
    """A horizon of at most 1e-9, the tolerance within which samples merge,
    holds no propagation segment: the trace is the initial sample alone,
    which the observer follows, and the run exits 0."""
    doc = _inline_attack_doc(0.05)
    doc["horizon"] = horizon
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "final disagreement 3, no alarm"
    rows = np.loadtxt(tmp_path / "out" / "stealth_trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 1 and rows[0, 0] == 0.0


class TestRunPlan:
    """Each derived input of a scenario is computed once per (scenario, m)."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_schedule_per_run(self, tmp_path, monkeypatch):
        builds = self.count_calls(monkeypatch, scenario, "build_schedule")
        scenario.run(load_scenario(stealth_doc()), str(tmp_path))
        assert len(builds) == 1

    def test_derived_inputs_once_per_running_topology(self, tmp_path, monkeypatch):
        builds = self.count_calls(monkeypatch, scenario, "build_schedule")
        spectra = self.count_calls(monkeypatch, np.linalg, "eigh")
        certs = self.count_calls(monkeypatch, scenario.graphs, "rational_ratio_certificate")
        sc = load_scenario(_delayed_attack_doc())
        result = scenario.run(sc, str(tmp_path))
        assert result.alarm_time is None
        assert sc.synthesize_directive["rho"] > 0.0 and sc.dwell_override is None
        assert (len(builds), len(spectra), len(certs)) == (1, 2, 2)

    def test_sweep_builds_one_schedule_per_m(self, tmp_path, monkeypatch):
        builds = self.count_calls(monkeypatch, scenario, "build_schedule")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_delayed_attack_doc()))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--m-min", "1", "--m-max", "4"]
        assert cli.main(argv) == 0
        assert [sc.dwell_params.m for (sc,) in builds] == [1, 2, 3, 4]
        table = json.loads((tmp_path / "out" / "stealth_sweep.json").read_text())
        assert [table[m]["switch_count"] for m in "1234"] == [1, 0, 0, 0]

    def test_sweep_computes_spectra_and_certificates_once(self, tmp_path, monkeypatch):
        """They do not depend on m: one of each per running topology for the
        whole sweep, not per m: the plans share their topologies, which own
        them."""
        spectra = self.count_calls(monkeypatch, np.linalg, "eigh")
        certs = self.count_calls(monkeypatch, scenario.graphs, "rational_ratio_certificate")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_delayed_attack_doc()))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--m-min", "1", "--m-max", "4"]
        assert cli.main(argv) == 0
        assert (len(spectra), len(certs)) == (2, 2)

    @pytest.mark.parametrize("hurwitz", [False, True], ids=["no-hurwitz-mode", "hurwitz-mode"])
    def test_sweep_makes_one_lyapunov_solve(self, tmp_path, monkeypatch, hurwitz):
        """The observer matrices and their weight do not depend on m, and
        neither does the finding that no mode has a weight."""
        solves = self.count_calls(monkeypatch, scenario.scheduling, "lyapunov_weight")
        doc = _delayed_attack_doc()
        if hurwitz:  # agents 1 and 2 see the mode agent 1 alone cannot
            doc.update(observed=[1, 2], observer=_observer(psi=[1, 1], theta=[1, 1]), attack=None)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--m-min", "1", "--m-max", "4"]
        assert cli.main(argv) == 0
        assert len(solves) == 1
        (A_list,) = solves[0]
        assert any(map(scenario.scheduling.hurwitz, A_list)) == hurwitz

    def test_sweep_certificate_error_lands_in_each_row(self, tmp_path):
        doc = stealth_doc()
        doc["topologies"][0]["edges"] = [[1, 2, 1], [3, 4, 1]]
        doc.pop("dwell")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--m-min", "1", "--m-max", "2"]
        assert cli.main(argv) == 2
        table = json.loads((tmp_path / "out" / "stealth_sweep.json").read_text())
        assert sorted(table) == ["1", "2"] and all("error" in row for row in table.values())


class TestInformationBarrier:
    def test_observer_module_never_touches_attack_description(self):
        """The detection path must not import the attack module nor read any
        attack field; audited on the syntax tree."""
        src = open(zdalab.observer.__file__).read()
        tree = ast.parse(src)
        forbidden_attrs = {"rho", "g0", "delta_z0", "eta"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                assert "attacks" not in names
                if isinstance(node, ast.ImportFrom):
                    assert "attacks" not in (node.module or "")
            if isinstance(node, ast.Attribute):
                assert node.attr not in forbidden_attrs


def _n64_doc(seed: int) -> dict:
    """A document shaped like the scale benchmark: two random connected
    64-agent topologies scaled to a largest weighted degree of 32, agent 1
    observed from the true initial state plus 1e-3 on x1, and an
    exponential attack on agents 2 and 3 from t = 26.25."""
    from conftest import random_connected_topology

    rng = np.random.default_rng(seed)
    n, topologies = 64, []
    for tid in (1, 2):
        a = random_connected_topology(rng, n).adjacency
        a = a * ((n / 2) / a.sum(axis=1).max())
        edges = [[i + 1, j + 1, float(a[i, j])] for i in range(n) for j in range(i + 1, n) if a[i, j]]
        topologies.append({"id": tid, "n": n, "edges": edges})
    x, v = rng.uniform(0.5, 4.5, (2, n)).tolist()
    delta = [1e-3] + [0.0] * (2 * n - 1)
    attack = {"eta": {"re": 0.1, "im": 0.0}, "rho": 26.25, "g0": {"re": [1.0, -0.5], "im": [0.0, 0.0]},
              "delta_z0": delta, "attacked": [2, 3]}
    return stealth_doc(id="n64", topologies=topologies, horizon=52.5, initial={"x": x, "v": v},
                       reported_initial={"x": [x[0] + 1e-3] + x[1:], "v": v}, attacked=[2, 3],
                       attack=attack, observer=_observer(psi=[1.0], theta=[1.0]))


def test_plant_columns_do_not_depend_on_blas_threads(tmp_path):
    """The reproducibility contract at n = 64: one document run at one and
    at two OpenBLAS threads, each set before numpy loads, writes the same
    plant columns (t, topology, x*, v*, y*, attack*) byte for byte and the
    same alarm time.  The residual columns r* may differ at the rounding
    level, since threaded BLAS products round differently and the
    residual's rounding floor is not yet defined; they are held to 1e-10 of
    the largest residual."""
    path = tmp_path / "n64.json"
    path.write_text(json.dumps(_n64_doc(100)))
    cols, alarms = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "zdalab.cli", "run", "--scenario", str(path), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(_src_env(), OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        header, *rows = (out / "n64_trace.csv").read_text().splitlines()
        cols.append(dict(zip(header.split(","), zip(*(row.split(",") for row in rows)))))
        alarms.append(json.loads((out / "n64_alarm.json").read_text())["alarm_time"])
    one, two = cols
    assert one.keys() == two.keys() and "r1" in one and len(one["t"]) > 1000
    assert {k for k in one if one[k] != two[k]} <= {"r1"}
    r1, r2 = (np.array(c["r1"], dtype=float) for c in cols)
    assert np.abs(r1 - r2).max() <= 1e-10 * np.abs(r1).max()
    assert alarms[0] == alarms[1] and alarms[0] > 26.25


def test_n64_document_past_the_state_value_cap_exits_two(tmp_path, monkeypatch, capsys):
    """The sample cap counts stored state values, 2n a sample: 700,000
    samples stay within it at n = 4 and pass it at n = 64, whose run exits
    2 before any stage runs, so nothing of its size is allocated."""
    scenario.simulation.check_sample_count(52.5, 7.5e-5, 4)

    def unreachable(*args, **kwargs):
        raise AssertionError("stage ran before the sample cap was checked")

    for stage in ("build_schedule", "validate", "synthesize_for"):
        monkeypatch.setattr(scenario, stage, unreachable)
    monkeypatch.setattr(scenario.simulation, "simulate", unreachable)
    path = tmp_path / "n64.json"
    path.write_text(json.dumps(dict(_n64_doc(100), dt=7.5e-5)))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "7e+05 samples of 128 values exceed the cap" in err
    assert not (tmp_path / "out").exists()
