import ast
import json
import os
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
        assert sc.n == 4
        assert sc.order == (1, 2)
        assert sc.attacked == (1, 2, 3, 4)
        assert sc.synthesize_directive is not None
        assert sc.observer_cfg.alarm_window == 5

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
            raise scenario.simulation.SimulationError("overflow", blowup_time=1.0)

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


class TestExitCodes:
    @pytest.mark.parametrize(
        "overrides, extra_args",
        [
            ({"dt": 0}, []),
            ({"dt": -0.1}, []),
            ({"dwell": {"1": TAU}}, []),
            ({"order": []}, []),
            ({}, ["--dt", "0"]),
            ({}, ["--dt", "-0.1"]),
            (None, []),
            ({"dwell": None}, []),
            ({"dwell": {"1": 1e-300, "2": 1e-300}}, []),
            ({"dt": 1e-12, "horizon": 420.0}, []),
        ],
        ids=["dt-zero", "dt-negative", "dwell-lacks-id", "empty-order", "flag-dt-zero",
             "flag-dt-negative", "missing-file", "dwell-construction-inapplicable",
             "dwell-tiny", "dt-tiny"],
    )
    def test_invalid_input_exits_two(self, tmp_path, capsys, overrides, extra_args):
        path = tmp_path / "scenario.json"
        if overrides is not None:
            path.write_text(json.dumps(stealth_doc(**overrides)))
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + extra_args) == 2
        if overrides is None:
            assert "no such file" in capsys.readouterr().err

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

    def test_module_entry_point_has_no_runpy_warning(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(stealth_doc(horizon=5.0)))
        src = os.path.dirname(os.path.dirname(zdalab.observer.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "zdalab.cli", "validate", "--scenario", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "found in sys.modules" not in proc.stderr


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
