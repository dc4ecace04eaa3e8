import ast
import copy
import json
import math
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
        ],
        ids=["dt-zero", "dt-negative", "dwell-lacks-id", "empty-order", "flag-dt-zero",
             "flag-dt-negative", "missing-file", "dwell-construction-inapplicable",
             "dwell-tiny", "dt-tiny", "top-level-list", "initial-not-object",
             "dwell-m-not-number", "stealth-set-unknown-id", "rho-nan", "rho-null",
             "rho-past-horizon", "eta-target-not-number", "attack-not-object", "threshold-nan", "gain-inf", "window-inf",
             "initial-nan", "reported-initial-short", "reported-initial-nan"],
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
        """The trace writer forks with os alone: a fresh interpreter's
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


def _field_paths(doc):
    """Every top-level key, the keys of each nested object, and the keys of
    the first topology."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value]
    return paths + [("topologies", 0, sub) for sub in doc["topologies"][0]]


_DELETE = object()
_ODD_VALUES = [_DELETE, None, 0, -1, "x", [], {}, [1], True, NAN, 1e308]


class TestNeverATraceback:
    @pytest.mark.parametrize(
        "path", _field_paths(stealth_doc()), ids=lambda p: ".".join(map(str, p))
    )
    def test_single_field_change(self, tmp_path, capsys, path):
        """Deleting one field or giving it one odd value ends in a documented
        exit code, never in an exception."""
        scenario_path = tmp_path / "scenario.json"
        for value in _ODD_VALUES:
            doc = copy.deepcopy(stealth_doc())
            box = doc
            for key in path[:-1]:
                box = box[key]
            if value is _DELETE:
                del box[path[-1]]
            else:
                box[path[-1]] = value
            scenario_path.write_text(json.dumps(doc))
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
        """Before rho the discrepancy must hide from every topology that runs,
        so a stealth set without topology 2 is an input error."""
        doc = stealth_doc(attack={"synthesize": True, "rho": 20.0, "stealth_set": [1]})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "[2]" in err


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
        spectra = self.count_calls(monkeypatch, scenario.graphs, "spectrum")
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
        whole sweep, not per m."""
        spectra = self.count_calls(monkeypatch, scenario.graphs, "spectrum")
        certs = self.count_calls(monkeypatch, scenario.graphs, "rational_ratio_certificate")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_delayed_attack_doc()))
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "out"),
                "--m-min", "1", "--m-max", "4"]
        assert cli.main(argv) == 0
        assert (len(spectra), len(certs)) == (2, 2)

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
