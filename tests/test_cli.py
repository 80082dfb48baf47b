import copy
import csv
import errno
import json
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import BUNDLED_SCENARIO as SCENARIO
from helpers import error_norms, network_run, simulate_network, tracking_metrics
from networks import chain_payload, dag_payload, dense
from syncopt import cli, policy_iteration, simulator
from syncopt.errors import ValidationError
from syncopt.plant import check_assumptions

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture()
def scenario_dict():
    with open(SCENARIO) as f:
        return json.load(f)


def write_scenario(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadScenario:
    def test_bundled_loads(self):
        sc = cli.load_scenario(SCENARIO)
        assert len(sc.agents) == 5
        assert sc.leader.q == 2
        assert sc.r == 1.0

    def test_missing_design_r(self, tmp_path, scenario_dict):
        del scenario_dict["design"]["r"]
        with pytest.raises(ValidationError, match="design.r"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    def test_wrong_matrix_shape_names_agent(self, tmp_path, scenario_dict):
        scenario_dict["agents"][1]["B"] = [[0, 0], [0, 2]]  # one row short
        with pytest.raises(ValidationError, match="agent2.*matrix B"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"leader": \n broken}')
        with pytest.raises(ValidationError, match="line 2"):
            cli.load_scenario(path)

    def test_duplicate_agent_name(self, tmp_path, scenario_dict):
        scenario_dict["agents"][1]["name"] = "agent1"
        with pytest.raises(ValidationError, match="duplicate"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    def test_follower_count_checked_before_topology(self, tmp_path, scenario_dict, monkeypatch):
        # a wrong count must not allocate the dense N x N H matrix first
        def unreachable(*args):
            raise AssertionError("build_topology called")

        monkeypatch.setattr(cli, "build_topology", unreachable)
        scenario_dict["topology"]["n_followers"] = 1500
        with pytest.raises(ValidationError, match="5 agents declared for 1500 followers"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    def test_missing_initial_state(self, tmp_path, scenario_dict):
        del scenario_dict["init"]["x0"]["agent3"]
        with pytest.raises(ValidationError, match="init.x0.*agent3"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    @pytest.mark.parametrize("dt, t_end", [(0.0, 20.0), (-1e-3, 20.0), (float("nan"), 20.0),
                                           (1e-3, 5e-4), (1e-3, -1.0), (1e-3, float("inf")),
                                           (1e-3, 1e5), (1e-3, 1e160)])
    def test_bad_time_grid_rejected(self, tmp_path, scenario_dict, dt, t_end):
        scenario_dict["sim"] = {"dt": dt, "t_end": t_end}
        with pytest.raises(ValidationError, match="sim"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    @pytest.mark.parametrize("field", ["x0", "xi0"])
    def test_nonfinite_initial_state_rejected(self, tmp_path, scenario_dict, field):
        scenario_dict["init"][field]["agent2"][0] = float("nan")
        with pytest.raises(ValidationError, match=f"init.{field}.*agent2.*non-finite"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))

    @pytest.mark.parametrize("k1, match", [
        ([[float("inf"), 0, 3], [0, 0, 0]], "non-finite"),
        ([[4, 0, 3]], "shape"),
    ])
    def test_bad_k1_override_rejected(self, tmp_path, scenario_dict, k1, match):
        scenario_dict["k1_override"]["agent1"] = k1
        with pytest.raises(ValidationError, match=f"k1_override.*agent1.*{match}"):
            cli.load_scenario(write_scenario(tmp_path, scenario_dict))


class TestCommands:
    def test_validate_ok(self, tmp_path, capsys):
        rc = cli.main(["validate", str(SCENARIO), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "assumption_report.json").read_text())
        assert report["passed"]

    def test_validate_failure_exit_code(self, tmp_path, scenario_dict):
        scenario_dict["agents"][0]["D"] = [[0, 0], [0, 0]]
        path = write_scenario(tmp_path, scenario_dict)
        rc = cli.main(["validate", str(path), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("zero_d", [False, True], ids=["passing", "failing"])
    def test_validate_writes_what_check_assumptions_returns(self, tmp_path, scenario_dict, zero_d):
        if zero_d:
            scenario_dict["agents"][0]["D"] = [[0, 0], [0, 0]]
        path = write_scenario(tmp_path, scenario_dict)
        scenario = cli.load_scenario(path)
        report = check_assumptions(scenario.agents, scenario.leader, scenario.topology)
        assert list(report) == ["passed", "leader_unstable_modes", "topology_ok", "per_agent", "diagnostics"]
        flags = [report["passed"], report["leader_unstable_modes"], report["topology_ok"]]
        for checks in report["per_agent"].values():
            assert list(checks) == ["observable", "feedthrough_invertible", "stabilizable", "rank_condition"]
            flags += checks.values()
        assert all(type(flag) is bool for flag in flags) and report["passed"] is not zero_d
        assert cli.main(["validate", str(path), "--out", str(tmp_path)]) == 2 * zero_d
        assert (tmp_path / "assumption_report.json").read_text() == json.dumps(report, indent=2)

    def test_overflowing_feedthrough_gram_is_named(self, tmp_path, scenario_dict, capsys):
        # D^T D overflows to inf, and its SVD would give NaN: not "singular"
        scenario_dict["agents"][2]["D"][1][1] = 1e160
        path = write_scenario(tmp_path, scenario_dict)
        assert cli.main(["validate", str(path), "--out", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "agent3: D^T D overflows the float range" in out and "singular" not in out
        report = json.loads((tmp_path / "assumption_report.json").read_text())
        assert report["per_agent"]["agent3"]["feedthrough_invertible"] is False

    def test_parser_is_built_once_and_parses_each_call_afresh(self, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        for verb in cli.VERBS:  # main looks the verb up at each call
            monkeypatch.setattr(cli, f"cmd_{verb}", lambda args: seen.append(vars(args)) or 0)
        for argv in (["simulate", "a.json", "--gains", "optimal", "--seed", "3", "--svg", "--out", "x"],
                     ["simulate", "b.json"], ["learn", "c.json", "--seed", "5"], ["validate", "d.json"]):
            assert cli.main(argv) == 0
        assert seen == [
            {"command": "simulate", "scenario": "a.json", "out": "x", "seed": 3, "gains": "optimal",
             "svg": True},
            {"command": "simulate", "scenario": "b.json", "out": "out", "seed": None,
             "gains": "initial", "svg": False},
            {"command": "learn", "scenario": "c.json", "out": "out", "seed": 5},
            {"command": "validate", "scenario": "d.json", "out": "out", "seed": None},
        ]

    def test_io_failure_exit_code(self, tmp_path):
        rc = cli.main(["design", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 4

    def test_design_report(self, tmp_path):
        rc = cli.main(["design", str(SCENARIO), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "design_report.json").read_text())
        assert np.allclose(report["alphas"], [-2, -2, -2, -1, -2])
        pi4 = np.array(report["agents"]["agent4"]["Pi"])
        assert np.abs(pi4 - [[1, 0], [0, 0.7692], [0.5, 0]]).max() < 1e-3

    def test_learn_and_roundtrip_simulation(self, tmp_path):
        rc = cli.main(["learn", str(SCENARIO), "--out", str(tmp_path)])
        assert rc == 0
        gains = json.loads((tmp_path / "optimal_gains.json").read_text())
        for entry in gains["agents"].values():
            assert entry["optimal"]["converged"]
            assert entry["optimal"]["are_residual"] < 1e-8
        trace = json.loads((tmp_path / "pi_trace.json").read_text())
        assert all(it["abscissa"] < 0 for iterates in trace.values() for it in iterates)

        rc = cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path), "--gains", "optimal"])
        assert rc == 0
        first = (tmp_path / "trajectory_optimal.csv").read_bytes()
        (tmp_path / "trajectory_optimal.csv").unlink()
        rc = cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path), "--gains", "optimal"])
        assert rc == 0
        second = (tmp_path / "trajectory_optimal.csv").read_bytes()
        assert first == second

    def test_simulate_csv_header(self, tmp_path):
        rc = cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "trajectory_initial.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[:3] == ["t", "w_1", "w_2"]
        assert "agent1_e_1" in cols and "agent1_x_3" in cols
        assert "agent5_e_2" in cols and "agent5_x_1" in cols

    def test_compare_outputs_ordering(self, tmp_path, scenario_dict):
        rc = cli.main(["compare", str(SCENARIO), "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "comparison.json").read_text())["agents"]
        for entry in rows.values():
            assert entry["optimal"]["J_closed_form"] <= entry["initial"]["J_closed_form"] + 1e-9
            assert entry["initial"]["horizon_warning"] is None
            assert entry["optimal"]["horizon_warning"] is None

        scenario_dict["sim"]["t_end"] = 0.5  # shorter than the slowest time constants
        rc = cli.main(["compare", str(write_scenario(tmp_path, scenario_dict)), "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "comparison.json").read_text())["agents"]
        for entry in rows.values():
            assert "shorter than 5 time constants" in entry["initial"]["horizon_warning"]
            assert "shorter than 5 time constants" in entry["optimal"]["horizon_warning"]

    def test_seed_changes_leader_start(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, seed in ((out_a, "1"), (out_b, "2")):
            rc = cli.main(["simulate", str(SCENARIO), "--out", str(out), "--seed", seed])
            assert rc == 0
        a = (out_a / "trajectory_initial.csv").read_text().splitlines()[1]
        b = (out_b / "trajectory_initial.csv").read_text().splitlines()[1]
        assert a != b

    def test_seeded_w0_deterministic(self):
        assert np.array_equal(cli.seeded_w0(2, 42), cli.seeded_w0(2, 42))
        assert np.linalg.norm(cli.seeded_w0(2, 42)) > 0

    @pytest.mark.parametrize("verb", cli.VERBS)
    def test_negative_seed_exits_2(self, tmp_path, capsys, verb):
        # numpy seeds with no negative number; the parser refuses it, in every verb
        with pytest.raises(SystemExit) as stop:
            cli.main([verb, str(SCENARIO), "--out", str(tmp_path), "--seed", "-1"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"syncopt {verb}: error: argument --seed: must be a non-negative "
                            "integer, got -1\n") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("verb", cli.VERBS)
    def test_non_integer_seed_exits_2(self, tmp_path, capsys, verb):
        with pytest.raises(SystemExit) as stop:
            cli.main([verb, str(SCENARIO), "--out", str(tmp_path), "--seed", "abc"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"syncopt {verb}: error: argument --seed: invalid int value: 'abc'\n")
        assert "Traceback" not in err and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("verb", ["simulate", "learn", "validate"])
    def test_bad_scenario_exits_2(self, tmp_path, scenario_dict, capsys, verb):
        for keys, value in BAD_SCENARIO_FIELDS:
            payload = copy.deepcopy(scenario_dict)
            target = payload
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            path = write_scenario(tmp_path, payload)
            assert cli.main([verb, str(path), "--out", str(tmp_path)]) == 2, (keys, value)
            err = capsys.readouterr().err
            assert "validation failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("defect, text", [
        ("E/F columns", "agent agent1: E/F have 3 columns, leader order is 2"),
        ("unknown k1_override", "k1_override references unknown agent `agent9`"),
        ("NaN in leader S", "leader: leader model has non-finite entries"),  # json reads NaN
    ])
    def test_scenario_refusal_exits_2_with_its_text(self, tmp_path, scenario_dict, capsys, defect,
                                                    text):
        if defect == "E/F columns":
            agent1 = scenario_dict["agents"][0]
            agent1["E"] = [row + [0.0] for row in agent1["E"]]
            agent1["F"] = [row + [0.0] for row in agent1["F"]]
        elif defect == "NaN in leader S":
            scenario_dict["leader"]["S"][1][0] = float("nan")
        else:
            scenario_dict["k1_override"]["agent9"] = scenario_dict["k1_override"]["agent1"]
        path = write_scenario(tmp_path, scenario_dict)
        for verb in ("validate", "simulate"):
            assert cli.main([verb, str(path), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"validation failure: {text}\n"

    @pytest.mark.parametrize("defect, diagnostics", [
        ("edge 5 -> 1", ["directed cycle among followers"]),
        ("no edge into 4", ["followers unreachable from the leader: [4, 5]"]),
        ("edge 3 -> 0", ["leader has incoming edges"]),
        # without the edges into 4 the edge 5 -> 1 closes no cycle
        ("all three", ["followers unreachable from the leader: [4, 5]", "leader has incoming edges"]),
    ])
    def test_graph_refusal_exits_2_with_its_diagnostics(self, tmp_path, scenario_dict, capsys, defect,
                                                        diagnostics):
        edges = scenario_dict["topology"]["edges"]
        if defect in ("no edge into 4", "all three"):
            edges[:] = [edge for edge in edges if edge[1] != 4]
        if defect in ("edge 5 -> 1", "all three"):
            edges.append([5, 1])
        if defect in ("edge 3 -> 0", "all three"):
            edges.append([3, 0])
        path = write_scenario(tmp_path, scenario_dict)
        assert cli.main(["validate", str(path), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "assumptions FAIL\n" + "".join(f"  - {line}\n" for line in diagnostics) and err == ""
        report = json.loads((tmp_path / "assumption_report.json").read_text())
        assert report["topology_ok"] is False and report["diagnostics"] == diagnostics
        assert cli.main(["design", str(path), "--out", str(tmp_path / "design")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("validation failure: assumption checks failed: "
                                     + "; ".join(diagnostics) + "\n")
        assert not (tmp_path / "design").exists()

    def test_feedthrough_gram_refused_by_validate_as_by_learn(self, tmp_path, scenario_dict, capsys):
        # sigma(D^T D) = 1600 and 2.25e-10: above the plant checks' old
        # absolute 1e-10, below policy iteration's 1e-12 * sigma_max. validate,
        # design and simulate --gains initial accepted it, and learn, and
        # compare, which learns, refused it as a numerical failure (exit 3);
        # by the one rule every verb refuses it, as invalid input
        scenario_dict["agents"][0]["D"] = [[1.5e-5, 0.0], [0.0, 40.0]]
        path = write_scenario(tmp_path, scenario_dict)
        assert cli.main(["validate", str(path), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "assumptions FAIL\n  - agent1: D^T D numerically singular\n" and err == ""
        for verb in (["design"], ["learn"], ["simulate", "--gains", "initial"], ["compare"]):
            assert cli.main([verb[0], str(path), "--out", str(tmp_path), *verb[1:]]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == ("validation failure: assumption checks failed: "
                                         "agent1: D^T D numerically singular\n")

    def test_simulate_optimal_without_gains_file_learns_first(self, tmp_path, capsys):
        # the CSV of a --gains optimal run that has no gains file to read is
        # that of the run after learn, byte for byte
        assert cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path / "a"), "--gains", "optimal"]) == 0
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["trajectory_optimal.csv"]
        assert cli.main(["learn", str(SCENARIO), "--out", str(tmp_path / "b")]) == 0
        assert cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path / "b"), "--gains", "optimal"]) == 0
        assert ((tmp_path / "a" / "trajectory_optimal.csv").read_bytes()
                == (tmp_path / "b" / "trajectory_optimal.csv").read_bytes())

    def test_riccati_fixed_point_refusal_exits_3(self, tmp_path, capsys, monkeypatch):
        # with a zero tolerance no converged gain passes the check
        monkeypatch.setattr(policy_iteration, "ARE_RESIDUAL_RTOL", 0.0)
        capsys.readouterr()
        assert cli.main(["learn", str(SCENARIO), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: agent agent1 (learn): converged gain fails the "
                              "Riccati fixed-point check (") and err.count("\n") == 1
        assert "Traceback" not in err and not list(tmp_path.iterdir())

    def test_more_outputs_than_inputs_exits_2(self, tmp_path, scenario_dict, capsys):
        # agent1 keeps p = 2 outputs but only its first input: the regulator
        # equations are not square, which every verb must report as exit 2
        agent1 = scenario_dict["agents"][0]
        agent1["B"] = [row[:1] for row in agent1["B"]]
        agent1["D"] = [row[:1] for row in agent1["D"]]
        del scenario_dict["k1_override"]["agent1"]
        path = write_scenario(tmp_path, scenario_dict)
        for verb in ("validate", "design", "learn", "simulate", "compare"):
            rc = cli.main([verb, str(path), "--out", str(tmp_path)])
            out, err = capsys.readouterr()
            assert rc == 2, (verb, out, err)
            assert "agent1: rank condition needs p = m, got p = 2, m = 1" in out + err, verb
            assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["design", "learn", "simulate"])
    @pytest.mark.parametrize("n, r, follower", [(160, 0.01, 155), (200, 0.01, 155), (400, 0.1, 297)])
    def test_overflowing_coupling_scalars_exit_3(self, tmp_path, capsys, verb, n, r, follower):
        # on the chain c_i = 1 + ((lambda_M + r) / r) c_{i-1}, with lambda_M = 1:
        # c grows as 101^i at r = 0.01 and as 11^i at r = 0.1, and is no
        # longer finite from `follower` on; the scenario passes validate
        payload = chain_payload(n)
        payload["design"]["r"] = r
        path = write_scenario(tmp_path, payload)
        assert cli.main(["validate", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = cli.main([verb, str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert f"coupling scalars c, h overflow at follower {follower}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_huge_finite_k1_exits_3(self, tmp_path, scenario_dict, capsys, scale):
        # K1 is finite and A - B K1 Hurwitz, so validate and design pass; the
        # weight (C - D K)^T (C - D K) of the first evaluation overflows, and
        # the network's first RK4 step blows up. A RuntimeWarning that leaked
        # to stderr would raise here (pyproject's filterwarnings).
        scenario_dict["k1_override"]["agent1"] = [[scale, 0, 0], [0, scale, 0]]
        path = write_scenario(tmp_path, scenario_dict)
        for verb in ("validate", "design"):
            assert cli.main([verb, str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for verb in ("learn", "compare"):
            assert cli.main([verb, str(path), "--out", str(tmp_path)]) == 3, verb
            assert capsys.readouterr().err == (
                "numerical failure: agent agent1 (learn): policy evaluation at iteration 0 failed: "
                "Q has non-finite entries\n")
        assert cli.main(["simulate", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numerical failure: state blow-up at t = 0.001\n"

    @pytest.mark.parametrize("names", [("agent1",), ("agent5", "agent3")])
    def test_simulate_names_the_follower_whose_gain_overflows(self, tmp_path, capsys, names):
        # a stamped gains file whose Kic is 1.7e308 everywhere for `names`:
        # their rows A - B K1, -B K2, -B K3 of the network overflow, and
        # simulate refuses the run before its first step, naming the first
        assert cli.main(["learn", str(SCENARIO), "--out", str(tmp_path)]) == 0
        gains_file = tmp_path / "optimal_gains.json"
        payload = json.loads(gains_file.read_text())
        for name in names:
            optimal = payload["agents"][name]["optimal"]
            optimal["Kic"] = np.full_like(np.array(optimal["Kic"]), 1.7e308).tolist()
        gains_file.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path), "--gains", "optimal"]) == 3
        first = min(names)
        assert capsys.readouterr().err == (
            f"numerical failure: agent {first}: A - B K1, B K2 or B K3 has non-finite entries\n")
        assert not (tmp_path / "trajectory_optimal.csv").exists()

    def test_svg_works_with_numpy_alone(self, tmp_path, capsys, monkeypatch):
        # with matplotlib unimportable, --svg writes a chart that xml.etree
        # parses, one polyline and one legend entry per agent, and leaves the
        # CSV and the printed metrics as a run without it writes them
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
        printed = []
        for out, svg in ((tmp_path / "plain", []), (tmp_path / "svg", ["--svg"])):
            assert cli.main(["simulate", str(SCENARIO), "--out", str(out), "--gains", "optimal", *svg]) == 0
            printed.append(capsys.readouterr().out.replace(str(out), "<out>"))
        assert printed[0] == printed[1]
        assert ((tmp_path / "plain" / "trajectory_optimal.csv").read_bytes()
                == (tmp_path / "svg" / "trajectory_optimal.csv").read_bytes())
        assert sorted(p.name for p in (tmp_path / "svg").iterdir()) == [
            "errors_optimal.svg", "trajectory_optimal.csv"]
        root = ElementTree.parse(tmp_path / "svg" / "errors_optimal.svg").getroot()
        polylines = root.findall(f"{SVG}polyline")
        assert len(polylines) == 5
        assert all(len(p.get("points").split()) == 2 * cli.SVG_COLUMNS for p in polylines)
        texts = [t.text for t in root.iter(f"{SVG}text")]
        assert texts[-5:] == [f"agent{i}" for i in range(1, 6)]

    def test_svg_legend_escapes_any_agent_name(self, tmp_path, scenario_dict):
        # markup characters are escaped, and a character outside XML 1.0's
        # Char production is drawn as U+FFFD, so that the chart stays
        # well-formed; tab, no-break space, soft hyphen, zero-width joiner,
        # private-use and astral characters are allowed and kept
        kept = "\t\u00a0\u00ad\u200d\ue000\U0001f600"
        name = "a\u0001<&>\u00e9\ufffe" + kept
        old = scenario_dict["agents"][0]["name"]
        scenario_dict["agents"][0]["name"] = name
        for part in (scenario_dict["init"]["x0"], scenario_dict["init"]["xi0"], scenario_dict["k1_override"]):
            part[name] = part.pop(old)
        scenario_dict["sim"]["t_end"] = 0.1
        path = write_scenario(tmp_path, scenario_dict)
        assert cli.main(["simulate", str(path), "--out", str(tmp_path), "--svg"]) == 0
        root = ElementTree.parse(tmp_path / "errors_initial.svg").getroot()
        assert [t.text for t in root.iter(f"{SVG}text")][-5] == "a\ufffd<&>\u00e9\ufffd" + kept
        # a lone surrogate, which `load_scenario` refuses in a name, is
        # replaced too: the writer alone, on a run of one sample per column
        run = SimpleNamespace(tracking=SimpleNamespace(names=("\ud800x",), steps=1, dt=1.0))
        cli.write_error_svg(tmp_path / "lone.svg", run, np.ones((2, 1)), np.ones((2, 1)))
        root = ElementTree.parse(tmp_path / "lone.svg").getroot()
        assert [t.text for t in root.iter(f"{SVG}text")][-1] == "\ufffdx"

    @pytest.mark.parametrize("t_end, columns", [(0.6, 601), (20.0, 1000)])
    def test_svg_envelope_is_the_whole_record(self, tmp_path, scenario_dict, paper_bundle, t_end,
                                              columns):
        # at 601 samples each column holds one, and its low and high are that
        # sample's norms; at 20 001, column c holds the samples k with
        # k * 1000 // 20001 == c, and its low and high are their least and
        # largest norms. The chart draws them at fixed precision, and two
        # runs write the same bytes.
        scenario_dict["sim"]["t_end"] = t_end
        path = write_scenario(tmp_path, scenario_dict)
        scenario = cli.load_scenario(path)
        gains = {ad.name: ad.initial for ad in paper_bundle.per_agent}
        norms = error_norms(simulate_network(scenario, gains, scenario.t_end, scenario.dt))
        T = len(norms)
        starts = np.flatnonzero(np.diff(np.arange(T) * columns // T, prepend=-1))
        assert len(starts) == columns
        want_low, want_high = np.minimum.reduceat(norms, starts), np.maximum.reduceat(norms, starts)
        low, high = np.full((2, min(cli.SVG_COLUMNS, T), len(gains)), np.nan)
        for _ in cli.error_envelope(network_run(scenario, gains, scenario.t_end, scenario.dt), low, high):
            pass
        assert low.tobytes() == want_low.tobytes() and high.tobytes() == want_high.tobytes()
        if columns == T:
            assert low.tobytes() == norms.tobytes() == high.tobytes()

        charts = []
        for run in ("a", "b"):
            assert cli.main(["simulate", str(path), "--out", str(tmp_path / run), "--svg"]) == 0
            charts.append((tmp_path / run / "errors_initial.svg").read_bytes())
        assert charts[0] == charts[1]
        root = ElementTree.fromstring(charts[0])
        band = np.concatenate([want_high, want_low[::-1]])
        bottom = np.floor(np.log10(min(1.0, band[band > 0].min())))
        top = max(bottom + 1, np.ceil(np.log10(max(1.0, band.max()))))
        x = 70 + 550 * np.arange(columns) / (columns - 1)
        for j, polyline in enumerate(root.findall(f"{SVG}polyline")):
            points = np.array([p.split(",") for p in polyline.get("points").split()], dtype=float)
            y = 20 + 380 * (top - np.log10(band[:, j])) / (top - bottom)
            assert np.abs(points - np.column_stack([np.r_[x, x[::-1]], y])).max() <= 0.005 + 1e-9

    @pytest.mark.parametrize("defect", ["missing agent", "Kic shape", "not JSON", "no stamp",
                                        "other seed", "other scenario"])
    def test_bad_gains_file_exits_2(self, tmp_path, scenario_dict, capsys, defect):
        learn_seed = ["--seed", "1"] if defect == "other seed" else []
        assert cli.main(["learn", str(SCENARIO), "--out", str(tmp_path), *learn_seed]) == 0
        gains_file = tmp_path / "optimal_gains.json"
        gains = json.loads(gains_file.read_text())
        if defect == "missing agent":
            del gains["agents"]["agent5"]
        elif defect == "Kic shape":
            gains["agents"]["agent2"]["optimal"]["Kic"] = [[1.0, 2.0, 3.0]]
        elif defect == "no stamp":
            del gains["scenario_sha256"]
        text = json.dumps(gains)
        gains_file.write_text(text[: len(text) // 2] if defect == "not JSON" else text)
        scenario, sim_seed = SCENARIO, ["--seed", "2"] if defect == "other seed" else []
        if defect == "other scenario":  # same agent names and gain shapes
            scenario_dict["design"]["r"] = 2.0
            scenario = write_scenario(tmp_path, scenario_dict)
        capsys.readouterr()
        rc = cli.main(["simulate", str(scenario), "--out", str(tmp_path), "--gains", "optimal",
                       *sim_seed])
        err = capsys.readouterr().err
        assert rc == 2
        assert "validation failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("table", ["paper", "chain"])
    def test_csv_bytes_match_row_writer(self, tmp_path, capsys, table):
        # `simulate` writes its CSV a row block at a time, while integrating.
        # Runs that end one step before, on and one step after the end of
        # the first block must give the bytes of the row writer over the
        # joined trajectory, and print its metrics. paper: 28 columns, the
        # dense step map; chain: 403 columns, 404 states, the sparse step map.
        payload = json.loads(SCENARIO.read_text()) if table == "paper" else chain_payload(80)
        path = write_scenario(tmp_path, payload)
        scenario = cli.load_scenario(path)
        initial = {ad.name: ad.initial for ad in cli.run_design(scenario).per_agent}
        edge = first_block_steps(scenario, initial)
        for steps in (edge - 1, edge, edge + 1):
            payload["sim"]["t_end"] = steps * payload["sim"]["dt"]
            path = write_scenario(tmp_path, payload)
            out = tmp_path / str(steps)
            assert cli.main(["simulate", str(path), "--out", str(out)]) == 0
            printed = capsys.readouterr().out
            scenario = cli.load_scenario(path)
            traj = simulate_network(scenario, initial, scenario.t_end, scenario.dt)
            assert len(traj.times) == steps + 1
            csv_path = out / "trajectory_initial.csv"
            assert csv_path.read_bytes() == row_writer_csv(tmp_path / "rows.csv", scenario, traj)
            lines = [
                f"{name}: tail error {met.tail_error:.3e}, settle "
                + ("not settled" if met.settle_time is None else f"{met.settle_time:.3f} s")
                for name, met in tracking_metrics(traj).items()
            ]
            assert printed == "\n".join(lines + [f"wrote {csv_path}"]) + "\n"

    @pytest.mark.parametrize("steps_from_edge", [-1, 0, 1])
    def test_compare_network_metrics_match_trajectory(self, tmp_path, paper_scenario, paper_bundle,
                                                      paper_traces, steps_from_edge):
        # `compare` forms each network run only from the chunk before its
        # tail on; its tail errors are those of the whole trajectory
        initial = {ad.name: ad.initial for ad in paper_bundle.per_agent}
        optimal = cli.optimal_gain_sets(paper_bundle, paper_traces)
        steps = first_block_steps(paper_scenario, initial) + steps_from_edge
        assert_compare_tail_errors(tmp_path, json.loads(SCENARIO.read_text()), steps,
                                   {"initial": initial, "optimal": optimal})

    @pytest.mark.parametrize("steps", [12798, 12799, 12800, 12801, 12802, 20000])
    def test_compare_network_metrics_match_trajectory_at_chunk_edges(
            self, tmp_path, paper_bundle, paper_traces, steps):
        # 29 states, chunks of 128 steps: the tail starts at sample 11519,
        # 11520 (the last sample of chunk 90), 11520, 11521 and 11522; and
        # the whole 20 s horizon
        assert simulator._chunk_length(29) == 128
        initial = {ad.name: ad.initial for ad in paper_bundle.per_agent}
        optimal = cli.optimal_gain_sets(paper_bundle, paper_traces)
        assert_compare_tail_errors(tmp_path, json.loads(SCENARIO.read_text()), steps,
                                   {"initial": initial, "optimal": optimal})

    def test_compare_network_metrics_match_trajectory_on_sparse_path(self, tmp_path):
        # 80 followers on a random DAG, 404 states (learn fails on a chain of
        # 70 followers or more): no chunk to pass over, every step is taken
        # and only the blocks from the tail on have outputs
        payload = dag_payload(80, seed=7)
        payload["sim"]["t_end"] = 1.0
        scenario = cli.load_scenario(write_scenario(tmp_path, payload))
        bundle = cli.run_design(scenario)
        assert simulator._chunk_length(404) == 1
        initial = {ad.name: ad.initial for ad in bundle.per_agent}
        optimal = cli.optimal_gain_sets(bundle, cli.run_learn(scenario, bundle))
        assert_compare_tail_errors(tmp_path, payload, 1000, {"initial": initial, "optimal": optimal})

    @pytest.mark.parametrize("t_end", [30.0, 40.0])
    @pytest.mark.parametrize("verb", [["compare"], ["simulate", "--gains", "initial"]],
                             ids=["compare", "simulate"])
    def test_blowup_exits_3_at_the_same_time(self, tmp_path, capsys, scenario_dict, verb, t_end):
        # the leader's +1 mode takes the network past BLOWUP_LIMIT at
        # t = 27.545 s: inside the tail at 30 s, and inside the chunks that
        # `compare` passes over at 40 s
        scenario_dict["sim"]["t_end"] = t_end
        path = write_scenario(tmp_path, scenario_dict)
        capsys.readouterr()
        rc = cli.main([verb[0], str(path), "--out", str(tmp_path), *verb[1:]])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: state blow-up at t = 27.545\n"

    def test_failed_simulation_leaves_no_csv(self, tmp_path, capsys, paper_scenario, paper_bundle):
        # a stamped gains file whose agent3 Kic, negated and halved, is finite
        # but destabilises the network: it blows up at t = 15.535 s, after
        # the first row blocks went to the CSV's temporary file; with --svg,
        # no chart is written either
        assert cli.main(["learn", str(SCENARIO), "--out", str(tmp_path)]) == 0
        gains_file = tmp_path / "optimal_gains.json"
        gains = json.loads(gains_file.read_text())
        kic = gains["agents"]["agent3"]["optimal"]["Kic"]
        gains["agents"]["agent3"]["optimal"]["Kic"] = (-0.5 * np.array(kic)).tolist()
        gains_file.write_text(json.dumps(gains))
        initial = {ad.name: ad.initial for ad in paper_bundle.per_agent}
        assert first_block_steps(paper_scenario, initial) * paper_scenario.dt < 15.535
        files = sorted(p.name for p in tmp_path.iterdir())
        csv_path = tmp_path / "trajectory_optimal.csv"
        for earlier, svg in ((None, []), (None, ["--svg"]),
                             (b"t,w_1\r\n0,1\r\n", []), (b"t,w_1\r\n0,1\r\n", ["--svg"])):
            if earlier is not None:
                csv_path.write_bytes(earlier)
            capsys.readouterr()
            rc = cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path), "--gains", "optimal", *svg])
            err = capsys.readouterr().err
            assert rc == 3
            assert "numerical failure: state blow-up at t = 15.535" in err and "Traceback" not in err
            if earlier is None:
                assert sorted(p.name for p in tmp_path.iterdir()) == files
            else:
                assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + [csv_path.name])
                assert csv_path.read_bytes() == earlier

    def test_a_sample_has_the_same_csv_bytes_whatever_the_horizon(self, tmp_path, capsys, scenario_dict):
        # the network's row blocks hold 4608 samples at 29 states, so at 4609
        # steps sample 4609 would be a block of its own, whose follower
        # outputs take numpy's matrix-vector path; it joins the block before
        assert simulator._block_rows(29, simulator._chunk_length(29)) == 4608
        raw, rows = scenario_dict, []
        for t_end in (4.609, 4.610):
            raw["sim"]["t_end"] = t_end
            out = tmp_path / str(t_end)
            out.mkdir()
            path = write_scenario(out, raw)
            assert cli.main(["simulate", str(path), "--out", str(out), "--gains", "optimal"]) == 0
            rows.append((out / "trajectory_optimal.csv").read_bytes().splitlines()[1 + 4609])
        assert rows[0] == rows[1]

    def test_simulate_memory_is_bounded_by_blocks(self, tmp_path, capsys):
        # 150 followers on a chain, 754 states, 4001 samples: 24.1 MB of
        # samples, where a row block holds 256 rows, 1.5 MB. numpy reports
        # its allocations to tracemalloc, so the traced peak is deterministic.
        payload = chain_payload(150)
        payload["sim"]["t_end"] = 0.01  # a first run loads what is loaded once
        assert cli.main(["simulate", str(write_scenario(tmp_path, payload)),
                         "--out", str(tmp_path / "first")]) == 0
        payload["sim"]["t_end"] = 4.0
        path = write_scenario(tmp_path, payload)
        samples_bytes = 4001 * 754 * 8
        assert samples_bytes >= 4 * simulator._BLOCK_BYTES
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", str(path), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < samples_bytes / 2

    @pytest.mark.parametrize("network", ["paper", "random DAG"])
    def test_reports_hold_u_as_its_nonzeros(self, tmp_path, network):
        # design_report.json and optimal_gains.json hold the same U, as its
        # nonzeros numbered 1..N like the graph's followers; the dense U
        # rebuilt from either has the bits of the transform's own
        if network == "paper":
            path = SCENARIO
        else:
            path = write_scenario(tmp_path, dag_payload(20, seed=3))
        assert cli.main(["design", str(path), "--out", str(tmp_path)]) == 0
        assert cli.main(["learn", str(path), "--out", str(tmp_path)]) == 0
        tf = cli.run_design(cli.load_scenario(path)).transform
        n = len(tf.c)
        written = [json.loads((tmp_path / name).read_text())["U"]
                   for name in ("design_report.json", "optimal_gains.json")]
        assert written[0] == written[1]
        U = written[0]
        assert sorted(U) == ["cols", "n", "rows", "vals"] and U["n"] == n
        assert set(U["rows"]) == set(range(1, n + 1)) and set(U["cols"]) <= set(U["rows"])
        assert len(U["vals"]) > n  # follower edges besides the diagonal
        nonzeros = (np.array(U["rows"]) - 1, np.array(U["cols"]) - 1, np.array(U["vals"]))
        assert dense(nonzeros, n).tobytes() == dense(tf.U, n).tobytes()

    def test_gains_payload_memory_is_linear(self, tmp_path):
        # 2000 followers: a dense N x N float64 matrix is 32 MB; building and
        # writing a report must stay under a quarter of that
        n = 2000
        scenario = cli.load_scenario(write_scenario(tmp_path, dag_payload(n, seed=7)))
        bundle = cli.run_design(scenario)
        tracemalloc.start()
        try:
            cli._write_json(tmp_path / "design_report.json", cli.gains_payload(bundle, None, scenario))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, peak


def assert_compare_tail_errors(tmp_path, payload, steps, gain_sets):
    """`compare` over `steps` steps writes, for each gain set, the tail
    error of the whole network trajectory, the same float."""
    payload = copy.deepcopy(payload)
    payload["sim"]["t_end"] = steps * payload["sim"]["dt"]
    path = write_scenario(tmp_path, payload)
    assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "comparison.json").read_text())["agents"]
    scenario = cli.load_scenario(path)
    for label, gains in gain_sets.items():
        traj = simulate_network(scenario, gains, scenario.t_end, scenario.dt)
        assert len(traj.times) == steps + 1
        for name, met in tracking_metrics(traj).items():
            assert rows[name][label]["network_tail_error"] == met.tail_error


def first_block_steps(scenario, gains) -> int:
    """Steps in the first row block of the scenario's network run."""
    block = next(iter(network_run(scenario, gains, t_end=100.0, dt=scenario.dt)))
    return len(block.times) - 1


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def at_path(node, path):
    for key in path:
        node = node[key]
    return node


def is_matrix(node) -> bool:
    return isinstance(node, list) and bool(node) and all(isinstance(row, list) for row in node)


BUNDLED = json.loads(SCENARIO.read_text())
PATHS = list(json_paths(BUNDLED))
ODD_VALUES = [float("nan"), float("inf"), float("-inf"), 1e160, 1.7e308, -1.0, -2, 0, "x", [], [1.5],
              {"k": 1}, None, True]
MATRICES = [path for path in PATHS if is_matrix(at_path(BUNDLED, path))]
RESHAPES = {
    "drop row": lambda m: m[:-1],
    "drop column": lambda m: [row[:-1] for row in m],
    "add row": lambda m: m + [m[-1]],
    "add column": lambda m: [row + [0.0] for row in m],
    "ragged": lambda m: [m[0] + [1.0]] + m[1:],
    "transpose": lambda m: [list(col) for col in zip(*m)],
}


@st.composite
def mutated_scenarios(draw):
    """The bundled scenario with one or two keys or list items dropped,
    values replaced by NaN, inf, a negative number, a string, a list or an
    object, matrices reshaped, or every entry of a matrix set to 1e308."""
    payload = copy.deepcopy(BUNDLED)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["drop", "replace", "reshape", "scale"]))
        path = draw(st.sampled_from(PATHS if kind in ("drop", "replace") else MATRICES))
        try:
            parent = at_path(payload, path[:-1])
            value = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "replace":
            parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
        elif not is_matrix(value):
            continue
        elif kind == "reshape":
            parent[path[-1]] = RESHAPES[draw(st.sampled_from(sorted(RESHAPES)))](value)
        else:  # 1e308 times a ones matrix, whose spectrum (n 1e308) overflows: 1e308 times
            # the scenario's own matrices never does, as they are triangular
            parent[path[-1]] = [[1e308] * len(row) for row in value]
    return payload


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=mutated_scenarios())
def test_mutated_scenario_keeps_exit_contract(tmp_path, capsys, payload):
    path = write_scenario(tmp_path, payload)
    rc = cli.main(["validate", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if rc == 0:
        for verb in ("design", "learn", "simulate", "compare"):
            rc = cli.main([verb, str(path), "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert rc in (0, 2, 3, 4), (verb, err)
            assert "Traceback" not in err


BAD_SCENARIO_FIELDS = [  # (path of keys into the bundled scenario, bad value)
    (("sim", "dt"), 0.0),
    (("init", "x0", "agent1", 0), float("nan")),
    (("sim", "dt"), "abc"),
    (("topology", "edges", 0), [0]),
    (("topology", "edges", 0), 5),
    (("topology", "edges", 0), [0.5, 1]),
    (("topology", "n_followers"), "x"),
    (("design", "max_iter"), 0),
    (("agents",), 5),
    (("design", "r"), float("nan")),
    (("k1_override",), [1]),
    (("agents", 0, "name"), ["a"]),
    (("init", "seed"), "x"),
    (("topology", "n_followers"), 1500),
    (("leader", "S"), {"k": 1}),
    (("agents", 0, "A"), {"k": 1}),
    (("agents", 0, "name"), "\ud800x"),
    (("k1_override",), []),
    (("k1_override",), False),
    (("k1_override",), 0),
    (("k1_override",), ""),
]


@pytest.mark.parametrize("keys, text", [
    (("design", "r"), "numerical failure: agent agent5: augmented plant has non-finite entries"),
    (("agents", 0, "F", 0, 0),
     "numerical failure: agent agent1: regulator residual nan exceeds tolerance (ill-conditioned system)"),
    (("agents", 1, "E", 1, 0), "numerical failure: agent agent2: augmented plant has non-finite entries"),
    (("k1_override", "agent1", 1, 0),
     "validation failure: agent agent1: provided K1 does not make A - B K1 Hurwitz"),
])
@pytest.mark.parametrize("verb", ["design", "learn", "simulate", "compare"])
def test_entry_near_the_float_limit_is_refused(tmp_path, capsys, scenario_dict, keys, text, verb):
    # one entry at 1.7e308, which validate passes: a product of it overflows,
    # and the verb refuses with one line (a leaked RuntimeWarning fails the
    # test through pytest's filterwarnings)
    scenario_dict["sim"]["t_end"] = 0.2
    target = scenario_dict
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 1.7e308
    path = write_scenario(tmp_path, scenario_dict)
    assert cli.main(["validate", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.main([verb, str(path), "--out", str(tmp_path)]) == int(text.startswith("numerical")) + 2
    assert capsys.readouterr().err == text + "\n"


OVERFLOWING_SPECTRA = {  # an eigenvalue of 2e308, which is inf, from entries of 1e308
    "agent A": (("agents", 0, "A"), [[1e308, 1e308, 0], [1e308, 1e308, 0], [0, 0, -1]], [
        "agent1: eigenvalues of A overflow the float range",
        "agent1: (A, C) not observable",
        "agent1: PBH fails at eigenvalue inf",
        "agent1: rank condition fails at leader eigenvalue 1",
    ]),
    "leader S": (("leader", "S"), [[1e308, 1e308], [1e308, 1e308]], [
        *(f"agent{k}: rank condition fails at leader eigenvalue inf" for k in range(1, 6)),
        "eigenvalues of leader S overflow the float range",
    ]),
}


@pytest.mark.parametrize("verb", cli.VERBS)
@pytest.mark.parametrize("case", sorted(OVERFLOWING_SPECTRA))
def test_spectrum_beyond_the_float_range_is_refused(tmp_path, capsys, scenario_dict, case, verb):
    # every rank test at an infinite eigenvalue fails, and one diagnostic
    # names the overflow: validate writes its report, every verb exits 2
    (*keys, last), matrix, diagnostics = OVERFLOWING_SPECTRA[case]
    target = scenario_dict
    for key in keys:
        target = target[key]
    target[last] = matrix
    path = write_scenario(tmp_path, scenario_dict)
    assert cli.main([verb, str(path), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    if verb == "validate":
        assert (out, err) == ("assumptions FAIL\n" + "".join(f"  - {d}\n" for d in diagnostics), "")
        assert json.loads((tmp_path / "assumption_report.json").read_text())["diagnostics"] == diagnostics
    else:
        assert (out, err) == ("", "validation failure: assumption checks failed: "
                              + "; ".join(diagnostics) + "\n")


@pytest.mark.parametrize("value", [[], False, 0, ""])
def test_k1_override_that_is_not_an_object_is_refused(tmp_path, capsys, scenario_dict, value):
    # only a missing key or null means no override; a falsy value is refused
    scenario_dict["k1_override"] = value
    path = write_scenario(tmp_path, scenario_dict)
    assert cli.main(["design", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"validation failure: k1_override must be an object, got {value!r}\n"


def test_null_k1_override_counts_as_absent(tmp_path, scenario_dict):
    scenario_dict["k1_override"] = None
    assert cli.load_scenario(write_scenario(tmp_path, scenario_dict)).k1_override is None


@pytest.mark.parametrize("verb", cli.VERBS)
def test_agent_name_that_utf8_cannot_encode_is_refused(tmp_path, capsys, scenario_dict, verb):
    # a lone surrogate: no CSV header, chart or report can hold the name
    name = "\ud800x"
    scenario_dict["agents"][0]["name"] = name
    for part in (scenario_dict["init"]["x0"], scenario_dict["init"]["xi0"], scenario_dict["k1_override"]):
        part[name] = part.pop("agent1")
    path = write_scenario(tmp_path, scenario_dict)
    assert cli.main([verb, str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "validation failure: agent name '\\ud800x' does not encode as UTF-8\n"


def row_writer_csv(path, scenario, traj) -> bytes:
    """The trajectory CSV written one `csv.writer` row at a time."""
    header = ["t"] + [f"w_{k + 1}" for k in range(scenario.leader.q)]
    cols = [traj.times] + [traj.leader_states[:, k] for k in range(scenario.leader.q)]
    for name, ag in scenario.agents:
        stream = traj.followers[name]
        header += [f"{name}_e_{k + 1}" for k in range(ag.p)]
        cols += [stream.e[:, k] for k in range(ag.p)]
        header += [f"{name}_x_{k + 1}" for k in range(ag.n)]
        cols += [stream.x[:, k] for k in range(ag.n)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in np.column_stack(cols):
            writer.writerow([f"{v:.17g}" for v in row])
    return path.read_bytes()


# floats json spells specially or that stress the shortest repr: signed zero,
# the smallest subnormal, the largest finite float
ODD_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.5e-310, 1.7976931348623157e308]
json_floats = st.floats() | st.sampled_from(ODD_FLOATS)
json_leaves = (st.none() | st.booleans() | st.integers() | json_floats
               | json_floats.map(np.float64) | st.text())
json_keys = (st.text() | st.sampled_from(["agent1", "agent→2", "Zürich", "名前", '"q"\n'])
             | st.integers() | json_floats | st.booleans() | st.none())
json_trees = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.lists(json_floats, max_size=6)
                      | st.dictionaries(json_keys, children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=json_trees)
def test_write_json_writes_json_dump_bytes(tmp_path, obj):
    path = tmp_path / "report.json"
    cli._write_json(path, obj)
    assert path.read_bytes() == json.dumps(obj, indent=2).encode()


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"x", 1j, np.int64(1), np.bool_(True),
                                 np.array([1.0]), {(1, 2): 0.5}])
def test_write_json_rejects_what_json_dump_rejects(tmp_path, bad):
    obj = {"agents": {"agent1": {"P": [[1.0, 2.0], [bad]]}}}
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        cli._write_json(tmp_path / "report.json", obj)
    assert str(got.value) == str(want.value)


def test_a_report_write_that_fails_leaves_the_earlier_report(tmp_path, capsys, monkeypatch):
    # the disk fills after the first chunk of design_report.json: the verb
    # exits 4, the report of the run before is left byte for byte, and no
    # temporary file stays behind
    assert cli.main(["design", str(SCENARIO), "--out", str(tmp_path)]) == 0
    before = (tmp_path / "design_report.json").read_bytes()

    def disk_full(*args, **kwargs):  # a file that takes one chunk, then raises
        f = open(*args, **kwargs)
        chunks = []

        def write(text):
            if chunks:
                raise OSError(errno.ENOSPC, "No space left on device")
            chunks.append(text)
            return type(f).write(f, text)

        f.write = write
        return f

    monkeypatch.setattr(cli, "open", disk_full, raising=False)
    capsys.readouterr()
    assert cli.main(["design", str(SCENARIO), "--out", str(tmp_path)]) == 4
    assert "No space left on device" in capsys.readouterr().err
    assert (tmp_path / "design_report.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["design_report.json"]


def _float_row(text: str) -> bool:
    try:
        row = json.loads(text)
    except ValueError:
        return False
    return isinstance(row, list) and bool(row) and all(type(x) is float for x in row)


def test_learn_streams_its_reports_a_member_or_item_at_a_time(tmp_path, monkeypatch):
    # every write of optimal_gains.json and pi_trace.json holds at most one
    # dict member or list item (no ',' past a leading separator), unless it
    # is a row of floats written whole; the writes make the report
    writes = {}

    def recording(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        calls = writes.setdefault(Path(path).name.split(".")[1], [])

        def write(text):
            calls.append(text)
            return type(f).write(f, text)

        f.write = write
        return f

    monkeypatch.setattr(cli, "open", recording, raising=False)
    assert cli.main(["learn", str(SCENARIO), "--out", str(tmp_path)]) == 0
    assert sorted(writes) == ["optimal_gains", "pi_trace"]
    for name, calls in writes.items():
        assert "".join(calls) == (tmp_path / f"{name}.json").read_text()
        whole = [text for text in calls if "," in text.removeprefix(",") and not _float_row(text)]
        assert whole == [], name
    assert any(map(_float_row, writes["optimal_gains"]))  # the gains' rows, each in one write
