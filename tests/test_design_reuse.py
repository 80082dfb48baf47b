"""Per-plant reuse in the assumption checks and the design: agents that share
a plant share its results, which are bitwise those of an agent-by-agent run,
computed once per call."""

import dataclasses
import json

import numpy as np
import pytest

from networks import chain_payload, with_extra_state
from syncopt import cli, plant, protocol, regulator
from syncopt.errors import NumericalError, ValidationError
from syncopt.plant import AgentDynamics, LeaderModel, check_assumptions
from syncopt.topology import build_topology

GAIN_FIELDS = ("K1", "K2", "K3", "Kic")


def counted(monkeypatch, module, name) -> list:
    """Patch module.name with a wrapper that records each call's arguments."""
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def copy_of(ag: AgentDynamics) -> AgentDynamics:
    """An equal plant in arrays of its own."""
    return AgentDynamics(**{name: getattr(ag, name).copy() for name in "ABCDEF"})


def two_of_agent1(paper_scenario, k1: dict):
    """Followers p and q with the paper's agent1 plant on a chain, K1 by name."""
    _, ag = paper_scenario.agents[0]
    return dataclasses.replace(
        paper_scenario, agents=[("p", ag), ("q", copy_of(ag))],
        topology=build_topology(2, [(0, 1), (1, 2)]), k1_override=k1,
    )


@pytest.mark.parametrize("override", [True, False], ids=["k1 override", "stabilize"])
def test_shared_plants_match_agent_by_agent_design(chain_network, override):
    scenario = chain_network[0]
    if not override:
        scenario = dataclasses.replace(scenario, k1_override=None)
    for ad in cli.run_design(scenario).per_agent:
        reg = regulator.solve_regulator(ad.agent, scenario.leader)
        k1 = scenario.k1_override[ad.name] if override else None
        gains = protocol.initial_gains(ad.agent, reg, K1=k1)
        assert same_bytes(ad.reg.Pi, reg.Pi) and same_bytes(ad.reg.Gamma, reg.Gamma)
        for name in GAIN_FIELDS:
            assert same_bytes(getattr(ad.initial, name), getattr(gains, name)), (ad.name, name)


def test_chain_does_per_plant_work_once_per_call(chain_network, monkeypatch):
    # 60 followers, 5 distinct plants; nothing is kept from one call to the next
    scenario = chain_network[0]
    solves = counted(monkeypatch, regulator, "solve_regulator")
    stabilizes = counted(monkeypatch, protocol, "stabilize")
    checks = counted(monkeypatch, plant, "_check_plant")
    loops = counted(monkeypatch, protocol, "check_augmented_loop")
    # the loops of all 60 followers, one shape, are checked as one stack
    cli.run_design(scenario)
    assert (len(solves), len(stabilizes), len(loops), len(loops[0][1])) == (5, 0, 1, 60)
    cli.run_design(dataclasses.replace(scenario, k1_override=None))
    assert (len(solves), len(stabilizes), len(loops), len(loops[1][1])) == (10, 5, 2, 60)
    for _ in range(2):
        check_assumptions(scenario.agents, scenario.leader, scenario.topology)
    assert len(checks) == 10


def test_one_plant_keeps_each_agents_k1_override(paper_scenario, monkeypatch):
    k1 = {"p": np.array([[4.0, 0.0, 3.0], [0.0, 0.0, 0.0]]),
          "q": np.array([[2.0, 0.0, 3.0], [0.0, 0.0, 0.0]])}
    solves = counted(monkeypatch, regulator, "solve_regulator")
    p, q = cli.run_design(two_of_agent1(paper_scenario, k1)).per_agent
    assert len(solves) == 2
    assert np.array_equal(p.initial.K1, k1["p"]) and np.array_equal(q.initial.K1, k1["q"])
    assert not np.array_equal(p.initial.K2, q.initial.K2)


def test_error_names_first_agent_with_the_failing_plant(paper_scenario):
    bad = -10 * np.ones((2, 3))
    scenario = two_of_agent1(paper_scenario, {"p": bad, "q": bad})
    with pytest.raises(ValidationError, match="^agent p: provided K1 does not make"):
        cli.run_design(scenario)


def test_repeated_failing_plants_report_per_agent():
    good = dict(A=[[-1]], B=[[1]], C=[[1]], D=[[1]], E=[[1]], F=[[1]])
    unobservable = dict(A=[[-1, 0], [0, -2]], B=[[1], [1]], C=[[1, 0]], D=[[1]],
                        E=[[0], [0]], F=[[1]])
    failing_all = dict(A=[[1, 0], [0, -2]], B=[[0], [1]], C=[[0, 1]], D=[[0]],
                       E=[[0], [0]], F=[[1]])
    plants = {"a": unobservable, "b": good, "c": failing_all, "d": unobservable,
              "e": failing_all, "f": good}
    agents = [(name, AgentDynamics(**spec)) for name, spec in plants.items()]
    topo = build_topology(6, [(i, i + 1) for i in range(6)])
    report = check_assumptions(agents, LeaderModel(S=[[1]], w0=[1]), topo)
    # the diagnostics of the agent-by-agent checks, in the same order
    assert report.diagnostics == (
        "a: (A, C) not observable",
        "c: (A, C) not observable",
        "c: D^T D numerically singular",
        "c: PBH fails at eigenvalue 1",
        "c: rank condition fails at leader eigenvalue 1",
        "d: (A, C) not observable",
        "e: (A, C) not observable",
        "e: D^T D numerically singular",
        "e: PBH fails at eigenvalue 1",
        "e: rank condition fails at leader eigenvalue 1",
    )
    flags = {name: dataclasses.astuple(c) for name, c in report.per_agent.items()}
    assert flags == {
        "a": (False, True, True, True), "b": (True, True, True, True),
        "c": (False, False, False, False), "d": (False, True, True, True),
        "e": (False, False, False, False), "f": (True, True, True, True),
    }


def interleaved(tmp_path, payload=None):
    """12 paper agents round-robin on a chain, a2, a3 and a7 with one more
    state: the shapes (3, 2, 2) and (4, 2, 2) interleaved, and plants
    repeated in each (a7 has a2's plant, a5 and a10 a0's)."""
    payload = payload or with_extra_state(chain_payload(12), {"a2", "a3", "a7"})
    path = tmp_path / "interleaved.json"
    path.write_text(json.dumps(payload))
    return cli.load_scenario(path)


def test_stacked_design_is_the_agent_by_agent_design(tmp_path, monkeypatch):
    scenario = interleaved(tmp_path)
    assert scenario.agents[2][1] is scenario.agents[7][1]  # one AgentDynamics per plant
    assert scenario.agents[0][1] is scenario.agents[5][1] is scenario.agents[10][1]
    loops = counted(monkeypatch, protocol, "check_augmented_loop")
    bundle = cli.run_design(scenario)
    assert [len(kic) for _, kic in loops] == [9, 3]  # one stacked check per shape
    design, transform, q = bundle.design, bundle.transform, scenario.leader.q
    for i, ((name, ag), ad) in enumerate(zip(scenario.agents, bundle.per_agent)):
        reg = regulator.solve_regulator(ag, scenario.leader)
        gains = protocol.initial_gains(ag, reg, K1=scenario.k1_override[name])
        # one follower's plant, assembled as np.block writes it
        Phi = transform.c[i] * ag.E + design.alphas[i] * transform.h[i] * reg.Pi
        Psi = -transform.c[i] * ag.F
        want = {"A": np.block([[design.s_shifted, np.zeros((q, ag.n))], [-Phi, ag.A]]),
                "B": np.vstack([np.zeros((q, ag.m)), ag.B]), "C": np.hstack([-Psi, ag.C]),
                "D": ag.D, "Phi": Phi, "Psi": Psi}
        assert ad.name == name and ad.agent is ag
        for field, M in want.items():
            assert same_bytes(getattr(ad.plant, field), M), (name, field)
        for field in GAIN_FIELDS:
            assert same_bytes(getattr(ad.initial, field), getattr(gains, field)), (name, field)
        assert same_bytes(ad.reg.Pi, reg.Pi) and same_bytes(ad.reg.Gamma, reg.Gamma)


@pytest.mark.parametrize("at, named", [([6], "a6"), ([6, 3], "a3")])
def test_non_finite_plant_in_a_stack_names_the_first_agent(tmp_path, monkeypatch, at, named):
    # c_i = inf makes Phi_i non-finite: a6 is in the middle of the (3, 2, 2)
    # stack, assembled first; a3, in the (4, 2, 2) stack, comes before it
    scenario = interleaved(tmp_path)
    build_transform = protocol.build_transform

    def with_inf(*args):
        transform = build_transform(*args)
        c = transform.c.copy()
        c[at] = np.inf
        return dataclasses.replace(transform, c=c)

    monkeypatch.setattr(protocol, "build_transform", with_inf)
    with pytest.raises(NumericalError, match=f"^agent {named}: augmented plant has non-finite entries$"):
        cli.run_design(scenario)


@pytest.mark.parametrize("spoil, text", [
    (lambda agents: agents[1]["A"][0].__setitem__(0, float("nan")), "agent a1: matrix A has non-finite entries"),
    (lambda agents: agents[3].__setitem__("B", [row[:1] for row in agents[3]["B"]]),
     "agent a3: matrix D has shape (2, 2), expected (2, 1)"),
])
def test_load_error_in_a_shared_plant_names_its_first_agent(tmp_path, spoil, text):
    # a1 and a6 share their matrices' lists, a3's B is a3's own: the plant
    # of a1 and a6 is refused for a1, and a3's plant for a3, before a8 (a3's
    # plant as it was) and a4 (one of its own, with a NaN)
    payload = chain_payload(12)
    payload["agents"][4]["E"] = [[float("nan")] * 2] * 3
    spoil(payload["agents"])
    with pytest.raises(ValidationError) as exc:
        interleaved(tmp_path, payload)
    assert str(exc.value) == text
