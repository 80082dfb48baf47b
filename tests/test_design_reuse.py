"""Per-plant reuse in the assumption checks and the design: agents that share
a plant share its results, which are bitwise those of an agent-by-agent run,
computed once per call."""

import dataclasses

import numpy as np
import pytest

from syncopt import cli, plant, protocol, regulator
from syncopt.errors import ValidationError
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
    cli.run_design(scenario)
    assert (len(solves), len(stabilizes), len(loops)) == (5, 0, 60)
    cli.run_design(dataclasses.replace(scenario, k1_override=None))
    assert (len(solves), len(stabilizes), len(loops)) == (10, 5, 120)
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
