"""Known-defect probes: fixed inputs on which the toolkit fails today.

Each probe is a well-posed problem (the generator verifies the standing
assumptions with its own numpy checks, and an LQR gain exists) that the
toolkit rejects. A probe reports how many of its inputs still fail, so a
fix shows as a drop to 0. Probes are untimed and are not operations of any
workload.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import scenarios
from workloads import REFERENCE_PATH, Op, learn_batch_scenario, run_op


def _single_follower(agent: dict) -> dict:
    agent = dict(agent, name="h1", x0=[0.0] * len(agent["A"]), xi0=[0.0, 0.0])
    return scenarios.make_scenario(scenarios.PAPER_LEADER_S, scenarios.PAPER_W0, 1, [[0, 1]],
                                   [agent], 2.0, 1e-3)


def _plant(order: int, abscissa) -> dict:
    agent, _ = scenarios.random_plant(
        np.random.default_rng([7, order]), order, 1,
        np.linalg.eigvals(np.asarray(scenarios.PAPER_LEADER_S)), 2, abscissa=abscissa,
    )
    return agent


def chain_depth() -> list:
    """A 70-deep chain of the paper agents: the coupling scalar c_i grows as
    2^depth and `learn` fails near the end of the chain."""
    n = 70
    agents = [dict(scenarios.PAPER_AGENTS[i % 5], name=f"c{i + 1:02d}") for i in range(n)]
    edges = [[i, i + 1] for i in range(n)]
    k1 = {a["name"]: a["K1"] for a in agents}
    scenario = scenarios.make_scenario(scenarios.PAPER_LEADER_S, scenarios.PAPER_W0, n, edges,
                                       agents, 2.0, 1e-3, k1)
    return [("learn", scenario)]


def high_order_observability() -> list:
    """Observable (by PBH) plants of order 11 and 12: the Kalman-matrix rank
    test reports them unobservable and `validate` exits 2."""
    return [("validate", _single_follower(_plant(n, (-0.5, 0.5)))) for n in (11, 12)]


def large_stabilize_gain() -> list:
    """Unstable single-input plants of order 6-8 without a K1: the synthesized
    gain reaches 1e5-1e8 and the absolute PSD / monotonicity tolerances of
    `learn` trip."""
    return [("learn", _single_follower(_plant(n, (0.3, 0.3)))) for n in (6, 7, 8)]


def learn_batch_known() -> list:
    """The `learn_batch` networks of all four variants that failed at the
    reference commit (left out of the timed batch): `learn` exits 3 on the
    absolute PSD / monotonicity tolerances, or 2 where the Kalman-matrix test
    rejects a PBH-observable plant of order 7-8."""
    reference = json.loads(REFERENCE_PATH.read_text())["learn_batch"]
    return [("learn", learn_batch_scenario(int(variant), int(key[1:]))[0])
            for variant, entry in sorted(reference.items()) for key in sorted(entry["failures"])]


PROBES = {
    "probe.chain70_learn.fails": chain_depth,
    "probe.order11_12_validate.fails": high_order_observability,
    "probe.stabilize_large_gain.fails": large_stabilize_gain,
    "probe.learn_batch_known.fails": learn_batch_known,
}


def run_probes(cli, work: Path) -> dict:
    """Metric name -> number of the probe's inputs the toolkit still fails."""
    counts = {}
    for metric, build in PROBES.items():
        fails = 0
        for k, (verb, scenario) in enumerate(build()):
            path = scenarios.write_json(work / "probes" / f"{metric}-{k}.json", scenario)
            op = run_op(cli, Op(f"{metric}-{k}", verb,
                                [verb, str(path), "--out", str(work / "probes" / "out")]))
            fails += not op.ok
        counts[metric] = fails
    return counts
