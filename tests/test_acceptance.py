"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or in captured
output) before asserting.
"""

import time

import numpy as np
import pytest

import paper_tables
from helpers import are_residual, augmented_cost, run_pi, simulate_network
from oracles import hamiltonian_are_solve, random_stabilizable_plant
from syncopt import cli
from syncopt.plant import LeaderModel
from syncopt.regulator import solve_regulator

MASTER_SEED = 20260823


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_regulator_reproduction(paper_scenario):
    t0 = time.perf_counter()
    worst = 0.0
    for name, ag in paper_scenario.agents:
        sol = solve_regulator(ag, paper_scenario.leader)
        worst = max(
            worst,
            np.abs(sol.Pi - paper_tables.PI[name]).max(),
            np.abs(sol.Gamma - paper_tables.GAMMA[name]).max(),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    report(
        "regulator-reproduction", ok,
        f"max entry error {worst:.2e}, runtime {elapsed * 1e3:.1f} ms",
    )


def test_initial_gain_consistency(paper_bundle):
    worst = 0.0
    for ad in paper_bundle.per_agent:
        worst = max(worst, np.abs(ad.initial.K2 - paper_tables.K2[ad.name]).max())
    agent1_k2 = paper_bundle.per_agent[0].initial.K2[0, 0]
    ok = worst < 1e-3 and abs(agent1_k2 + 3.4) < 1e-3
    report(
        "initial-gain-consistency", ok,
        f"max K2 entry error {worst:.2e}, agent1 K2(1,1) = {agent1_k2:.4f}",
    )


def test_optimal_gain_reproduction(paper_bundle, paper_traces):
    ok = True
    details = []
    degraded = False
    for ad in paper_bundle.per_agent:
        trace = paper_traces[ad.name]
        ok &= trace.converged and len(trace.iterates) <= 20
        dev = np.abs(trace.K - paper_tables.K_OPT[ad.name]).max()
        if dev > 1e-2:
            # degrade path: certify optimality directly instead of matching
            # the printed table
            degraded = True
            details.append(f"{ad.name} printed-table deviation {dev:.2f}")
            ok &= trace.are_residual_final < 1e-8
            ok &= all(it.abscissa < 0 for it in trace.iterates)
            for prev, cur in zip(trace.iterates, trace.iterates[1:]):
                ok &= np.linalg.eigvalsh(prev.P - cur.P).min() >= -1e-9
            # invariance to the choice of stabilizing K0
            k0_alt = 0.5 * (ad.initial.Kic + trace.iterates[0].K)
            alt = run_pi(ad.plant, k0_alt)
            ok &= np.linalg.norm(trace.K - alt.K, "fro") < 1e-8
    label = "degraded path (ARE residual, Theorem-2, K0-invariance)" if degraded else "table match"
    report("optimal-gain-reproduction", ok, f"{label}; " + "; ".join(details))


def test_theorem2_property_suite(paper_bundle, paper_traces):
    ok = True
    worst_mono = 0.0
    worst_res = 0.0
    traces = [(paper_traces[ad.name], ad.plant) for ad in paper_bundle.per_agent]
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(50):
        plant, k0 = random_stabilizable_plant(rng, min_order=2, max_order=5)
        traces.append((run_pi(plant, k0), plant))
    for trace, plant in traces:
        ok &= all(it.abscissa < 0 for it in trace.iterates)
        for prev, cur in zip(trace.iterates, trace.iterates[1:]):
            worst_mono = min(worst_mono, np.linalg.eigvalsh(prev.P - cur.P).min())
        res = are_residual(plant, trace.P)
        worst_res = max(worst_res, res)
        ok &= res < 1e-8
    ok &= worst_mono >= -1e-9
    report(
        "theorem2-property-suite", ok,
        f"55 plants; worst monotonicity eig {worst_mono:.2e}, "
        f"worst ARE residual {worst_res:.2e}",
    )


def test_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        plant, k0 = random_stabilizable_plant(rng, min_order=2, max_order=4)
        trace = run_pi(plant, k0)
        p_ref = hamiltonian_are_solve(plant.A, plant.B, plant.C, plant.D)
        worst = max(worst, np.linalg.norm(trace.P - p_ref, "fro"))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(
        "oracle-equivalence", ok,
        f"worst Frobenius gap {worst:.2e}, runtime {elapsed:.2f} s",
    )


def test_synchronization(paper_scenario, paper_bundle, paper_traces):
    initial = {ad.name: ad.initial for ad in paper_bundle.per_agent}
    optimal = cli.optimal_gain_sets(paper_bundle, paper_traces)
    ok = True
    worst_tail = 0.0
    worst_time = 0.0
    for seed in range(5):
        scenario = paper_scenario
        scenario = _with_w0(scenario, cli.seeded_w0(scenario.leader.q, seed))
        for gains in (initial, optimal):
            t0 = time.perf_counter()
            traj = simulate_network(scenario, gains, t_end=20.0, dt=1e-3)
            worst_time = max(worst_time, time.perf_counter() - t0)
            late = traj.times >= 15.0
            for stream in traj.followers.values():
                worst_tail = max(worst_tail, np.abs(stream.e[late]).max())
    ok &= worst_tail < 1e-2 and worst_time < 30.0
    report(
        "synchronization", ok,
        f"10 runs; worst |e| on [15, 20] s = {worst_tail:.2e}, "
        f"slowest run {worst_time:.2f} s",
    )


def _with_w0(scenario, w0):
    import dataclasses

    return dataclasses.replace(
        scenario, leader=LeaderModel(S=scenario.leader.S, w0=w0)
    )


def test_optimality_ordering(paper_scenario, paper_bundle, paper_traces):
    ok = True
    details = []
    for ad in paper_bundle.per_agent:
        x0 = paper_scenario.x0[ad.name]
        xi0 = paper_scenario.xi0[ad.name]
        zeta0 = paper_scenario.zeta0
        X0 = np.concatenate([zeta0, x0 - ad.reg.Pi @ xi0])
        costs = {}
        for label, gains in (("initial", ad.initial.Kic), ("optimal", paper_traces[ad.name].K)):
            rep = augmented_cost(ad.plant, gains, X0, t_end=20.0, dt=1e-3)
            costs[label] = rep
            ok &= abs(rep.j_quadrature - rep.j_closed_form) <= max(
                1e-4, 1e-3 * rep.j_closed_form
            )
        ok &= costs["optimal"].j_closed_form <= costs["initial"].j_closed_form + 1e-9
        details.append(
            f"{ad.name} J_init={costs['initial'].j_closed_form:.4f} "
            f"J_opt={costs['optimal'].j_closed_form:.4f}"
        )
    report("optimality-ordering", ok, "; ".join(details))


def test_compensator_convergence(paper_scenario, paper_bundle):
    gains = {ad.name: ad.initial for ad in paper_bundle.per_agent}
    assert np.array_equal(paper_bundle.design.alphas, [-2, -2, -2, -1, -2])
    traj = simulate_network(paper_scenario, gains, t_end=20.0, dt=1e-3)
    worst = 0.0
    for stream in traj.followers.values():
        worst = max(worst, np.linalg.norm(stream.xi[-1] - traj.leader_states[-1]))
    ok = worst < 1e-3
    report("compensator-convergence", ok, f"worst |xi(20) - w(20)| = {worst:.2e}")
