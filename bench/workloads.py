"""The benchmark's workloads: their inputs, the CLI operations of one pass,
and the checks of every output.

Each workload draws its inputs from one of `N_VARIANTS` variants chosen by
the run's seed, so that every input it can receive has reference values
recorded from a known-good commit (`reference.json`, written by
`record_reference.py`). A pass runs its operations in sequence, one client,
each `syncopt.cli.main([...])` call starting after the previous returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scenarios

N_VARIANTS = 4
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances of the output checks. Reference comparisons allow for
# floating-point reassociation (a reordered sum, a precomputed step map),
# nothing more.
REF_RTOL = 1e-8
REF_ATOL_SCALE = 1e-10  # times the largest magnitude in the compared vector
COST_ATOL, COST_RTOL = 1e-4, 1e-3  # |J_quadrature - J_closed_form| (acceptance tolerance)
TAIL_ERROR_MAX = 1e-2
ARE_RESIDUAL_RTOL = 1e-8  # the toolkit's bound on the final Riccati residual
REG_RESIDUAL_RTOL = 1e-8  # ten times the toolkit's regulator bound


@dataclass
class Op:
    key: str  # stable name of the operation within a pass
    verb: str
    argv: list
    start: float = 0.0  # perf_counter() when the call began
    seconds: float = 0.0
    ref_s: float = 0.0  # `seconds` at the reference CPU speed (calibration.py)
    rc: int | None = None
    ok: bool = False
    detail: str = ""


def run_op(cli, op: Op) -> Op:
    """Run one CLI call with its output captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        op.start = time.perf_counter()
        try:
            op.rc = cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
            op.rc = 1
            op.detail = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - op.start
    op.ok = op.rc == 0
    if not op.ok and not op.detail:
        lines = (err.getvalue() or out.getvalue()).strip().splitlines()
        op.detail = lines[-1] if lines else f"exit {op.rc}"
    return op


def fail(op: Op, detail: str):
    if op.ok:
        op.ok, op.detail = False, detail


def close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = float(np.abs(b).max()) if b.size else 0.0
    return bool(np.allclose(a, b, rtol=REF_RTOL, atol=REF_ATOL_SCALE * scale))


def csv_shape_and_last_row(path: Path) -> tuple[tuple[int, int], list]:
    """(data rows, columns) of a trajectory CSV and its last row, streamed."""
    rows = 0
    with open(path, "rb") as f:
        header = f.readline()
        while chunk := f.read(1 << 20):
            rows += chunk.count(b"\n")
        f.seek(max(0, f.tell() - (1 << 20)))
        last = f.read().rstrip().rsplit(b"\n", 1)[-1]
    return (rows, len(header.split(b","))), [float(v) for v in last.split(b",")]


def check_validated(out: Path, op: Op):
    if not json.loads((out / "assumption_report.json").read_text())["passed"]:
        fail(op, "assumption report did not pass")


def check_trajectory(op: Op, seen: dict, reference: dict | None):
    """A trajectory CSV's shape and final row against the reference."""
    if reference is None:
        fail(op, "no reference recorded for this variant")
    elif seen["csv_shape"] != reference["csv_shape"]:
        fail(op, f"trajectory shape {seen['csv_shape']}")
    elif not close(seen["final_row"], reference["final_row"]):
        fail(op, "final trajectory row differs from the reference")


def load_reference(workload: str, variant: int) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(str(variant))


class Workload:
    name = ""
    kernel = ""  # calibration kernel closest to the workload's dominant work
    latency_unit = "pass"  # a user's unit of work: the whole session, or one "operation"

    def __init__(self, seed: int, inputs: Path, reference: bool = True):
        self.variant = seed % N_VARIANTS
        self.files: list[Path] = []
        self.meta: dict = {}
        self.reference = load_reference(self.name, self.variant) if reference else None

    def ops(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def observe(self, out: Path, ops: list[Op]) -> dict:
        """The values of one pass that are compared with the reference."""
        raise NotImplementedError

    def check(self, out: Path, ops: list[Op]):
        """Mark every operation whose output is wrong as failed."""
        raise NotImplementedError


class PaperSession(Workload):
    """The paper's scenario through all five verbs into one output directory."""

    name = "paper_session"
    kernel = "small_rk4"

    def __init__(self, seed: int, inputs: Path, reference: bool = True):
        super().__init__(seed, inputs, reference)
        rng = np.random.default_rng([2011_05663, self.variant])
        w0 = scenarios.PAPER_W0 if self.variant == 0 else (0.5 * rng.standard_normal(2)).tolist()
        path = scenarios.write_json(inputs / "paper_six_agents.json", scenarios.paper_scenario(w0))
        self.files = [path]
        self.meta = {"generator": "paper_six_agents", "variant": self.variant, "w0": w0,
                     "n_followers": 5, "state_dim": 37, "t_end": 20.0, "dt": 1e-3}

    def ops(self, out):
        f, o = str(self.files[0]), ["--out", str(out)]
        return [
            Op("validate", "validate", ["validate", f, *o]),
            Op("design", "design", ["design", f, *o]),
            Op("learn", "learn", ["learn", f, *o]),
            Op("simulate", "simulate", ["simulate", f, *o, "--gains", "optimal"]),
            Op("compare", "compare", ["compare", f, *o]),
        ]

    def observe(self, out, ops):
        gains = json.loads((out / "optimal_gains.json").read_text())
        shape, last = csv_shape_and_last_row(out / "trajectory_optimal.csv")
        return {
            "kic": {name: a["optimal"]["Kic"] for name, a in gains["agents"].items()},
            "csv_shape": list(shape), "final_row": last,
        }

    def check(self, out, ops):
        by = {op.key: op for op in ops}
        if not all(op.ok for op in ops):
            return
        check_validated(out, by["validate"])
        comparison = json.loads((out / "comparison.json").read_text())["agents"]
        for name, row in comparison.items():
            if row["optimal"]["J_closed_form"] > row["initial"]["J_closed_form"] + 1e-9:
                fail(by["compare"], f"{name}: J_optimal > J_initial")
            for label in ("initial", "optimal"):
                r = row[label]
                gap = abs(r["J_quadrature"] - r["J_closed_form"])
                if gap > max(COST_ATOL, COST_RTOL * r["J_closed_form"]):
                    fail(by["compare"], f"{name}/{label}: |J_quad - J_closed| = {gap:.3e}")
                if not r["network_tail_error"] < TAIL_ERROR_MAX:
                    fail(by["compare"], f"{name}/{label}: network tail error {r['network_tail_error']:.3e}")
        seen = self.observe(out, ops)
        for name, kic in (self.reference or {}).get("kic", {}).items():
            if not close(seen["kic"].get(name, []), kic):
                fail(by["learn"], f"{name}: optimal gain differs from the reference")
        check_trajectory(by["simulate"], seen, self.reference)


class WideNetwork(Workload):
    """200 paper agents round-robin on a random DAG: validate, design, simulate."""

    name = "wide_network"
    kernel = "wide_matvec"

    def __init__(self, seed: int, inputs: Path, reference: bool = True):
        super().__init__(seed, inputs, reference)
        scenario, self.meta = scenarios.wide_network(seed=1000 + self.variant)
        self.meta.update(variant=self.variant, state_dim=2 + 2 * 200 * 2 + 3 * 200)
        self.files = [scenarios.write_json(inputs / "wide_network.json", scenario)]

    def ops(self, out):
        f, o = str(self.files[0]), ["--out", str(out)]
        return [
            Op("validate", "validate", ["validate", f, *o]),
            Op("design", "design", ["design", f, *o]),
            Op("simulate", "simulate", ["simulate", f, *o, "--gains", "initial"]),
        ]

    def observe(self, out, ops):
        shape, last = csv_shape_and_last_row(out / "trajectory_initial.csv")
        return {"csv_shape": list(shape), "final_row": last}

    def check(self, out, ops):
        by = {op.key: op for op in ops}
        if not all(op.ok for op in ops):
            return
        check_validated(out, by["validate"])
        design = json.loads((out / "design_report.json").read_text())
        if len(design["agents"]) != 200:
            fail(by["design"], f"design report covers {len(design['agents'])} agents")
        check_trajectory(by["simulate"], self.observe(out, ops), self.reference)


def learn_batch_scenario(variant: int, index: int) -> tuple[dict, dict]:
    return scenarios.random_plants_network(seed=2000 + variant, index=index)


class LearnBatch(Workload):
    """120 random six-follower networks, one `learn` verb each, less the ones
    that failed at the reference commit.

    Those run as the untimed probe `probe.learn_batch_known.fails` instead
    (probes.py): a timed operation must not fail, and a later fix that makes
    them pass must not add their work to the timed batch.
    """

    name = "learn_batch"
    kernel = "pooled_lyapunov"
    latency_unit = "operation"
    size = 120

    def __init__(self, seed: int, inputs: Path, reference: bool = True):
        super().__init__(seed, inputs, reference)
        known = (self.reference or {}).get("failures", {})
        self.keys, self.scenarios = [], []
        rejected = []
        for i in range(self.size):
            scenario, meta = learn_batch_scenario(self.variant, i)
            rejected.extend(dict(r, scenario=i) for r in meta["rejected"])
            key = f"s{i:03d}"
            if key in known:
                continue
            self.keys.append(key)
            self.scenarios.append(scenario)
            self.files.append(scenarios.write_json(inputs / f"{key}.json", scenario))
        orders = [len(a["A"]) for s in self.scenarios for a in s["agents"]]
        self.meta = {
            "generator": meta["generator"], "seed": meta["seed"], "variant": self.variant,
            "scenarios": self.size, "timed_scenarios": len(self.keys),
            "left_to_probe": sorted(known), "n_followers": meta["n_followers"],
            "order_range": meta["order_range"], "m_choices": meta["m_choices"],
            "orders_drawn": [min(orders), max(orders)], "rejected_draws": len(rejected),
            "rejected_by_reason": {
                reason: sum(r["reason"] == reason for r in rejected)
                for reason in sorted({r["reason"] for r in rejected})
            },
        }

    def ops(self, out):
        return [Op(key, "learn", ["learn", str(f), "--out", str(out / key)])
                for key, f in zip(self.keys, self.files)]

    def observe(self, out, ops):
        return {"failures": {op.key: op.rc for op in ops if op.rc != 0}}

    def check(self, out, ops):
        for op, scenario in zip(ops, self.scenarios):
            if op.ok:
                gains = json.loads((out / op.key / "optimal_gains.json").read_text())
                problem = verify_learned(scenario, gains)
                if problem:
                    fail(op, problem)


def verify_learned(scenario: dict, gains: dict) -> str | None:
    """Check a `learn` result with numpy alone: regulator residual, and for
    the augmented plant rebuilt from the reported design, convergence, the
    Riccati residual of the reported P, the gain it implies, and closed-loop
    stability. Returns a description of the first problem found."""
    S = np.asarray(scenario["leader"]["S"], dtype=float)
    q = S.shape[0]
    s_shifted = S - (gains["lambda_M"] + gains["r"]) * np.eye(q)
    for i, spec in enumerate(scenario["agents"]):
        name = spec["name"]
        A, B, C, D, E, F = (np.asarray(spec[k], dtype=float) for k in "ABCDEF")
        n, m = B.shape
        entry = gains["agents"][name]
        Pi, Gamma = np.asarray(entry["Pi"]), np.asarray(entry["Gamma"])
        reg = np.hypot(np.linalg.norm(Pi @ S - A @ Pi - B @ Gamma - E),
                       np.linalg.norm(C @ Pi + D @ Gamma - F))
        if reg >= REG_RESIDUAL_RTOL * (1 + np.linalg.norm(E) + np.linalg.norm(F)):
            return f"{name}: regulator residual {reg:.3e}"
        opt = entry["optimal"]
        if opt["converged"] is not True:
            return f"{name}: not converged"
        Phi = gains["c"][i] * E + gains["alphas"][i] * gains["h"][i] * Pi
        Aa = np.block([[s_shifted, np.zeros((q, n))], [-Phi, A]])
        Ba = np.vstack([np.zeros((q, m)), B])
        Ca = np.hstack([gains["c"][i] * F, C])
        P, K = np.asarray(opt["P"]), np.asarray(opt["Kic"])
        cross = D.T @ Ca + Ba.T @ P
        res = np.linalg.norm(Aa.T @ P + P @ Aa + Ca.T @ Ca - cross.T @ np.linalg.solve(D.T @ D, cross))
        if res >= ARE_RESIDUAL_RTOL * (1 + np.linalg.norm(Ca.T @ Ca)):
            return f"{name}: Riccati residual {res:.3e}"
        k_implied = np.linalg.solve(D.T @ D, cross)
        if np.linalg.norm(K - k_implied) > REF_RTOL * (1 + np.linalg.norm(k_implied)):
            return f"{name}: reported gain is not the greedy gain of P"
        if np.linalg.eigvals(Aa - Ba @ K).real.max() >= 0:
            return f"{name}: optimal closed loop is not Hurwitz"
    return None


WORKLOADS = {w.name: w for w in (PaperSession, WideNetwork, LearnBatch)}
