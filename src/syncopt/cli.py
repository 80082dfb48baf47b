"""Command-line pipeline: scenario ingestion, design, learning, simulation,
and comparison, with JSON/CSV serialization of every stage.

Verbs: validate, design, learn, simulate, compare. Exit codes are a stable
contract: 0 success, 2 validation failure, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import policy_iteration, protocol, regulator, simulator
from .errors import NumericalError, ToolkitError, ValidationError
from .plant import AgentDynamics, LeaderModel, check_assumptions
from .topology import Topology, build_topology

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass
class Scenario:
    leader: LeaderModel
    agents: list  # (name, AgentDynamics), scenario order
    topology: Topology
    r: float
    epsilon: float
    max_iter: int
    t_end: float
    dt: float
    x0: dict  # name -> initial follower state
    xi0: dict  # name -> initial compensator state
    zeta0: np.ndarray  # common local-generator initial state
    seed: int | None = None
    k1_override: dict | None = None  # name -> K1 matrix


def bundled_scenario_path(name: str = "paper_six_agents") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(resources.files("syncopt").joinpath(f"scenarios/{name}.json"))


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValidationError(f"scenario missing field `{where}.{key}`" if where else f"scenario missing field `{key}`")
    return mapping[key]


def _finite_array(value, shape: tuple, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where} is not numeric: {exc}") from exc
    if arr.shape != shape:
        raise ValidationError(f"{where} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where} contains non-finite numbers")
    return arr


def load_scenario(path) -> Scenario:
    """Parse and dimension-validate a scenario file."""
    path = Path(path)
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc

    leader_raw = _require(raw, "leader", "")
    try:
        leader = LeaderModel(S=_require(leader_raw, "S", "leader"), w0=_require(leader_raw, "w0", "leader"))
    except ValueError as exc:
        raise ValidationError(f"leader: {exc}") from exc

    topo_raw = _require(raw, "topology", "")
    topology = build_topology(
        _require(topo_raw, "n_followers", "topology"), _require(topo_raw, "edges", "topology")
    )

    design = _require(raw, "design", "")
    r = float(_require(design, "r", "design"))
    epsilon = float(design.get("epsilon", policy_iteration.DEFAULT_EPSILON))
    max_iter = int(design.get("max_iter", policy_iteration.DEFAULT_MAX_ITER))
    if r <= 0 or epsilon <= 0:
        raise ValidationError("design.r and design.epsilon must be positive")

    sim = _require(raw, "sim", "")
    t_end = float(_require(sim, "t_end", "sim"))
    dt = float(_require(sim, "dt", "sim"))
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"sim.dt must be a positive number, got {dt}")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValidationError(f"sim.t_end must be a finite number >= sim.dt, got {t_end}")

    agents = []
    names = set()
    for spec in _require(raw, "agents", ""):
        name = _require(spec, "name", "agents[]")
        if name in names:
            raise ValidationError(f"duplicate agent name `{name}`")
        names.add(name)
        try:
            ag = AgentDynamics(
                A=_require(spec, "A", name), B=_require(spec, "B", name),
                C=_require(spec, "C", name), D=_require(spec, "D", name),
                E=_require(spec, "E", name), F=_require(spec, "F", name),
            )
        except ValueError as exc:
            raise ValidationError(f"agent {name}: {exc}") from exc
        if ag.q != leader.q:
            raise ValidationError(
                f"agent {name}: E/F have {ag.q} columns, leader order is {leader.q}"
            )
        agents.append((name, ag))
    if len(agents) != topology.n_followers:
        raise ValidationError(
            f"{len(agents)} agents declared for {topology.n_followers} followers"
        )

    init = _require(raw, "init", "")
    x0_raw = _require(init, "x0", "init")
    xi0_raw = _require(init, "xi0", "init")
    x0, xi0 = {}, {}
    for name, ag in agents:
        x0[name] = _finite_array(_require(x0_raw, name, "init.x0"), (ag.n,), f"init.x0[{name}]")
        xi0[name] = _finite_array(
            _require(xi0_raw, name, "init.xi0"), (leader.q,), f"init.xi0[{name}]"
        )
    zeta0 = _finite_array(init.get("zeta0", np.zeros(leader.q)), (leader.q,), "init.zeta0")

    k1_override = None
    if raw.get("k1_override"):
        k1_override = {}
        dims = {name: (ag.m, ag.n) for name, ag in agents}
        for name, mat in raw["k1_override"].items():
            if name not in names:
                raise ValidationError(f"k1_override references unknown agent `{name}`")
            k1_override[name] = _finite_array(mat, dims[name], f"k1_override[{name}]")

    for block in (leader.S, leader.w0):
        if not np.all(np.isfinite(block)):
            raise ValidationError("scenario contains non-finite numbers")

    return Scenario(
        leader=leader, agents=agents, topology=topology, r=r, epsilon=epsilon,
        max_iter=max_iter, t_end=t_end, dt=dt, x0=x0, xi0=xi0, zeta0=zeta0,
        seed=init.get("seed"), k1_override=k1_override,
    )


def seeded_w0(q: int, seed: int) -> np.ndarray:
    """Deterministic nonzero leader initial state 'around the origin'."""
    rng = np.random.default_rng(seed)
    w0 = 0.5 * rng.standard_normal(q)
    if np.linalg.norm(w0) < 1e-3:
        w0 = w0 + 0.1
    return w0


# ---------------------------------------------------------------------------
# design pipeline shared by the commands

@dataclass
class AgentDesign:
    name: str
    agent: AgentDynamics
    reg: regulator.RegulatorSolution
    plant: protocol.AugmentedPlant
    initial: protocol.GainSet


@dataclass
class DesignBundle:
    design: protocol.CompensatorDesign
    transform: protocol.TransformU
    per_agent: list  # AgentDesign, scenario order


def run_design(scenario: Scenario) -> DesignBundle:
    design = protocol.design_compensator(scenario.leader, scenario.topology, scenario.r)
    transform = protocol.build_transform(design, scenario.topology, scenario.leader)
    per_agent = []
    for idx, (name, ag) in enumerate(scenario.agents, start=1):
        try:
            reg = regulator.solve_regulator(ag, scenario.leader)
            plant = protocol.build_augmented_plant(ag, reg, design, transform, idx)
            k1 = scenario.k1_override.get(name) if scenario.k1_override else None
            gains = protocol.initial_gains(ag, reg, K1=k1, plant=plant)
        except ToolkitError as exc:
            raise type(exc)(f"agent {name}: {exc}") from exc
        per_agent.append(AgentDesign(name=name, agent=ag, reg=reg, plant=plant, initial=gains))
    return DesignBundle(design=design, transform=transform, per_agent=per_agent)


def run_learn(scenario: Scenario, bundle: DesignBundle) -> dict:
    """Policy iteration per agent; returns name -> PiTrace."""
    def one(ad: AgentDesign):
        try:
            return ad.name, policy_iteration.run_pi(
                ad.plant, ad.initial.Kic, epsilon=scenario.epsilon, max_iter=scenario.max_iter
            )
        except ToolkitError as exc:
            raise type(exc)(f"agent {ad.name} (learn): {exc}") from exc

    return dict(map(one, bundle.per_agent))


def optimal_gain_sets(bundle: DesignBundle, traces: dict) -> dict:
    """Network gain sets from converged traces: split Kic, rebuild K2."""
    out = {}
    for ad in bundle.per_agent:
        kic = traces[ad.name].K
        q = ad.agent.q
        k3, k1 = kic[:, :q], kic[:, q:]
        k2 = -k1 @ ad.reg.Pi - ad.reg.Gamma
        out[ad.name] = protocol.GainSet(K1=k1, K2=k2, K3=k3, Kic=kic)
    return out


# ---------------------------------------------------------------------------
# serialization

def _mat(x) -> list:
    return np.asarray(x).tolist()


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=_json_scalar)


def _json_scalar(obj):
    # numpy scalars (np.bool_, np.float64, ...) slip into reports
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def gains_payload(bundle: DesignBundle, traces: dict | None, scenario: Scenario) -> dict:
    agents = {}
    for ad in bundle.per_agent:
        entry = {
            "Pi": _mat(ad.reg.Pi),
            "Gamma": _mat(ad.reg.Gamma),
            "regulator_residual": ad.reg.residual,
            "initial": {
                "K1": _mat(ad.initial.K1),
                "K2": _mat(ad.initial.K2),
                "K3": _mat(ad.initial.K3),
                "Kic": _mat(ad.initial.Kic),
            },
        }
        if traces is not None:
            tr = traces[ad.name]
            q = ad.agent.q
            k1 = tr.K[:, q:]
            entry["optimal"] = {
                "Kic": _mat(tr.K),
                "K1": _mat(k1),
                "K2": _mat(-k1 @ ad.reg.Pi - ad.reg.Gamma),
                "K3": _mat(tr.K[:, :q]),
                "P": _mat(tr.P),
                "iterations": len(tr.iterates),
                "converged": tr.converged,
                "are_residual": tr.are_residual_final,
            }
        agents[ad.name] = entry
    return {
        "r": bundle.design.r,
        "lambda_M": bundle.design.lambda_M,
        "alphas": _mat(bundle.design.alphas),
        "U": _mat(bundle.transform.U),
        "c": _mat(bundle.transform.c),
        "h": _mat(bundle.transform.h),
        "transform_residual": bundle.transform.residual,
        "seed": scenario.seed,
        "agents": agents,
    }


def load_gain_sets(path) -> dict:
    """Reload network gain sets written by `learn`."""
    with open(path) as f:
        payload = json.load(f)
    out = {}
    for name, entry in payload["agents"].items():
        if "optimal" not in entry:
            raise ValidationError(f"gains file {path} has no optimal gains for {name}")
        opt = entry["optimal"]
        out[name] = protocol.GainSet(
            K1=np.asarray(opt["K1"]), K2=np.asarray(opt["K2"]),
            K3=np.asarray(opt["K3"]), Kic=np.asarray(opt["Kic"]),
        )
    return out


def write_trajectory_csv(path: Path, scenario: Scenario, traj: simulator.Trajectory):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["t"] + [f"w_{k + 1}" for k in range(scenario.leader.q)]
    cols = [traj.times] + [traj.leader_states[:, k] for k in range(scenario.leader.q)]
    for name, ag in scenario.agents:
        stream = traj.followers[name]
        for k in range(ag.p):
            header.append(f"{name}_e_{k + 1}")
            cols.append(stream.e[:, k])
        for k in range(ag.n):
            header.append(f"{name}_x_{k + 1}")
            cols.append(stream.x[:, k])
    data = np.column_stack(cols)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)  # quotes any agent name that needs it
        np.savetxt(f, data, fmt="%.17g", delimiter=",", newline="\r\n")


def write_error_svg(path: Path, scenario: Scenario, traj: simulator.Trajectory):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ValidationError(
            "--svg needs matplotlib; install the `plot` extra (pip install syncopt[plot])"
        ) from exc
    fig, ax = plt.subplots(figsize=(8, 4.5))
    for name, _ in scenario.agents:
        mag = np.linalg.norm(traj.followers[name].e, axis=1)
        ax.plot(traj.times, mag, label=name)
    ax.set_xlabel("time [s]")
    ax.set_ylabel("|tracking error|")
    ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = check_assumptions(scenario.agents, scenario.leader, scenario.topology)
    payload = {
        "passed": report.passed,
        "leader_unstable_modes": report.leader_unstable_modes,
        "topology_ok": report.topology_ok,
        "per_agent": {
            name: {
                "observable": c.observable,
                "feedthrough_invertible": c.feedthrough_invertible,
                "stabilizable": c.stabilizable,
                "rank_condition": c.rank_condition,
            }
            for name, c in report.per_agent.items()
        },
        "diagnostics": list(report.diagnostics),
    }
    _write_json(Path(args.out) / "assumption_report.json", payload)
    print(f"assumptions {'PASS' if report.passed else 'FAIL'}")
    for line in report.diagnostics:
        print(f"  - {line}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_design(args) -> int:
    scenario = _load_checked(args)
    bundle = run_design(scenario)
    _write_json(Path(args.out) / "design_report.json", gains_payload(bundle, None, scenario))
    for ad in bundle.per_agent:
        print(f"{ad.name}: regulator residual {ad.reg.residual:.3e}")
    return EXIT_OK


def cmd_learn(args) -> int:
    scenario = _load_checked(args)
    bundle = run_design(scenario)
    traces = run_learn(scenario, bundle)
    out = Path(args.out)
    _write_json(out / "optimal_gains.json", gains_payload(bundle, traces, scenario))
    _write_json(out / "pi_trace.json", {
        name: [
            {"k": it.k, "gain_delta": it.gain_delta, "lyap_residual": it.lyap_residual,
             "hurwitz": it.hurwitz}
            for it in tr.iterates
        ]
        for name, tr in traces.items()
    })
    for name, tr in traces.items():
        print(
            f"{name}: converged in {len(tr.iterates)} iterations, "
            f"ARE residual {tr.are_residual_final:.3e}"
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_checked(args)
    bundle = run_design(scenario)
    if args.gains == "initial":
        gains = {ad.name: ad.initial for ad in bundle.per_agent}
    else:
        gains_file = Path(args.out) / "optimal_gains.json"
        if gains_file.exists():
            gains = load_gain_sets(gains_file)
        else:
            gains = optimal_gain_sets(bundle, run_learn(scenario, bundle))
    traj = simulator.simulate_network(scenario, gains, scenario.t_end, scenario.dt)
    out = Path(args.out)
    csv_path = out / f"trajectory_{args.gains}.csv"
    write_trajectory_csv(csv_path, scenario, traj)
    if args.svg:
        write_error_svg(out / f"errors_{args.gains}.svg", scenario, traj)
    metrics = simulator.tracking_metrics(traj)
    for name, met in metrics.items():
        settle = "not settled" if met.settle_time is None else f"{met.settle_time:.3f} s"
        print(f"{name}: tail error {met.tail_error:.3e}, settle {settle}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load_checked(args)
    bundle = run_design(scenario)
    traces = run_learn(scenario, bundle)
    opt_gains = optimal_gain_sets(bundle, traces)
    init_gains = {ad.name: ad.initial for ad in bundle.per_agent}

    rows = {}
    for ad in bundle.per_agent:
        x0_tilde = scenario.x0[ad.name] - ad.reg.Pi @ scenario.xi0[ad.name]
        X0 = np.concatenate([scenario.zeta0, x0_tilde])
        entry = {}
        for label, kic in (("initial", ad.initial.Kic), ("optimal", traces[ad.name].K)):
            run = simulator.simulate_augmented(ad.plant, kic, X0, scenario.t_end, scenario.dt)
            P = policy_iteration.policy_evaluation(ad.plant, kic)
            cost = simulator.evaluate_cost(run, P)
            entry[label] = {
                "J_quadrature": cost.j_quadrature,
                "J_closed_form": cost.j_closed_form,
                "tail_error": cost.tail_error,
            }
        rows[ad.name] = entry

    traj_init = simulator.simulate_network(scenario, init_gains, scenario.t_end, scenario.dt)
    traj_opt = simulator.simulate_network(scenario, opt_gains, scenario.t_end, scenario.dt)
    for label, traj in (("initial", traj_init), ("optimal", traj_opt)):
        for name, met in simulator.tracking_metrics(traj).items():
            rows[name][label]["network_tail_error"] = met.tail_error

    _write_json(Path(args.out) / "comparison.json", {"seed": scenario.seed, "agents": rows})
    print(f"{'agent':>8} {'J_initial':>12} {'J_optimal':>12}")
    for name, entry in rows.items():
        print(
            f"{name:>8} {entry['initial']['J_closed_form']:>12.6f} "
            f"{entry['optimal']['J_closed_form']:>12.6f}"
        )
    return EXIT_OK


def _load_checked(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        scenario.seed = args.seed
        scenario.leader = LeaderModel(
            S=scenario.leader.S, w0=seeded_w0(scenario.leader.q, args.seed)
        )
    report = check_assumptions(scenario.agents, scenario.leader, scenario.topology)
    if not report.passed:
        raise ValidationError("assumption checks failed: " + "; ".join(report.diagnostics))
    return scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncopt",
        description="Design, learn, and verify optimal output-synchronization protocols "
        "for heterogeneous leader-follower networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("validate", cmd_validate), ("design", cmd_design), ("learn", cmd_learn),
        ("simulate", cmd_simulate), ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="seed the leader initial state")
        p.set_defaults(fn=fn)
        if name == "simulate":
            p.add_argument(
                "--gains", choices=("initial", "optimal"), default="initial",
                help="which gain set drives the protocol",
            )
            p.add_argument("--svg", action="store_true", help="emit static SVG error charts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
