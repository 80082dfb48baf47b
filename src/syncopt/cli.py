"""Command-line pipeline: scenario ingestion, design, learning, simulation,
and comparison, with JSON/CSV serialization of every stage.

Verbs: validate, design, learn, simulate, compare. Exit codes are a stable
contract: 0 success, 2 validation failure, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import policy_iteration, protocol, regulator
from .errors import NumericalError, ToolkitError, ValidationError
from .plant import AgentDynamics, LeaderModel, check_assumptions, plant_key
from .topology import Topology, build_topology

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
# The most RK4 steps, sim.t_end / sim.dt, a scenario may ask for: `simulate`
# writes a CSV row per sample, 551 MB at 10^6 steps of the bundled scenario.
MAX_STEPS = 10**7
SVG_COLUMNS = 1000  # time columns of the `simulate --svg` chart, whatever the horizon
XML_ILLEGAL = r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"  # not an XML 1.0 Char


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
    seed: int | None  # `--seed`, which replaces leader.w0 and nothing else
    k1_override: dict | None  # name -> K1 matrix
    sha256: str  # of the scenario file's bytes


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValidationError(f"scenario missing field `{where}.{key}`" if where else f"scenario missing field `{key}`")
    return mapping[key]


def _positive(value, where: str, integer: bool = False):
    """A scenario number that is positive and finite, and whole if `integer`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value < math.inf) or (integer and value != int(value)):
        kind = "integer" if integer else "number"
        raise ValidationError(f"{where} must be a positive finite {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list, got {value!r}")
    return value


def _read_json(path: Path) -> tuple:
    """The parsed content of a JSON file and the SHA-256 of its bytes."""
    data = path.read_bytes()
    try:
        return json.loads(data), hashlib.sha256(data).hexdigest()
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ValidationError(f"{path}: parse error: {exc}") from exc


def _finite_array(value, shape: tuple, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where} is not numeric: {exc}") from exc
    if arr.shape != shape:
        raise ValidationError(f"{where} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{where} contains non-finite numbers")
    return arr


def load_scenario(path) -> Scenario:
    """Parse and dimension-validate a scenario file."""
    raw, sha256 = _read_json(Path(path))
    leader_raw = _require(raw, "leader", "")
    try:
        leader = LeaderModel(S=_require(leader_raw, "S", "leader"), w0=_require(leader_raw, "w0", "leader"))
    except (TypeError, ValueError) as exc:  # TypeError: an object where a number belongs
        raise ValidationError(f"leader: {exc}") from exc

    topo_raw = _require(raw, "topology", "")
    n_followers = _positive(_require(topo_raw, "n_followers", "topology"), "topology.n_followers", True)
    edges = _list(_require(topo_raw, "edges", "topology"), "topology.edges")

    design = _require(raw, "design", "")
    r = _positive(_require(design, "r", "design"), "design.r")
    epsilon = _positive(design.get("epsilon", policy_iteration.DEFAULT_EPSILON), "design.epsilon")
    max_iter = _positive(
        design.get("max_iter", policy_iteration.DEFAULT_MAX_ITER), "design.max_iter", True
    )

    sim = _require(raw, "sim", "")
    t_end = _positive(_require(sim, "t_end", "sim"), "sim.t_end")
    dt = _positive(_require(sim, "dt", "sim"), "sim.dt")
    if t_end < dt:
        raise ValidationError(f"sim.t_end must be >= sim.dt, got {t_end}")
    if not t_end / dt <= MAX_STEPS:
        raise ValidationError(
            f"sim.t_end / sim.dt must be at most {MAX_STEPS} steps, got {t_end / dt:.3g}"
        )

    agents = []
    names = set()
    plants = {}  # plant_key -> the one AgentDynamics of that plant
    for spec in _list(_require(raw, "agents", ""), "agents"):
        name = _require(spec, "name", "agents[]")
        if not isinstance(name, str):
            raise ValidationError(f"agent name must be a string, got {name!r}")
        if re.search("[\ud800-\udfff]", name):  # a lone surrogate: no text file can hold it
            raise ValidationError(f"agent name {name!r} does not encode as UTF-8")
        if name in names:
            raise ValidationError(f"duplicate agent name `{name}`")
        names.add(name)
        mats = [_require(spec, field, name) for field in "ABCDEF"]
        try:
            mats = [np.asarray(M, dtype=float) for M in mats]  # as AgentDynamics takes them
            key = plant_key(mats)
            ag = plants.get(key) or plants.setdefault(key, AgentDynamics(*mats))  # checked once a plant
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"agent {name}: {exc}") from exc
        if ag.q != leader.q:
            raise ValidationError(
                f"agent {name}: E/F have {ag.q} columns, leader order is {leader.q}"
            )
        agents.append((name, ag))
    if len(agents) != n_followers:
        raise ValidationError(f"{len(agents)} agents declared for {n_followers} followers")
    topology = build_topology(n_followers, edges)

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
    if raw.get("k1_override") is not None:
        if not isinstance(raw["k1_override"], dict):
            raise ValidationError(f"k1_override must be an object, got {raw['k1_override']!r}")
        k1_override = {}
        dims = {name: (ag.m, ag.n) for name, ag in agents}
        for name, mat in raw["k1_override"].items():
            if name not in names:
                raise ValidationError(f"k1_override references unknown agent `{name}`")
            k1_override[name] = _finite_array(mat, dims[name], f"k1_override[{name}]")

    return Scenario(
        leader=leader, agents=agents, topology=topology, r=r, epsilon=epsilon,
        max_iter=max_iter, t_end=t_end, dt=dt, x0=x0, xi0=xi0, zeta0=zeta0,
        seed=None, k1_override=k1_override, sha256=sha256,
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
    reg: regulator.RegulatorSolution
    plant: protocol.AugmentedPlant
    initial: protocol.GainSet


@dataclass
class DesignBundle:
    design: protocol.CompensatorDesign
    transform: protocol.TransformU
    per_agent: list  # AgentDesign, scenario order


def run_design(scenario: Scenario) -> DesignBundle:
    """Compensator, transform and per-agent design of the scenario.

    Agents that share a plant (`AgentDynamics.key`) and a K1 override, or
    the absence of one, share its regulator solution and initial gain set,
    computed once, by the first of them. The augmented plants are assembled,
    and their loops checked, as one stack per shape (n, m, p), and each
    `AgentDesign` holds views of its member. A failure is reported for the
    first agent, in scenario order, that fails."""
    design = protocol.design_compensator(scenario.leader, scenario.topology, scenario.r)
    transform = protocol.build_transform(design, scenario.topology, scenario.leader)
    solved = {}  # (plant key, K1 override shape and bytes or None) -> (agent, reg, initial gains)
    members = []
    for idx, (name, ag) in enumerate(scenario.agents, start=1):
        k1 = scenario.k1_override.get(name) if scenario.k1_override else None
        k1_key = None if k1 is None else (np.shape(k1), np.asarray(k1, dtype=float).tobytes())
        members.append((idx, name, ag, k1, (ag.key, k1_key)))

    def run(group):  # the agents of one shape
        for _, _, ag, k1, key in group:
            if key not in solved:
                reg = regulator.solve_regulator(ag, scenario.leader)
                solved[key] = ag, reg, protocol.initial_gains(ag, reg, K1=k1)
        distinct = {}  # key -> its place among the group's distinct keys
        at = [distinct.setdefault(key, len(distinct)) for *_, key in group]
        ags, regs, gains = zip(*map(solved.get, distinct))
        stacks = SimpleNamespace(**{f: np.stack([getattr(o, f) for o in objs])[at]  # (G, ., .), by member
                                    for objs, fields in ((ags, "ABCDEF"), (regs, ["Pi"]), (gains, ["Kic"]))
                                    for f in fields})
        plant = protocol.build_augmented_plant(stacks, stacks, design, transform, [idx for idx, *_ in group])
        protocol.check_augmented_loop(plant, stacks.Kic)
        views = zip(plant.A, plant.B, plant.C, plant.D, plant.Phi, plant.Psi)
        return [AgentDesign(name, regs[j], protocol.AugmentedPlant(*mats), gains[j])
                for (_, name, *_), j, mats in zip(group, at, views)]

    per_agent = in_lockstep(members, lambda m: (m[2].n, m[2].m, m[2].p), run, lambda m: f"agent {m[1]}")
    return DesignBundle(design=design, transform=transform, per_agent=per_agent)


def in_lockstep(members: list, shape, run, name) -> list:
    """`run` on the members of each `shape`, a group at a time in order of
    first appearance; returns their results in the members' order.

    `run` takes members of one shape and returns their results, or raises
    the error of a member that fails, as that member alone would. When a
    group fails, the members are run alone in order, and the first to fail
    is raised with `name(member)` before its text, whichever its group.
    """
    groups = {}
    for i, member in enumerate(members):
        groups.setdefault(shape(member), []).append(i)
    results = {}
    for group in groups.values():
        try:
            results.update(zip(group, run([members[i] for i in group])))
        except (ValueError, ToolkitError):  # numpy's LinAlgError is a ValueError
            for member in members:
                try:
                    run([member])
                except (ValueError, ToolkitError) as exc:
                    raise type(exc)(f"{name(member)}: {exc}") from exc
            raise
    return [results[i] for i in range(len(members))]


def run_learn(scenario: Scenario, bundle: DesignBundle) -> dict:
    """Policy iteration for every agent, the agents of one shape (augmented
    order, m, p) in lockstep; returns name -> PiTrace in scenario order. A
    failure is reported for the first agent, in scenario order, that fails."""
    def run(group):
        return policy_iteration.run_pi_group(
            [ad.plant for ad in group], [ad.initial.Kic for ad in group],
            epsilon=scenario.epsilon, max_iter=scenario.max_iter)

    traces = in_lockstep(bundle.per_agent, lambda ad: (ad.plant.order, *ad.plant.D.shape), run,
                         lambda ad: f"agent {ad.name} (learn)")
    return {ad.name: trace for ad, trace in zip(bundle.per_agent, traces)}


def compare_gains(path: Path, bundle: DesignBundle, scenario: Scenario) -> dict:
    """The optimal gain sets `compare` runs. A gains file that `learn` wrote
    for this scenario is read as `simulate --gains optimal` reads it. A
    missing or malformed file, or one stamped for another scenario, is left
    alone and the gains are learned."""
    try:
        return load_gain_sets(path, bundle, scenario)
    except (OSError, ValidationError):
        return optimal_gain_sets(bundle, run_learn(scenario, bundle))


def augmented_costs(scenario: Scenario, bundle: DesignBundle, gain_sets: dict) -> dict:
    """Cost report of every agent's closed augmented loop under each gain set
    of `gain_sets` (label -> name -> GainSet), keyed (name, label).

    The loops of the agents of one shape are run and solved in lockstep. A
    failure is reported for the first loop, agent by agent and label by
    label, that fails.
    """
    from . import simulator  # only here and in the verbs that run one, see cmd_simulate

    def run(group):
        with np.errstate(over="ignore", invalid="ignore"):  # refused as a non-finite initial state
            X0 = [np.concatenate([scenario.zeta0,
                                  scenario.x0[ad.name] - ad.reg.Pi @ scenario.xi0[ad.name]])
                  for ad, _ in group]
        return simulator.simulate_augmented(
            [ad.plant for ad, _ in group], [gain_sets[label][ad.name].Kic for ad, label in group],
            X0, scenario.t_end, scenario.dt)

    members = [(ad, label) for ad in bundle.per_agent for label in gain_sets]
    costs = in_lockstep(members, lambda m: (m[0].plant.order, *m[0].plant.D.shape), run,
                        lambda m: f"agent {m[0].name} (compare, {m[1]})")
    return {(ad.name, label): cost for (ad, label), cost in zip(members, costs)}


def optimal_gain_sets(bundle: DesignBundle, traces: dict) -> dict:
    """Network gain sets from converged traces."""
    return {ad.name: protocol.GainSet.from_kic(traces[ad.name].K, ad.reg) for ad in bundle.per_agent}


# ---------------------------------------------------------------------------
# serialization

def _mat(x) -> list:
    return np.asarray(x).tolist()


def _json_key(key) -> str:
    """An object key as `json` writes it: a float, bool, None or int key is
    spelled as the value, and the text is quoted."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def _json(o, write, nl: str):
    """Write `o` through `write` as `json.dump(o, f, indent=2)` does, where `nl`
    is the newline and indentation its lines start with, by the same type rules
    and texts: a string, exact int, finite float or row of floats in one write,
    a list or dict an item or member at a time; `json` spells everything else."""
    if isinstance(o, str):
        return write(encode_basestring_ascii(o))
    if type(o) is int:
        return write(int.__repr__(o))
    if type(o) is float and math.isfinite(o):
        return write(float.__repr__(o))
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if o and isinstance(o[0], float):  # a row of floats, the bulk of every report
            try:
                body = f",{inner}".join(map(float.__repr__, o))
            except TypeError:  # not all floats
                body = "n"
            if "n" not in body:  # nor a `nan` or `inf` among them
                return write(f"[{inner}{body}{nl}]")
        members, brackets = (("", x) for x in o), "[]"
    elif isinstance(o, dict):
        members, brackets = ((f"{_json_key(k)}: ", v) for k, v in o.items()), "{}"
    else:
        return write(json.dumps(o))
    if not o:
        return write(brackets)
    sep = brackets[0]
    for key, v in members:
        write(f"{sep}{inner}{key}")
        _json(v, write, inner)
        sep = ","
    write(nl + brackets[1])


def _write_json(path: Path, payload: dict):
    """Write `payload` byte for byte as `json.dump(payload, f, indent=2)` does,
    through `_replacing`, one member or item at a time at every level (a row
    of floats whole), so no report is held whole."""
    with _replacing(path) as f:
        _json(payload, f.write, "\n")


def _gains_json(g: protocol.GainSet) -> dict:
    return {"K1": _mat(g.K1), "K2": _mat(g.K2), "K3": _mat(g.K3), "Kic": _mat(g.Kic)}


def gains_payload(bundle: DesignBundle, traces: dict | None, scenario: Scenario) -> dict:
    agents = {}
    optimal = {} if traces is None else optimal_gain_sets(bundle, traces)
    rows, cols, vals = bundle.transform.U  # written 1-based, as the graph numbers followers
    for ad in bundle.per_agent:
        entry = {
            "Pi": _mat(ad.reg.Pi),
            "Gamma": _mat(ad.reg.Gamma),
            "regulator_residual": ad.reg.residual,
            "initial": _gains_json(ad.initial),
        }
        if traces is not None:
            tr = traces[ad.name]
            entry["optimal"] = {
                **_gains_json(optimal[ad.name]),
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
        "U": {"n": len(bundle.transform.c), "rows": _mat(rows + 1), "cols": _mat(cols + 1),
              "vals": _mat(vals)},
        "c": _mat(bundle.transform.c),
        "h": _mat(bundle.transform.h),
        "transform_residual": bundle.transform.residual,
        "seed": scenario.seed,
        "scenario_sha256": scenario.sha256,
        "agents": agents,
    }


def load_gain_sets(path, bundle: DesignBundle, scenario: Scenario) -> dict:
    """Reload the optimal gains written by `learn` for this scenario.

    The file must carry the SHA-256 of the current scenario file; its `seed`
    stamp is a record only, since the seed moves the leader's initial state,
    which no learned gain depends on. Only each agent's `optimal.Kic` is
    read; K1, K2 and K3 are rebuilt from the current design.
    """
    payload = _read_json(Path(path))[0]
    if not isinstance(payload, dict) or "scenario_sha256" not in payload:
        raise ValidationError(f"gains file {path} has no `scenario_sha256` stamp")
    if payload["scenario_sha256"] != scenario.sha256:
        raise ValidationError(f"gains file {path} was learned with scenario_sha256 "
                              f"{payload['scenario_sha256']!r}, this run has {scenario.sha256!r}")
    out = {}
    for ad in bundle.per_agent:
        try:
            kic = payload["agents"][ad.name]["optimal"]["Kic"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"gains file {path} has no optimal Kic for {ad.name}") from exc
        kic = _finite_array(kic, ad.initial.Kic.shape, f"gains file {path}: optimal Kic of {ad.name}")
        out[ad.name] = protocol.GainSet.from_kic(kic, ad.reg)
    return out


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file beside `path` that replaces it when the block ends; if the
    block fails, the file is removed and `path` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _copy_rows(out: np.ndarray, block, r0: int, q: int):
    """Fill `out` with the CSV cells of a row block's samples from r0 on: the
    time, the leader's q states, then each follower's e and x, two strided
    copies a group of followers."""
    r1 = r0 + len(out)
    out[:, 0], out[:, 1 : 1 + q], col = block.times[r0:r1], block.leader_states[r0:r1], 1 + q
    for _, x, _, _, _, e in block.groups:
        G, _, p = e.shape
        cells = out[:, col : col + G * (p + x.shape[2])].reshape(len(out), G, -1)
        cells[:, :, :p], cells[:, :, p:] = e[:, r0:r1].transpose(1, 0, 2), x[:, r0:r1].transpose(1, 0, 2)
        col += cells.shape[1] * cells.shape[2]


def write_trajectory_csv(path: Path, scenario: Scenario, blocks):
    """Write the trajectory CSV of a network run given as consecutive row
    blocks (`Trajectory`s, as a `simulator.NetworkRun` yields them), each
    block as it comes, through `_replacing`."""
    from . import fmt17  # only here, so that the verbs writing no CSV do not load it

    q = scenario.leader.q
    header = ["t"] + [f"w_{k + 1}" for k in range(q)]
    for name, ag in scenario.agents:
        header += [f"{name}_e_{k + 1}" for k in range(ag.p)]
        header += [f"{name}_x_{k + 1}" for k in range(ag.n)]
    rows = max(1, fmt17.BLOCK_CELLS // len(header))
    table = np.empty((rows, len(header)))  # one formatter block, refilled; not a whole row block
    with _replacing(path) as f:
        csv.writer(f).writerow(header)  # quotes any agent name that needs it
        f.flush()  # the rows go to the byte stream below the text layer
        for block in blocks:
            for r0 in range(0, len(block.times), rows):
                part = table[: len(block.times) - r0]
                _copy_rows(part, block, r0, q)
                f.buffer.write(fmt17.csv_rows(part))
            del block  # before the next is integrated


def error_envelope(run, low: np.ndarray, high: np.ndarray):
    """Pass on the row blocks of a `simulator.NetworkRun` as they come, folding
    each follower's |e| at sample k of T into column k * W // T of the W x N
    arrays `low` (the least) and `high` (the largest); NaN is no sample yet."""
    for block in run:
        k = run.tracking.seen  # the run's samples up to the end of this block
        cols = np.arange(k - len(block.times), k) * len(low) // (run.tracking.steps + 1)
        np.fmin.at(low, cols, block.norms)
        np.fmax.at(high, cols, block.norms)
        yield block
        del block  # before the next block is integrated


def write_error_svg(path: Path, run, low: np.ndarray, high: np.ndarray):
    """Chart each follower's |e| from the run's `error_envelope`: a band right along
    `high` and back along `low`, on whole log decades reaching 1, zeros at the floor."""
    from html import escape

    band = np.concatenate([high, low[::-1]])
    bottom = math.floor(math.log10(band.min(where=band > 0, initial=1.0)))
    top = max(bottom + 1, math.ceil(math.log10(band.max(initial=1.0))))
    logs = np.log10(band, out=np.full(band.shape, float(bottom)), where=band > 0)
    xs = (70 + 550 / (len(low) - 1) * np.r_[np.arange(len(low)), np.arange(len(low))[::-1]]).tolist()
    ys = 20 + 380 / (top - bottom) * (top - logs)
    with _replacing(path) as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="800" '
                f'height="{max(450, 40 + 18 * len(run.tracking.names))}" font-size="12">\n'
                '<rect x="70" y="20" width="550" height="380" fill="none" stroke="black"/>'
                '<text y="14">|e|</text>\n'
                f'<text x="70" y="416">0</text><text x="620" y="416" text-anchor="end">'
                f'{run.tracking.steps * run.tracking.dt:.6g}</text><text x="300" y="440">time [s]</text>\n')
        for d in range(bottom, top + 1, -(-(top - bottom) // 10)):  # at most 11 decade labels
            f.write(f'<text x="64" y="{24 + 380 * (top - d) / (top - bottom):.2f}" '
                    f'text-anchor="end">1e{d}</text>\n')
        for j, name in enumerate(run.tracking.names):
            color = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")[j % 6]
            label = escape(re.sub(XML_ILLEGAL, "\ufffd", name)).encode("ascii", "xmlcharrefreplace").decode()
            f.write(f'<polyline points="{" ".join(map("{:.2f},{:.2f}".format, xs, ys[:, j].tolist()))}" '
                    f'fill="{color}" fill-opacity="0.3" stroke="{color}"/>'
                    f'<text x="640" y="{34 + 18 * j}" fill="{color}">{label}</text>\n')
        f.write("</svg>\n")


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = check_assumptions(scenario.agents, scenario.leader, scenario.topology)
    _write_json(Path(args.out) / "assumption_report.json", report)
    print(f"assumptions {'PASS' if report['passed'] else 'FAIL'}")
    for line in report["diagnostics"]:
        print(f"  - {line}")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


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
             "abscissa": it.abscissa}
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
    # the simulator is loaded by the verbs that run one, so that the others
    # (and the start of every verb) do not compile it
    from . import simulator

    scenario = _load_checked(args)
    bundle = run_design(scenario)
    if args.gains == "initial":
        gains = {ad.name: ad.initial for ad in bundle.per_agent}
    else:
        gains_file = Path(args.out) / "optimal_gains.json"
        if gains_file.exists():
            gains = load_gain_sets(gains_file, bundle, scenario)
        else:
            gains = optimal_gain_sets(bundle, run_learn(scenario, bundle))
    run = simulator.NetworkRun(scenario, bundle.design, gains)
    out = Path(args.out)
    csv_path = out / f"trajectory_{args.gains}.csv"
    blocks = run
    if args.svg:
        low, high = np.full((2, min(SVG_COLUMNS, run.tracking.steps + 1), len(gains)), np.nan)
        blocks = error_envelope(run, low, high)
    write_trajectory_csv(csv_path, scenario, blocks)
    if args.svg:
        write_error_svg(out / f"errors_{args.gains}.svg", run, low, high)
    for name, met in run.tracking.metrics().items():
        settle = "not settled" if met.settle_time is None else f"{met.settle_time:.3f} s"
        print(f"{name}: tail error {met.tail_error:.3e}, settle {settle}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import simulator  # see cmd_simulate

    scenario = _load_checked(args)
    bundle = run_design(scenario)
    opt_gains = compare_gains(Path(args.out) / "optimal_gains.json", bundle, scenario)
    gain_sets = {"initial": {ad.name: ad.initial for ad in bundle.per_agent}, "optimal": opt_gains}

    costs = augmented_costs(scenario, bundle, gain_sets)
    rows = {
        ad.name: {
            label: {
                "J_quadrature": cost.j_quadrature,
                "J_closed_form": cost.j_closed_form,
                "tail_error": cost.tail_error,
                "horizon_warning": cost.horizon_warning,
            }
            for label in gain_sets for cost in [costs[ad.name, label]]
        }
        for ad in bundle.per_agent
    }

    for label, gains in gain_sets.items():
        run = simulator.NetworkRun(scenario, bundle.design, gains)
        for name, tail_error in run.tail_errors().items():
            rows[name][label]["network_tail_error"] = tail_error

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
    if args.seed is not None:
        scenario.seed = args.seed
        scenario.leader = LeaderModel(
            S=scenario.leader.S, w0=seeded_w0(scenario.leader.q, args.seed)
        )
    report = check_assumptions(scenario.agents, scenario.leader, scenario.topology)
    if not report["passed"]:
        raise ValidationError("assumption checks failed: " + "; ".join(report["diagnostics"]))
    return scenario


VERBS = ("validate", "design", "learn", "simulate", "compare")


def _seed(text: str) -> int:
    """A `--seed` value: an integer that numpy can seed with, so not negative."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; `main` runs the verb's
    `cmd_<verb>` function."""
    parser = argparse.ArgumentParser(
        prog="syncopt",
        description="Design, learn, and verify optimal output-synchronization protocols "
        "for heterogeneous leader-follower networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in VERBS:
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=_seed, default=None, help="seed the leader initial state")
        if name == "simulate":
            p.add_argument(
                "--gains", choices=("initial", "optimal"), default="initial",
                help="which gain set drives the protocol",
            )
            p.add_argument("--svg", action="store_true", help="also write errors_<gains>.svg, a log "
                           f"chart of each follower's least and largest |e| in {SVG_COLUMNS} time columns")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so that a wrapper set on the module is called
    cmd = globals()[f"cmd_{args.command}"]
    try:
        return cmd(args)
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
