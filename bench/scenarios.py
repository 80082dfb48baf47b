"""Seeded scenario generators for the benchmark (stdlib + numpy only).

Every generator returns plain JSON-ready dicts in the scenario format that
`syncopt.cli.load_scenario` reads, plus a `meta` dict recording the seed,
the sizes and every draw that was rejected and why. Nothing here imports
the toolkit: the benchmark hands the program only the files written from
these dicts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The five followers of the paper's example (leader S = I_2), with the
# stabilizing K1 the bundled scenario ships for each of them.
PAPER_LEADER_S = [[1.0, 0.0], [0.0, 1.0]]
PAPER_W0 = [1.0, -1.0]
PAPER_AGENTS = [
    {"A": [[-1, 0, 0.5], [0, -1, 0], [0, 0, -1]], "B": [[0, 0], [0, 1.5], [1, 0]],
     "C": [[1, 0, 0], [0, 2, 0]], "D": [[0.5, 0], [0.5, 1.5]],
     "E": [[1, 0], [0, 0.5], [1, 0]], "F": [[0.5, 0], [0, 0.5]],
     "K1": [[4, 0, 3], [0, 0, 0]], "x0": [1.2, -0.8, 0], "xi0": [0.5, -0.4]},
    {"A": [[-1, 0, 1], [0, -1, 0], [0, 0, -1]], "B": [[0, 0], [0, 2], [1, 0]],
     "C": [[1.5, 0, 0], [0, 2, 1]], "D": [[1, 0], [1, 2]],
     "E": [[1, 0], [0, 1], [1, 0]], "F": [[1, 0], [0, 3]],
     "K1": [[2, 0, 3], [0, 0, 0]], "x0": [1.6, -0.5, 0], "xi0": [0.1, -0.2]},
    {"A": [[-1, 0, 1.5], [0, -1, 0], [0, 0, -1]], "B": [[0, 0], [0, 4.5], [1, 0]],
     "C": [[1.5, 0, 0], [0, 2.5, 0]], "D": [[1.5, 0], [0.5, 2]],
     "E": [[1, 0], [0, 1.5], [1, 0]], "F": [[1.5, 0], [0, 2]],
     "K1": [[1.3333, 0, 3], [0, 0, 0]], "x0": [1.7, -0.4, 0], "xi0": [0.1, -0.6]},
    {"A": [[-1, 0, 2], [0, -1, 0], [0, 0, -1]], "B": [[0, 0], [0, 1], [1, 0]],
     "C": [[2, 0, 0], [0, 2.5, 0]], "D": [[2, 0], [0.5, 2]],
     "E": [[1, 0], [0, 2], [1, 0]], "F": [[2, 0], [0, 1]],
     "K1": [[1, 0, 3], [0, 0, 0]], "x0": [0.8, -0.1, 0], "xi0": [0.3, -0.2]},
    {"A": [[-1, 0, 2.5], [0, -1, 0], [0, 0, -1]], "B": [[0, 0], [0, 2.5], [1, 0]],
     "C": [[2.5, 0, 0], [0, 3, 0]], "D": [[2.5, 0], [0.5, 2.5]],
     "E": [[1, 0], [0, 2.5], [1, 0]], "F": [[2.5, 0], [0, 2.5]],
     "K1": [[0.8, 0, 3], [0, 0, 0]], "x0": [0.9, -0.4, 0], "xi0": [0.3, -0.1]},
]
PAPER_EDGES = [[0, 1], [1, 2], [1, 3], [2, 4], [3, 4], [4, 5]]

RANK_RTOL = 1e-9
# Draws closer than this to unobservable are rejected as ill-posed, so that a
# plant the toolkit calls unobservable is a false negative of its test.
OBSERVABILITY_MARGIN = 1e-4


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def make_scenario(leader_s, w0, n_followers, edges, agents, t_end, dt, k1=None) -> dict:
    """Assemble a scenario dict; `agents` holds dicts with name, A..F, x0, xi0."""
    out = {
        "leader": {"S": leader_s, "w0": list(w0)},
        "topology": {"n_followers": n_followers, "edges": edges},
        "design": {"r": 1.0, "epsilon": 1e-6, "max_iter": 100},
        "sim": {"t_end": t_end, "dt": dt},
        "init": {
            "x0": {a["name"]: a["x0"] for a in agents},
            "xi0": {a["name"]: a["xi0"] for a in agents},
            "zeta0": [0.0] * len(leader_s),
        },
        "agents": [{k: a[k] for k in ("name", "A", "B", "C", "D", "E", "F")} for a in agents],
    }
    if k1:
        out["k1_override"] = k1
    return out


def random_dag_edges(rng, n_followers: int, max_in: int) -> list:
    """Edges (j, i) of a random leader-rooted DAG.

    Follower i draws 1..max_in distinct senders from nodes 0..i-1, so every
    edge points forward and every follower is reachable from the leader.
    """
    edges = []
    for i in range(1, n_followers + 1):
        k = int(rng.integers(1, min(max_in, i) + 1))
        for j in sorted(rng.choice(i, size=k, replace=False).tolist()):
            edges.append([int(j), i])
    return edges


def paper_scenario(w0) -> dict:
    """The paper's five-follower example with the given leader start."""
    agents = [dict(a, name=f"agent{i + 1}") for i, a in enumerate(PAPER_AGENTS)]
    k1 = {a["name"]: a["K1"] for a in agents}
    return make_scenario(PAPER_LEADER_S, w0, 5, PAPER_EDGES, agents, 20.0, 1e-3, k1)


def wide_network(seed: int, n_followers: int = 200, max_in: int = 2,
                 t_end: float = 2.0, dt: float = 1e-3) -> tuple[dict, dict]:
    """The paper agents round-robin on a seeded random DAG of `n_followers`."""
    rng = np.random.default_rng(seed)
    edges = random_dag_edges(rng, n_followers, max_in)
    agents = []
    for i in range(n_followers):
        base = PAPER_AGENTS[i % len(PAPER_AGENTS)]
        agents.append(dict(base, name=f"f{i + 1:03d}"))
    k1 = {a["name"]: a["K1"] for a in agents}
    meta = {
        "generator": "paper_agents_round_robin_dag", "seed": seed,
        "n_followers": n_followers, "max_in_degree": max_in, "edges": len(edges),
        "order_range": [3, 3], "t_end": t_end, "dt": dt, "rejected": [],
    }
    return make_scenario(PAPER_LEADER_S, PAPER_W0, n_followers, edges, agents, t_end, dt, k1), meta


# ---------------------------------------------------------------------------
# random plants with an LQR K1

def _rank(M) -> int:
    sv = np.linalg.svd(M, compute_uv=False)
    return 0 if sv.size == 0 or sv[0] == 0.0 else int(np.sum(sv > RANK_RTOL * sv[0]))


def lqr_gain(A, B):
    """K = B^T P for the LQR problem Q = I, R = I, from the stable invariant
    subspace of the Hamiltonian; None when the subspace is not n-dimensional."""
    n = A.shape[0]
    H = np.block([[A, -B @ B.T], [-np.eye(n), -A.T]])
    vals, vecs = np.linalg.eig(H)
    stable = vals.real < 0
    if stable.sum() != n:
        return None
    V = vecs[:, stable]
    P = np.real(V[n:] @ np.linalg.inv(V[:n]))
    K = B.T @ (P + P.T) / 2
    if np.linalg.eigvals(A - B @ K).real.max() >= -1e-6:
        return None
    return K


def pbh_margin(A, C) -> float:
    """Smallest relative singular value of [A - lam I; C] over the eigenvalues
    lam of A: 0 for an unobservable pair, near 1 for a well-observable one.

    Unlike the Kalman matrix [C; CA; ...; CA^(n-1)], whose singular values
    spread over many decades as n grows, this stays well conditioned at the
    plant orders the benchmark draws.
    """
    n = A.shape[0]
    margin = 1.0
    for lam in np.linalg.eigvals(A):
        sv = np.linalg.svd(np.vstack([A - lam * np.eye(n), C]).astype(complex), compute_uv=False)
        margin = min(margin, sv[-1] / sv[0])
    return float(margin)


def _reject_reason(A, B, C, D, leader_eigs) -> str | None:
    """Why a drawn plant violates the toolkit's standing assumptions, if it does."""
    n, m = B.shape
    if np.linalg.svd(D, compute_uv=False).min() < 0.3:
        return "feedthrough_conditioning"
    if pbh_margin(A, C) < OBSERVABILITY_MARGIN:
        return "weakly_observable"
    for lam in leader_eigs:
        block = np.block([[A - lam * np.eye(n), B], [C, D]]).astype(complex)
        if _rank(block) < n + m:
            return "rank_condition"
    return None


def random_plant(rng, n, m, leader_eigs, q, abscissa=(-0.5, 0.5)):
    """One follower of order n with m = p, random (A..F) and an LQR K1;
    returns (agent, rejects). A is shifted so that its spectral abscissa is
    drawn from `abscissa`.
    """
    rejects = []
    while True:
        A = rng.standard_normal((n, n))
        A -= (np.linalg.eigvals(A).real.max() - rng.uniform(*abscissa)) * np.eye(n)
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((m, n))
        D = rng.standard_normal((m, m))
        reason = _reject_reason(A, B, C, D, leader_eigs)
        K1 = None if reason else lqr_gain(A, B)
        if reason is None and K1 is None:
            reason = "lqr_failed"
        if reason:
            rejects.append({"n": n, "m": m, "reason": reason})
            continue
        agent = {
            "A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "D": D.tolist(),
            "E": rng.standard_normal((n, q)).tolist(), "F": rng.standard_normal((m, q)).tolist(),
            "K1": K1.tolist(), "x0": rng.standard_normal(n).tolist(),
            "xi0": rng.standard_normal(q).tolist(),
        }
        return agent, rejects


def random_plants_network(seed: int, index: int, n_followers: int = 6,
                          order_range=(3, 8), m_choices=(1, 2), max_in: int = 2,
                          t_end: float = 20.0, dt: float = 1e-3) -> tuple[dict, dict]:
    """Random plants with LQR K1 on a seeded random DAG; leader S = I_2.

    Plant orders and input counts are fixed by position, not drawn: every
    scenario has each order of `order_range` once (rotated by `index`), so
    every variant of a batch asks for the same amount of work.
    """
    rng = np.random.default_rng([seed, index])
    span = order_range[1] - order_range[0] + 1
    q = 2
    leader_s = np.eye(q)
    leader_eigs = np.linalg.eigvals(leader_s)
    edges = random_dag_edges(rng, n_followers, max_in)
    agents, rejected = [], []
    for i in range(n_followers):
        n = order_range[0] + (index + i) % span
        m = m_choices[(index // 2 + i) % len(m_choices)]
        agent, rej = random_plant(rng, n, m, leader_eigs, q)
        agents.append(dict(agent, name=f"p{i + 1}"))
        rejected.extend(dict(r, follower=i + 1) for r in rej)
    k1 = {a["name"]: a["K1"] for a in agents}
    w0 = (0.5 * rng.standard_normal(q)).tolist()
    meta = {
        "generator": "random_plants_lqr_dag", "seed": seed, "index": index,
        "n_followers": n_followers, "order_range": list(order_range),
        "m_choices": list(m_choices), "max_in_degree": max_in, "edges": len(edges),
        "orders": [len(a["A"]) for a in agents], "rejected": rejected,
    }
    return make_scenario(leader_s.tolist(), w0, n_followers, edges, agents, t_end, dt, k1), meta
