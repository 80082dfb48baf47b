"""Networks for tests: a chain scenario larger than the paper's, the same
agents on a seeded random DAG, seeded random DAGs, the dense graph matrices
of a topology, rebuilt from its edge list or its senders, and a dense matrix
from its nonzeros."""

import json

import numpy as np

from helpers import BUNDLED_SCENARIO
from syncopt.topology import build_topology


def chain_payload(n_followers: int) -> dict:
    """The bundled paper agents round-robin on a chain of `n_followers`, each
    with its paper K1: 5 states a follower besides the 2 of the leader and
    the 2 of the local generator."""
    raw = json.loads(BUNDLED_SCENARIO.read_text())
    paper = raw["agents"]
    agents, x0, xi0, k1 = [], {}, {}, {}
    for i in range(n_followers):
        spec, name = paper[i % 5], f"a{i}"
        agents.append(dict(spec, name=name))
        x0[name] = raw["init"]["x0"][spec["name"]]
        xi0[name] = raw["init"]["xi0"][spec["name"]]
        k1[name] = raw["k1_override"][spec["name"]]
    edges = [[i, i + 1] for i in range(n_followers)]
    raw.update(agents=agents, k1_override=k1, topology={"n_followers": n_followers, "edges": edges})
    raw["init"].update(x0=x0, xi0=xi0)
    return raw


def dag_payload(n_followers: int, seed: int) -> dict:
    """`chain_payload`'s agents on `random_dag(seed, n_followers)` instead
    of the chain."""
    raw = chain_payload(n_followers)
    raw["topology"]["edges"] = [list(edge) for edge in random_dag(seed, n_followers).edges]
    return raw


def random_dag(seed, n):
    """Follower i draws one or two senders from the nodes before it."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n + 1):
        senders = rng.choice(i, size=min(i, int(rng.integers(1, 3))), replace=False)
        edges += [(int(j), i) for j in senders]
    return build_topology(n, edges)


def with_extra_state(payload: dict, names) -> dict:
    """The named agents of a payload given one more state, stable (-1.5),
    unforced and seen by every output, so that their order grows by one
    and the standing assumptions still hold; its initial value is 0.3."""
    for spec in payload["agents"]:
        if spec["name"] in names:
            n, m = len(spec["A"]), len(spec["B"][0])
            spec["A"] = [row + [0.0] for row in spec["A"]] + [[0.0] * n + [-1.5]]
            spec["B"] = spec["B"] + [[0.0] * m]
            spec["C"] = [row + [1.0] for row in spec["C"]]
            spec["E"] = spec["E"] + [[0.0] * len(spec["E"][0])]
            payload["init"]["x0"][spec["name"]] = payload["init"]["x0"][spec["name"]] + [0.3]
            k1 = payload["k1_override"][spec["name"]]
            payload["k1_override"][spec["name"]] = [row + [0.0] for row in k1]
    return payload


def graph_matrices(topo) -> tuple:
    """(A, L, A0, Ls) of a topology, dense, from its edge list: the adjacency
    (row i lists the senders to node i), the Laplacian D - A, the leader
    adjacency diag(A[1:, 0]) and the follower Laplacian."""
    n = topo.n_followers
    adj = np.zeros((n + 1, n + 1))
    for j, i in topo.edges:
        adj[i, j] = 1.0
    adj_s = adj[1:, 1:]
    return (adj, np.diag(adj.sum(axis=1)) - adj, np.diag(adj[1:, 0]),
            np.diag(adj_s.sum(axis=1)) - adj_s)


def h_matrix(topo) -> np.ndarray:
    """H = A0 + Ls, dense, from a topology's senders and in-degrees: d_i on
    the diagonal and -1 at (i, j) per follower edge j -> i."""
    h = np.diag(topo.in_degrees[1:])
    for i, senders in enumerate(topo.senders[1:]):
        for j in senders:
            if j > 0:
                h[i, j - 1] = -1.0
    return h


def dense(nonzeros, n: int) -> np.ndarray:
    """The n x n matrix whose nonzeros are (rows, cols, vals)."""
    rows, cols, vals = nonzeros
    a = np.zeros((n, n))
    a[rows, cols] = vals
    return a
