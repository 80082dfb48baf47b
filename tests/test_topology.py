import dataclasses

import numpy as np
import pytest

from helpers import BUNDLED_SCENARIO
from networks import graph_matrices, h_matrix, random_dag
from paper_tables import LAPLACIAN
from syncopt import cli, topology
from syncopt.errors import ValidationError
from syncopt.plant import LeaderModel
from syncopt.protocol import build_transform, design_compensator
from syncopt.topology import build_topology

PAPER_EDGES = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]


def test_paper_laplacian():
    t = build_topology(5, PAPER_EDGES)
    adj, lap, a0, ls = graph_matrices(t)
    assert np.array_equal(lap, LAPLACIAN)
    assert np.array_equal(h_matrix(t), a0 + ls)
    assert np.array_equal(t.in_degrees, adj.sum(axis=1))


@pytest.mark.parametrize("seed", range(4))
def test_h_matrix_bits_are_the_dense_construction(seed):
    # H from the senders holds the bits of A0 + Ls built from the dense
    # adjacency, an edge into the leader included; the senders of node i are
    # the nonzeros of row i of the adjacency, ascending
    rng = np.random.default_rng(seed)
    n = 12
    pairs = [(j, i) for i in range(1, n + 1) for j in range(n + 1) if i != j]
    edges = [pairs[k] for k in rng.choice(len(pairs), size=30, replace=False)] + [(3, 0)]
    t = build_topology(n, edges)
    adj, _, a0, ls = graph_matrices(t)
    assert h_matrix(t).tobytes() == (a0 + ls).tobytes()
    assert t.in_degrees.tobytes() == adj.sum(axis=1).tobytes()
    assert t.senders == tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)


def test_single_follower():
    t = build_topology(1, [(0, 1)])
    assert h_matrix(t) == np.array([[1.0]])
    assert t.senders == ((), (0,))
    assert t.in_degrees[1] == 1


def test_chain_h_triangular():
    t = build_topology(3, [(0, 1), (1, 2), (2, 3)])
    h = h_matrix(t)
    assert np.array_equal(np.diag(h), [1, 1, 1])
    assert np.array_equal(h, np.tril(h))


def test_leader_row_zero():
    t = build_topology(5, PAPER_EDGES)
    assert np.array_equal(graph_matrices(t)[1][0], np.zeros(6))


def test_laplacian_row_sums():
    # full-graph Laplacian annihilates the all-ones vector
    t = build_topology(5, PAPER_EDGES)
    assert np.allclose(graph_matrices(t)[1] @ np.ones(6), 0)


@pytest.mark.parametrize(
    "edges, msg",
    [
        ([(0, 7)], "outside"),
        ([(1, 1)], "self-edge"),
        ([(0, 1), (0, 1)], "duplicate"),
    ],
)
def test_build_rejects_bad_edges(edges, msg):
    with pytest.raises(ValidationError, match=msg):
        build_topology(5, edges)


def test_build_rejects_no_followers():
    with pytest.raises(ValidationError, match="^need at least one follower$"):
        build_topology(0, [])


CYCLE = "directed cycle among followers"


def refused_transform(t):
    """The refusal `build_transform` raises on the graph t, designed for as
    if t had no diagnostics."""
    leader = LeaderModel(S=np.eye(2), w0=[1, 0])
    design = design_compensator(leader, dataclasses.replace(t, diagnostics=()), 1.0)
    with pytest.raises(ValidationError) as info:
        build_transform(design, t, leader)
    return str(info.value)


class TestValidate:
    def test_paper_graph_passes(self):
        assert build_topology(5, PAPER_EDGES).diagnostics == ()

    def test_cycle_detected(self):
        assert CYCLE in build_topology(2, [(0, 1), (1, 2), (2, 1)]).diagnostics

    def test_unreachable_follower(self):
        t = build_topology(2, [(0, 1)])
        assert "followers unreachable from the leader: [2]" in t.diagnostics
        assert CYCLE not in t.diagnostics

    def test_leader_with_inbound_edge(self):
        assert "leader has incoming edges" in build_topology(1, [(0, 1), (1, 0)]).diagnostics

    def test_all_three_in_order(self):
        t = build_topology(4, [(0, 1), (1, 2), (2, 1), (3, 4), (4, 3), (2, 0)])
        assert t.diagnostics == (CYCLE, "followers unreachable from the leader: [3, 4]",
                                 "leader has incoming edges")


class TestTopologicalOrder:
    def test_paper_graph_identity_order(self):
        t = build_topology(5, PAPER_EDGES)
        assert t.order == (1, 2, 3, 4, 5)

    def test_single_follower(self):
        assert build_topology(1, [(0, 1)]).order == (1,)

    def test_reversed_listing_still_triangular(self):
        edges = list(reversed(PAPER_EDGES))
        t = build_topology(5, edges)
        perm = [i - 1 for i in t.order]
        h = h_matrix(t)[np.ix_(perm, perm)]
        assert np.array_equal(h, np.tril(h)) or np.array_equal(h, np.triu(h))
        assert np.array_equal(np.diag(h), t.in_degrees[1:][perm])

    def test_cycle_raises(self):
        t = build_topology(2, [(0, 1), (1, 2), (2, 1)])
        assert t.order is None
        assert refused_transform(t) == "graph has a directed cycle; no topological order"

    def test_order_agrees_with_validation(self):
        for edges in ([(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 1)]):
            t = build_topology(2, edges)
            if CYCLE not in t.diagnostics:
                assert t.order
            else:
                assert t.order is None and refused_transform(t)


def test_h_spectrum_is_in_degrees():
    t = build_topology(5, PAPER_EDGES)
    eigs = np.linalg.eigvals(h_matrix(t))
    assert np.allclose(np.sort(eigs.real), np.sort(t.in_degrees[1:]))
    assert np.abs(eigs.imag).max() < 1e-12


def test_follower_in_degrees_positive():
    t = build_topology(5, PAPER_EDGES)
    assert np.all(t.in_degrees[1:] > 0)


def sorted_list_kahn(t):
    """Kahn's algorithm as it was written with a list kept sorted: pop the
    lowest ready follower, re-sort when followers become ready."""
    n = t.n_followers
    indeg = {i: 0 for i in range(1, n + 1)}
    succ = {i: [] for i in range(1, n + 1)}
    for j, i in t.edges:
        if j >= 1 and i >= 1:
            indeg[i] += 1
            succ[j].append(i)
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        changed = False
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                changed = True
        if changed:
            ready.sort()
    return order if len(order) == n else None


@pytest.mark.parametrize("seed", range(8))
def test_heap_order_is_the_sorted_list_order(seed):
    # the lowest ready follower first, as before, on DAGs whose listing is
    # not in topological order
    n = 40
    t = random_dag(seed, n)
    perm = np.random.default_rng(seed).permutation(n) + 1
    relabel = {0: 0, **{i + 1: int(p) for i, p in enumerate(perm)}}
    shuffled = build_topology(n, [(relabel[j], relabel[i]) for j, i in t.edges])
    for graph in (t, shuffled):
        assert list(graph.order) == sorted_list_kahn(graph)
    j, i = next((j, i) for j, i in shuffled.edges if j > 0)
    cyclic = build_topology(n, list(shuffled.edges) + [(i, j)])  # a two-cycle
    assert cyclic.order is None and sorted_list_kahn(cyclic) is None


@pytest.mark.parametrize("verb", ["validate", "design", "learn", "simulate", "compare"])
def test_topological_order_once_per_verb(tmp_path, monkeypatch, capsys, verb):
    # the graph is built and checked once, as the scenario is loaded
    calls = {}

    def counting(name, original):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(topology, "_try_topological_order",
                        counting("order", topology._try_topological_order))
    monkeypatch.setattr(cli, "build_topology", counting("build", cli.build_topology))
    assert cli.main([verb, str(BUNDLED_SCENARIO), "--out", str(tmp_path)]) == 0
    assert calls == {"order": 1, "build": 1}
