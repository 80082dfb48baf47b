import numpy as np
import pytest

from networks import graph_matrices, h_matrix
from paper_tables import LAPLACIAN
from syncopt.errors import ValidationError
from syncopt.numkernel import spectrum
from syncopt.topology import build_topology, topological_order, validate_topology

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


class TestValidate:
    def test_paper_graph_passes(self):
        report = validate_topology(build_topology(5, PAPER_EDGES))
        assert report.passed

    def test_cycle_detected(self):
        report = validate_topology(build_topology(2, [(0, 1), (1, 2), (2, 1)]))
        assert not report.acyclic

    def test_unreachable_follower(self):
        report = validate_topology(build_topology(2, [(0, 1)]))
        assert not report.rooted
        assert report.acyclic

    def test_leader_with_inbound_edge(self):
        report = validate_topology(build_topology(1, [(0, 1), (1, 0)]))
        assert not report.leader_isolated


class TestTopologicalOrder:
    def test_paper_graph_identity_order(self):
        t = build_topology(5, PAPER_EDGES)
        assert topological_order(t) == [1, 2, 3, 4, 5]

    def test_single_follower(self):
        assert topological_order(build_topology(1, [(0, 1)])) == [1]

    def test_reversed_listing_still_triangular(self):
        edges = list(reversed(PAPER_EDGES))
        t = build_topology(5, edges)
        order = topological_order(t)
        perm = [i - 1 for i in order]
        h = h_matrix(t)[np.ix_(perm, perm)]
        assert np.array_equal(h, np.tril(h)) or np.array_equal(h, np.triu(h))
        assert np.array_equal(np.diag(h), t.in_degrees[1:][perm])

    def test_cycle_raises(self):
        t = build_topology(2, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(ValidationError):
            topological_order(t)

    def test_order_agrees_with_validation(self):
        for edges in ([(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 1)]):
            t = build_topology(2, edges)
            report = validate_topology(t)
            if report.acyclic:
                assert topological_order(t)
            else:
                with pytest.raises(ValidationError):
                    topological_order(t)


def test_h_spectrum_is_in_degrees():
    t = build_topology(5, PAPER_EDGES)
    eigs = np.sort(spectrum(h_matrix(t)).values.real)
    assert np.allclose(eigs, np.sort(t.in_degrees[1:]))
    assert np.abs(spectrum(h_matrix(t)).values.imag).max() < 1e-12


def test_follower_in_degrees_positive():
    t = build_topology(5, PAPER_EDGES)
    assert np.all(t.in_degrees[1:] > 0)
