"""Directed communication graph over a leader (node 0) and N followers.

Keeps the graph as its edge list, with the in-degrees, each node's
senders and the followers' topological order, and checks the structural
requirements: no directed loop, a spanning tree rooted at the leader, and
an isolated leader row. Edge weights are unit only.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Topology:
    n_followers: int
    edges: tuple  # ordered pairs (j, i): follower/leader j feeds agent i
    in_degrees: np.ndarray  # d_i per node, leader included (d_0 = 0 enforced later)
    senders: tuple  # per node i, the nodes j of its edges j -> i, ascending
    order: tuple | None  # followers in topological order, None if there is a directed cycle


@dataclass(frozen=True)
class ValidationReport:
    acyclic: bool
    rooted: bool
    leader_isolated: bool
    diagnostics: tuple

    @property
    def passed(self) -> bool:
        return self.acyclic and self.rooted and self.leader_isolated


def build_topology(n_followers: int, edges) -> Topology:
    """Construct the graph, its in-degrees, senders and topological order
    from an edge list.

    Edges are ordered pairs (j, i) meaning agent i receives from agent j;
    node 0 is the leader. An edge that is not a pair of integers, a
    duplicate edge and a self-edge are rejected.
    """
    n = int(n_followers)
    if n < 1:
        raise ValidationError("need at least one follower")
    seen = set()
    for e in edges:
        try:
            j, i = map(operator.index, e)
        except (TypeError, ValueError):
            raise ValidationError(f"edge {e!r} is not a pair of integers") from None
        if not (0 <= j <= n and 0 <= i <= n):
            raise ValidationError(f"edge ({j},{i}) references a node outside 0..{n}")
        if j == i:
            raise ValidationError(f"self-edge on node {i}")
        if (j, i) in seen:
            raise ValidationError(f"duplicate edge ({j},{i})")
        seen.add((j, i))

    edges = tuple(sorted(seen))
    senders = [[] for _ in range(n + 1)]
    for j, i in edges:  # ascending j per receiver
        senders[i].append(j)
    deg = np.array([len(s) for s in senders], dtype=float)
    return Topology(n_followers=n, edges=edges, in_degrees=deg,
                    senders=tuple(map(tuple, senders)), order=_try_topological_order(n, edges))


def validate_topology(t: Topology) -> ValidationReport:
    """Check acyclicity, leader-rooted reachability, and leader isolation."""
    n = t.n_followers
    diagnostics = []

    acyclic = t.order is not None
    if not acyclic:
        diagnostics.append("directed cycle among followers")

    # BFS from the leader over the full graph
    reached = {0}
    frontier = [0]
    succ = [[] for _ in range(n + 1)]
    for j, i in t.edges:
        succ[j].append(i)
    while frontier:
        node = frontier.pop()
        for nxt in succ[node]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    unreached = sorted(set(range(1, n + 1)) - reached)
    rooted = not unreached
    if unreached:
        diagnostics.append(f"followers unreachable from the leader: {unreached}")

    leader_isolated = bool(t.in_degrees[0] == 0)
    if not leader_isolated:
        diagnostics.append("leader has incoming edges")

    return ValidationReport(
        acyclic=acyclic,
        rooted=rooted,
        leader_isolated=leader_isolated,
        diagnostics=tuple(diagnostics),
    )


def topological_order(t: Topology) -> list[int]:
    """Follower permutation in which every edge points forward.

    Every follower comes after all of its senders. Ties break on the lowest
    original index for reproducibility.
    """
    if t.order is None:
        raise ValidationError("graph has a directed cycle; no topological order")
    return list(t.order)


def _try_topological_order(n: int, edges) -> tuple | None:
    """Kahn's algorithm over the followers 1..n (leader edges only reduce
    in-degree), taking the lowest ready follower first; None if there is a
    directed cycle."""
    indeg = [0] * (n + 1)
    succ = [[] for _ in range(n + 1)]
    for j, i in edges:
        if j >= 1 and i >= 1:
            indeg[i] += 1
            succ[j].append(i)
    ready = [i for i in range(1, n + 1) if indeg[i] == 0]  # ascending: a heap
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    return tuple(order) if len(order) == n else None
