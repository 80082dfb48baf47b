"""Directed communication graph over a leader (node 0) and N followers.

Keeps the graph as its edge list, with the in-degrees, each node's
senders and the followers' topological order, and checks its structure
once, as it is built: no directed loop among the followers, every follower
reachable from the leader, and no edge into the leader. Edge weights are
unit only.
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
    in_degrees: np.ndarray  # d_i per node, leader included (d_0 > 0 is a diagnostic)
    senders: tuple  # per node i, the nodes j of its edges j -> i, ascending
    order: tuple | None  # followers in topological order, None if there is a directed cycle
    diagnostics: tuple  # the structural defects found, in the order above; empty for a valid graph


def build_topology(n_followers: int, edges) -> Topology:
    """Construct the graph, its in-degrees, senders and topological order
    from an edge list, and check its structure.

    Edges are ordered pairs (j, i) meaning agent i receives from agent j;
    node 0 is the leader. An edge that is not a pair of integers, a
    duplicate edge and a self-edge are rejected. A directed cycle among the
    followers, a follower the leader does not reach and an edge into the
    leader are reported, in that order, in `diagnostics`.
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
    senders, receivers = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    for j, i in edges:  # ascending j per receiver
        senders[i].append(j)
        receivers[j].append(i)
    order = _try_topological_order(n, edges)
    diagnostics = [] if order is not None else ["directed cycle among followers"]
    reached, frontier = {0}, [0]  # depth-first from the leader over the whole graph
    while frontier:
        for nxt in receivers[frontier.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    if len(reached) <= n:
        diagnostics.append(f"followers unreachable from the leader: {sorted(set(range(1, n + 1)) - reached)}")
    if senders[0]:
        diagnostics.append("leader has incoming edges")
    return Topology(n_followers=n, edges=edges, in_degrees=np.array([len(s) for s in senders], dtype=float),
                    senders=tuple(map(tuple, senders)), order=order, diagnostics=tuple(diagnostics))


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
