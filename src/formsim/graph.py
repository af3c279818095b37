"""Coordination graph: a spanning tree rooted at the primary leader.

Vertices are numbered 1..n and vertex 1 is always the root (the primary
leader). Edges are oriented parent-first, with the parent the endpoint
closer to the root; the per-edge coordination error is defined as
e_parent - e_child in that orientation. Validation reorders edges
topologically from the root so that downstream consumers (error stacking,
coupling matrix columns, the leaves-first Gram factor) can rely on parents
appearing before their children.
"""

import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphError",
    "CycleError",
    "DisconnectedError",
    "SpanningTree",
    "validate_spanning_tree",
]


class GraphError(ValueError):
    """Base class for coordination-graph validation failures."""


class CycleError(GraphError):
    """An edge set with a repeated child, a self loop, or a back edge."""


class DisconnectedError(GraphError):
    """Some vertex is unreachable from the root."""


@dataclass(frozen=True)
class SpanningTree:
    """Validated rooted spanning tree on vertices 1..n.

    ``edges`` are (parent, child) pairs in topological order from the
    root. ``is_chain`` is true iff the edges are exactly (k, k+1) for
    k = 1..n-1, the trees on which ``formsim check`` also runs the chain
    pivot certificate.
    """

    n: int
    edges: tuple = field(default_factory=tuple)

    @property
    def is_chain(self):
        return self.edges == tuple((k, k + 1) for k in range(1, self.n))

    def edge_array(self):
        """Edges as an (n-1, 2) int array of 0-based vertex indices."""
        return np.array(self.edges, dtype=np.int64).reshape(-1, 2) - 1


def _vertex(v, i, j):
    """Endpoint ``v`` of the edge (i, j) as an int. GraphError unless it
    is a finite whole number; a bool is not one."""
    if type(v) is int:
        return v
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or not float(v).is_integer()):
        raise GraphError(f"edge ({i!r}, {j!r}): endpoint {v!r} is not a "
                         f"whole number")
    return int(v)


def validate_spanning_tree(n, edges):
    """Check and normalize an oriented edge list into a SpanningTree.

    Every fault raises a GraphError: CycleError for repeated children,
    self loops, or any edge pointing back at the root; DisconnectedError
    when a vertex cannot be reached from vertex 1; GraphError itself for
    n < 1, an endpoint that is not a finite whole number (a bool, a
    string, 2.7 or nan), or one outside 1..n. An edge set that passes is a
    spanning tree: once every vertex is reached, every edge has been
    taken, and as the children are distinct and none is the root, there
    are n - 1.

    The edges come back in the order of repeated sweeps over the input
    list, each taking, in list order, every edge whose parent is already
    reached. That order is built in one pass: an edge from the root is in
    sweep 0, and any other edge is in its parent edge's sweep when listed
    after that edge, in the next sweep otherwise; the edges are then
    sorted by (sweep, position in the list).
    """
    if n < 1:
        raise GraphError(f"need at least one vertex, got n={n}")
    edges = [(_vertex(i, i, j), _vertex(j, i, j)) for i, j in edges]
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphError(f"edge ({i}, {j}) outside vertex range 1..{n}")

    children = [j for _, j in edges]
    if any(i == j for i, j in edges):
        raise CycleError("self loop in edge set")
    if 1 in children:
        raise CycleError("root vertex 1 appears as a child")
    if len(set(children)) != len(children):
        dup = min(j for j, c in Counter(children).items() if c > 1)
        raise CycleError(f"vertex {dup} has more than one parent")

    # each edge's sweep, walked from the root: a vertex on a cycle is
    # never reached
    by_parent = {}
    for k, (i, _) in enumerate(edges):
        by_parent.setdefault(i, []).append(k)
    sweep, stack = {}, [(1, 0, -1)]     # vertex, its edge's sweep, position
    while stack:
        i, s, at = stack.pop()
        for k in by_parent.get(i, ()):
            sweep[k] = s + (k < at)
            stack.append((edges[k][1], sweep[k], k))
    reached = {1, *(edges[k][1] for k in sweep)}
    unreachable = set(range(1, n + 1)) - reached
    if unreachable:
        raise DisconnectedError(
            f"vertices {sorted(unreachable)} unreachable from the root"
        )
    ordered = sorted(sweep, key=lambda k: (sweep[k], k))
    return SpanningTree(n=n, edges=tuple(edges[k] for k in ordered))
