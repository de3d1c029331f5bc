"""Partitioned graphs: vertex/edge partitions, cycles that alternate edge
parts, and the cyclic/acyclic component census.

A ``PartitionedGraph`` checks the partition axioms when it is built and
raises ``PartitionError`` on the first violation, so every function here
can trust its parts.

A cycle of a partitioned graph must have consecutive edges (including the
wrap-around pair) in different edge parts.  Detection goes through the
derived digraph whose nodes are (vertex, incident edge part) pairs: each
edge xy of part p gives arcs from (x, p) to every (y, q) with q != p, so a
component is cyclic exactly when its digraph holds a dicycle.  The census
peels the digraph, removing nodes of in-degree 0 until none is left (Kahn,
CACM 1962); a node survives exactly when some dicycle reaches it.  A node
no dicycle reaches has only acyclic ancestors, so it is removed; a node on
or after a dicycle always keeps an in-arc from a node that was not removed.
No arc leaves a component, so a component is cyclic exactly when a node of
one of its vertices survives.

The census peels without building the digraph's arc list.  Node (y, q)
holds the far ends of the q-edges at y, and its arcs are implicit: one
into (y, q) for every edge at y outside part q, so its in-degree is
deg(y) - deg_q(y), parallel arcs counted.  Parallel arcs do not change
which nodes a peel removes, since every arc is taken off once for each
time it was counted.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import LinkGraphResult, LinkPartitions
from .links import iter_links
from .multigraph import Multigraph


class PartitionError(ValueError):
    pass


class PartitionedGraph:
    """A multigraph with a partition of its vertices and one of its edges.

    Building one checks, vertices first and then edges, that no part is
    empty, every id names a unit of the graph, no id lies in two parts and
    every unit lies in some part; the first violation raises
    ``PartitionError``.
    """

    def __init__(self, graph: Multigraph, vertex_parts: tuple, edge_parts: tuple):
        self.graph = graph
        self.vertex_parts = vertex_parts  # tuple of sorted vertex-id tuples
        self.edge_parts = edge_parts
        for label, parts, universe in (
            ("vertex", self.vertex_parts, self.graph.n),
            ("edge", self.edge_parts, self.graph.m),
        ):
            seen = set()
            for i, part in enumerate(parts):
                if not part:
                    raise PartitionError(f"empty part: {label} part {i}")
                for unit in part:
                    if not 0 <= unit < universe:
                        raise PartitionError(
                            f"unknown id: {label} id {unit} in part {i}"
                        )
                    if unit in seen:
                        raise PartitionError(
                            f"overlap: {label} id {unit} in two parts"
                        )
                    seen.add(unit)
            if len(seen) != universe:
                missing = sorted(set(range(universe)) - seen)[0]
                raise PartitionError(f"gap: {label} id {missing} uncovered")

    @staticmethod
    def from_link_graph(
        result: LinkGraphResult, partitions: LinkPartitions
    ) -> "PartitionedGraph":
        return PartitionedGraph(
            result.graph, partitions.vertex_parts, partitions.edge_parts
        )

    def edge_part_of(self):
        """Array mapping edge id -> index of its part."""
        owner = [-1] * self.graph.m
        for i, part in enumerate(self.edge_parts):
            for e in part:
                owner[e] = i
        return owner


class ComponentCensus(NamedTuple):
    """Per-component cyclic flags plus o/a counts and part degree data."""

    cyclic_flags: tuple  # ordered by smallest vertex id of the component
    cyclic_count: int
    acyclic_count: int
    degree_set: frozenset  # D(E): positive per-part degrees
    max_part_degree: int  # Delta(E)

    @property
    def component_count(self):
        return len(self.cyclic_flags)


def count_cyclic_components(pg: PartitionedGraph) -> ComponentCensus:
    g = pg.graph
    owner = pg.edge_part_of()
    node_at = [{} for _ in range(g.n)]  # per vertex: edge part -> node id
    vertex, part, ends = [], [], []  # per node
    for e, (u, v) in enumerate(g.edges):
        p = owner[e]
        for x, y in ((u, v), (v, u)):
            node = node_at[x].get(p)
            if node is None:
                node = node_at[x][p] = len(ends)
                vertex.append(x)
                part.append(p)
                ends.append([])
            ends[node].append(y)
    degree = g.degrees()
    indegree = [degree[x] - len(far) for x, far in zip(vertex, ends)]
    removed = [i for i, d in enumerate(indegree) if d == 0]
    for a in removed:
        p = part[a]
        for y in ends[a]:
            for q, b in node_at[y].items():
                if q != p:
                    indegree[b] -= 1
                    if indegree[b] == 0:
                        removed.append(b)
    # nodes never removed keep a positive in-degree
    survivors = {vertex[i] for i, d in enumerate(indegree) if d}
    flags = [any(v in survivors for v in comp) for comp in g.components()]

    dset = frozenset(map(len, ends))
    return ComponentCensus(
        cyclic_flags=tuple(flags),
        cyclic_count=sum(flags),
        acyclic_count=len(flags) - sum(flags),
        degree_set=dset,
        max_part_degree=max(dset, default=0),
    )


def degree_set(pg: PartitionedGraph) -> frozenset:
    """D(E): the set of positive degrees of vertices inside single edge parts."""
    degrees = set()
    for part in pg.edge_parts:
        local = {}
        for e in part:
            u, v = pg.graph.edges[e]
            local[u] = local.get(u, 0) + 1
            local[v] = local.get(v, 0) + 1
        degrees.update(local.values())
    degrees.discard(0)
    return frozenset(degrees)


def graph_degree_set(g: Multigraph) -> frozenset:
    """D(G) = {deg(v) - 1 : deg(v) >= 2}."""
    return frozenset(d - 1 for d in g.degrees() if d >= 2)


def partitioned_links(pg: PartitionedGraph, s: int):
    """All s-links of the partitioned graph: consecutive edges must lie in
    different edge parts.  Returned as canonical interleaved tuples."""
    return set(iter_links(pg.graph, s, owner=pg.edge_part_of()))
