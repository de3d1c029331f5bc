"""Partitioned graphs: vertex/edge partitions, cycles that alternate edge
parts, the derived digraph, and the cyclic/acyclic component census.

A cycle of a partitioned graph must have consecutive edges (including the
wrap-around pair) in different edge parts.  Detection goes through the
derived digraph whose nodes are (vertex, incident edge part) pairs: a
component is cyclic exactly when its digraph holds a dicycle, i.e. a
strongly connected component with at least two nodes (no self-arcs exist).
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import LinkGraphResult, LinkPartitions, partitioned_link_graph
from .links import iter_links
from .multigraph import Multigraph


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionedGraph:
    graph: Multigraph
    vertex_parts: tuple  # tuple of sorted vertex-id tuples
    edge_parts: tuple

    @staticmethod
    def singletons(g: Multigraph) -> "PartitionedGraph":
        return PartitionedGraph(
            g,
            tuple((v,) for v in range(g.n)),
            tuple((e,) for e in range(g.m)),
        )

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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    kind: str = ""
    detail: str = ""


def validate(pg: PartitionedGraph) -> ValidationReport:
    """Check the partition axioms; report the first violation found."""
    for label, parts, universe in (
        ("vertex", pg.vertex_parts, pg.graph.n),
        ("edge", pg.edge_parts, pg.graph.m),
    ):
        seen = set()
        for i, part in enumerate(parts):
            if not part:
                return ValidationReport(False, "empty part", f"{label} part {i}")
            for unit in part:
                if not 0 <= unit < universe:
                    return ValidationReport(
                        False, "unknown id", f"{label} id {unit} in part {i}"
                    )
                if unit in seen:
                    return ValidationReport(
                        False, "overlap", f"{label} id {unit} in two parts"
                    )
                seen.add(unit)
        if len(seen) != universe:
            missing = sorted(set(range(universe)) - seen)[0]
            return ValidationReport(False, "gap", f"{label} id {missing} uncovered")
    return ValidationReport(True)


@dataclass(frozen=True)
class DerivedDigraph:
    """Digraph on (vertex, edge part) pairs certifying partitioned cycles."""

    nodes: tuple  # (vertex id, edge part index), sorted
    arcs: tuple  # (node index, node index)

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def arc_count(self):
        return len(self.arcs)


def derived_digraph(pg: PartitionedGraph) -> DerivedDigraph:
    g = pg.graph
    owner = pg.edge_part_of()
    parts_at = [set() for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        parts_at[u].add(owner[e])
        parts_at[v].add(owner[e])
    nodes = sorted((v, p) for v in range(g.n) for p in parts_at[v])
    node_index = {node: i for i, node in enumerate(nodes)}
    arcs = set()
    for e, (u, v) in enumerate(g.edges):
        part = owner[e]
        for x, y in ((u, v), (v, u)):
            for other in parts_at[y]:
                if other != part:
                    arcs.add((node_index[(x, part)], node_index[(y, other)]))
    return DerivedDigraph(tuple(nodes), tuple(sorted(arcs)))


def _strong_components(node_count: int, out_arcs) -> list:
    """Node lists of the strongly connected components (iterative Tarjan)."""
    index = [-1] * node_count
    low = [0] * node_count
    on_stack = [False] * node_count
    stack = []
    components = []
    counter = 0
    for root in range(node_count):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = out_arcs[v]
            while pi < len(neighbors):
                w = neighbors[pi]
                pi += 1
                if index[w] < 0:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                components.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


@dataclass(frozen=True)
class ComponentCensus:
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
    report = validate(pg)
    if not report.ok:
        raise PartitionError(f"{report.kind}: {report.detail}")
    digraph = derived_digraph(pg)
    out_arcs = [[] for _ in digraph.nodes]
    for a, b in digraph.arcs:
        out_arcs[a].append(b)
    # no arc leaves a component, so a dicycle lies inside the component of
    # any vertex it touches
    on_dicycle = set()
    for members in _strong_components(len(digraph.nodes), out_arcs):
        if len(members) >= 2:
            on_dicycle.update(digraph.nodes[i][0] for i in members)
    flags = [
        any(v in on_dicycle for v in comp) for comp in pg.graph.components()
    ]

    dset = degree_set(pg)
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


def link_degree_sets(g: Multigraph, ell: int):
    """(D(E_ell), Delta(E_ell), D(G)) for the partitioned ell-link graph."""
    result, parts = partitioned_link_graph(g, ell)
    dset = degree_set(PartitionedGraph.from_link_graph(result, parts))
    return dset, max(dset, default=0), graph_degree_set(g)


def parts_per_vertex(pg: PartitionedGraph) -> int:
    """r(E): the maximum number of edge parts meeting a single vertex."""
    owner = pg.edge_part_of()
    at = [set() for _ in range(pg.graph.n)]
    for e, (u, v) in enumerate(pg.graph.edges):
        at[u].add(owner[e])
        at[v].add(owner[e])
    return max((len(s) for s in at), default=0)


def partitioned_links(pg: PartitionedGraph, s: int):
    """All s-links of the partitioned graph: consecutive edges must lie in
    different edge parts.  Returned as canonical interleaved tuples."""
    return set(iter_links(pg.graph, s, owner=pg.edge_part_of()))
