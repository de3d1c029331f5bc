"""Finite loopless multigraphs with positional edge identity.

Edges are stored as an ordered list of unordered endpoint pairs; the edge id
is the position in that list, so parallel edges are distinct first-class
objects.  Vertex ids are dense, 0..n-1.  All structures are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

INFINITE = math.inf


class MultigraphError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    """A result failed a check that the theory guarantees: a program fault,
    not bad input.  Raised explicitly so that ``python -O`` keeps it."""


def _check(condition: bool, message: str):
    if not condition:
        raise InternalCheckError(message)


class Multigraph:
    """A finite loopless undirected multigraph."""

    __slots__ = ("n", "edges", "_adj", "_hash")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise MultigraphError("vertex count must be non-negative")
        normalized = []
        for u, v in edges:
            if u == v:
                raise MultigraphError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise MultigraphError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            normalized.append((u, v) if u < v else (v, u))
        self._build(n, tuple(normalized))

    @classmethod
    def _trusted(cls, n: int, edges: tuple) -> "Multigraph":
        """The graph on edges already valid and normalised: pairs u < v of
        vertices below n.  Nothing is checked."""
        g = object.__new__(cls)
        g._build(n, edges)
        return g

    def _build(self, n: int, edges: tuple):
        self.n = n
        self.edges = edges
        adj = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        self._adj = tuple(map(tuple, adj))
        self._hash = hash((n, edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self):
        """Per-vertex tuple of (edge id, other endpoint) pairs."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self):
        return tuple(len(a) for a in self._adj)

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def multiplicity(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return sum(1 for e in self.edges if e == key)

    def has_parallel_edges(self) -> bool:
        return len(set(self.edges)) < len(self.edges)

    def add_edge(self, u: int, v: int) -> "Multigraph":
        """New graph with one extra edge appended (vertices grown as needed).

        Only the new edge is checked; the parent's edges and adjacency are
        extended, not rebuilt.
        """
        n = max(self.n, u + 1, v + 1)
        if u == v:
            raise MultigraphError(f"loop at vertex {u} not allowed")
        if u < 0 or v < 0:
            raise MultigraphError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if v < u:
            u, v = v, u
        eid = len(self.edges)
        adj = list(self._adj)
        adj.extend(() for _ in range(n - self.n))
        adj[u] += ((eid, v),)
        adj[v] += ((eid, u),)
        child = object.__new__(Multigraph)
        child.n = n
        child.edges = self.edges + ((u, v),)
        child._adj = tuple(adj)
        child._hash = hash((n, child.edges))
        return child

    def delete_edge(self, eid: int) -> "Multigraph":
        """New graph without edge ``eid``; vertex set unchanged, edge ids shift."""
        return Multigraph(self.n, self.edges[:eid] + self.edges[eid + 1:])

    def induced_on(self, vertices, edge_ids=None) -> "Multigraph":
        """Subgraph induced by a vertex set (and optionally only some edges).

        Vertices are relabeled densely in increasing original order.
        """
        keep = sorted(set(vertices))
        remap = {v: i for i, v in enumerate(keep)}
        kept_edges = []
        for eid, (u, v) in enumerate(self.edges):
            if u in remap and v in remap and (edge_ids is None or eid in edge_ids):
                kept_edges.append((remap[u], remap[v]))
        return Multigraph(len(keep), kept_edges)

    def relabel(self, mapping) -> "Multigraph":
        """New graph with vertex v renamed to mapping[v] (a bijection)."""
        return Multigraph(self.n, [(mapping[u], mapping[v]) for u, v in self.edges])

    def drop_isolated(self) -> "Multigraph":
        return self.induced_on([v for v in range(self.n) if self._adj[v]])

    def disjoint_union(self, other: "Multigraph") -> "Multigraph":
        shifted = [(u + self.n, v + self.n) for u, v in other.edges]
        return Multigraph(self.n + other.n, list(self.edges) + shifted)

    def components(self):
        """Vertex sets of connected components, each sorted, ordered by minimum."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for _, w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def component_of(self, v: int):
        stack = [v]
        seen = {v}
        while stack:
            x = stack.pop()
            for _, w in self._adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return sorted(seen)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_acyclic(self) -> bool:
        # A graph is a forest iff m = n - c.
        return self.m == self.n - len(self.components())

    def is_tree(self) -> bool:
        return self.n >= 1 and self.m == self.n - 1 and self.is_connected()

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={list(self.edges)})"


class GraphMetrics(NamedTuple):
    """Distance and component statistics; INFINITE marks unbounded values."""

    eccentricity: tuple
    diameter: float
    radius: float
    girth: float
    component_count: int
    cyclic_component_count: int
    acyclic_component_count: int


class TreeSplit(NamedTuple):
    """The two sides of a tree at an edge e with distinguished end u.

    ``component_*`` is the component of T - e containing u; ``rest_*`` is the
    other component.
    """

    edge: int
    anchor: int
    component_vertices: frozenset
    component_edges: frozenset
    rest_vertices: frozenset
    rest_edges: frozenset


def _bfs_distances(g: Multigraph, start: int):
    dist = [-1] * g.n
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            d = dist[v] + 1
            for _, w in g.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _girth(g: Multigraph) -> float:
    if g.has_parallel_edges():
        return 2
    best = INFINITE
    for root in range(g.n):
        dist = [-1] * g.n
        parent_edge = [-1] * g.n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                if dist[v] * 2 >= best - 1:
                    continue
                for eid, w in g.adjacency[v]:
                    if eid == parent_edge[v]:
                        continue
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        parent_edge[w] = eid
                        nxt.append(w)
                    else:
                        # non-tree edge closes a cycle through the BFS tree
                        best = min(best, dist[v] + dist[w] + 1)
            frontier = nxt
    return best


def component_census(g: Multigraph):
    """(component count, cyclic component count) of g; a component is
    cyclic when it has at least as many edges as vertices."""
    comps = g.components()
    comp_of = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    surplus = [-len(comp) for comp in comps]  # edges minus vertices
    for u, _v in g.edges:
        surplus[comp_of[u]] += 1
    return len(comps), sum(1 for s in surplus if s >= 0)


def metrics(g: Multigraph) -> GraphMetrics:
    """Eccentricities, diameter, radius, girth and component census of g."""
    c, o = component_census(g)
    a = c - o

    if c == 1 and g.n > 0:
        ecc = []
        for v in range(g.n):
            ecc.append(max(_bfs_distances(g, v)))
        diameter: float = max(ecc)
        radius: float = min(ecc)
        ecc_t = tuple(ecc)
    else:
        # Any second component puts every vertex at infinite eccentricity.
        ecc_t = tuple([INFINITE] * g.n)
        diameter = INFINITE if g.n else 0
        radius = INFINITE
    return GraphMetrics(
        eccentricity=ecc_t,
        diameter=diameter,
        radius=radius,
        girth=_girth(g),
        component_count=c,
        cyclic_component_count=o,
        acyclic_component_count=a,
    )


def subdivision(g: Multigraph, s: int) -> Multigraph:
    """Replace every edge with an s-path (s >= 1); original vertices keep ids."""
    if s < 1:
        raise MultigraphError("subdivision factor must be >= 1")
    if s == 1:
        return Multigraph(g.n, g.edges)
    edges = []
    next_vertex = g.n
    for u, v in g.edges:
        chain = [u] + list(range(next_vertex, next_vertex + s - 1)) + [v]
        next_vertex += s - 1
        edges.extend((chain[i], chain[i + 1]) for i in range(s))
    return Multigraph(next_vertex, edges)


def tree_split(t: Multigraph, eid: int, u: int) -> TreeSplit:
    """Split a tree at edge ``eid`` from the side of its end ``u``."""
    if not t.is_tree():
        raise MultigraphError("tree_split requires a tree")
    a, b = t.edges[eid]
    if u == a:
        v = b
    elif u == b:
        v = a
    else:
        raise MultigraphError(f"edge {eid} is not incident to vertex {u}")
    near = set()
    stack = [u]
    near.add(u)
    while stack:
        x = stack.pop()
        for e2, w in t.adjacency[x]:
            if e2 == eid or w in near:
                continue
            near.add(w)
            stack.append(w)
    far = set(range(t.n)) - near
    near_edges = frozenset(
        e for e, (x, y) in enumerate(t.edges) if x in near and y in near
    )
    far_edges = frozenset(range(t.m)) - near_edges - {eid}
    return TreeSplit(
        edge=eid,
        anchor=u,
        component_vertices=frozenset(near),
        component_edges=near_edges,
        rest_vertices=frozenset(far),
        rest_edges=far_edges,
    )
