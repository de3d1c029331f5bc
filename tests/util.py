"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (plain recursive
walk enumeration, definition-level incidence, one-unit deletions) so the
library paths under test never feed their own answers back in.
"""

from __future__ import annotations

import heapq
import random
from typing import NamedTuple

from linkgraph.canon import canonical_form
from linkgraph.families import random_multigraph
from linkgraph.links import count_arcs_by_length
from linkgraph.multigraph import Multigraph
from linkgraph.partition import PartitionedGraph


def null_graph() -> Multigraph:
    return Multigraph(0)


def double_star(p: int, q: int) -> Multigraph:
    """Centres of K_{1,p} and K_{1,q} joined by an edge."""
    edges = [(0, 1)]
    nxt = 2
    for _ in range(p):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(q):
        edges.append((1, nxt))
        nxt += 1
    return Multigraph(nxt, edges)


def bond(mu: int) -> Multigraph:
    """Two vertices joined by mu parallel edges."""
    return Multigraph(2, [(0, 1)] * mu)


def singletons(g: Multigraph) -> PartitionedGraph:
    return PartitionedGraph(
        g,
        tuple((v,) for v in range(g.n)),
        tuple((e,) for e in range(g.m)),
    )


def brute_force_arcs(g: Multigraph, ell: int):
    """Every ell-arc as an interleaved tuple, by naive recursion."""
    out = []

    def grow(seq):
        if len(seq) == 2 * ell + 1:
            out.append(seq)
            return
        v = seq[-1]
        for eid, (a, b) in enumerate(g.edges):
            if len(seq) > 1 and seq[-2] == eid:
                continue
            if a == v:
                grow(seq + (eid, b))
            elif b == v:
                grow(seq + (eid, a))

    for v in range(g.n):
        grow((v,))
    return out


def brute_force_links(g: Multigraph, ell: int):
    """Canonical sequences of all ell-links."""
    return {min(seq, seq[::-1]) for seq in brute_force_arcs(g, ell)}


def brute_force_paths(g: Multigraph, ell: int):
    return {
        seq
        for seq in brute_force_links(g, ell)
        if len(set(seq[0::2])) == ell + 1
    }


def brute_force_path_pairs(g: Multigraph, ell: int):
    """Edges of the ell-path graph as canonical sequence pairs: every
    (ell + 1)-link that is a path or a cycle joins its end ell-subsequences."""
    pairs = set()
    for seq in brute_force_links(g, ell + 1):
        verts = seq[0::2]
        distinct = len(set(verts))
        if distinct == ell + 2 or (verts[0] == verts[-1] and distinct == ell + 1):
            head = min(seq[:-2], seq[-3::-1])
            tail = min(seq[2:], seq[:1:-1])
            pairs.add((min(head, tail), max(head, tail)))
    return pairs


def brute_force_partitioned_links(pg, s: int):
    """Canonical sequences of the s-links of a partitioned graph: walks whose
    consecutive edges lie in different edge parts, by naive recursion."""
    g = pg.graph
    part = {e: i for i, members in enumerate(pg.edge_parts) for e in members}
    out = set()

    def grow(seq):
        if len(seq) == 2 * s + 1:
            out.add(min(seq, seq[::-1]))
            return
        v = seq[-1]
        for eid, (a, b) in enumerate(g.edges):
            if len(seq) > 1 and part[seq[-2]] == part[eid]:
                continue
            if a == v:
                grow(seq + (eid, b))
            elif b == v:
                grow(seq + (eid, a))

    for v in range(g.n):
        grow((v,))
    return out


def brute_force_cyclic_flags(pg):
    """Per component of a partitioned graph, ordered by smallest vertex,
    whether it holds a closed walk whose consecutive edges, the wrap-around
    pair too, lie in different edge parts.  Walks are stepped as directed
    edges (edge id, head); there are 2m of them, so a walk of 2m + 1 edges
    repeats one and closes such a walk, and a closed one can be walked for
    ever."""
    g = pg.graph
    part = {e: i for i, members in enumerate(pg.edge_parts) for e in members}
    ends = {(e, head) for e, edge in enumerate(g.edges) for head in edge}
    for _ in range(2 * g.m):
        ends = {
            (f, w)
            for e, head in ends
            for f, w in g.adjacency[head]
            if part[f] != part[e]
        }
    heads = {head for _, head in ends}
    return tuple(any(v in heads for v in comp) for comp in g.components())


class DerivedDigraph(NamedTuple):
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
    parts_at = [set() for _ in range(g.n)]  # per vertex, the edge parts meeting it
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


def kahn_cyclic_flags(pg):
    """Per component of a partitioned graph, ordered by smallest vertex,
    whether a node of one of its vertices survives Kahn's peel of the arc
    list that ``derived_digraph`` builds: nodes of in-degree 0 are removed
    until none is left."""
    digraph = derived_digraph(pg)
    out_arcs = [[] for _ in digraph.nodes]
    indegree = [0] * len(digraph.nodes)
    for a, b in digraph.arcs:
        out_arcs[a].append(b)
        indegree[b] += 1
    removed = [i for i, d in enumerate(indegree) if d == 0]
    for a in removed:
        for b in out_arcs[a]:
            indegree[b] -= 1
            if indegree[b] == 0:
                removed.append(b)
    survivors = {digraph.nodes[i][0] for i, d in enumerate(indegree) if d}
    return tuple(
        any(v in survivors for v in comp) for comp in pg.graph.components()
    )


def brute_force_vertex_orbits(g: Multigraph):
    """Vertex orbits under the automorphism group, as sorted lists: two
    vertices share one iff colouring either alone gives the same form."""
    keys = {}
    for v in range(g.n):
        colors = [0] * g.n
        colors[v] = 1
        keys.setdefault(canonical_form(g, colors).data, []).append(v)
    return sorted(keys.values(), key=lambda orbit: orbit[0])


def full_round_refinement(g: Multigraph, colors):
    """Stable colour refinement that re-signs every vertex each round:
    colors maps vertex -> int, and the result maps each vertex to the rank
    of its (colour, sorted (neighbour colour, multiplicity)) signature."""
    weights = [{} for _ in range(g.n)]
    for u, v in g.edges:
        weights[u][v] = weights[u].get(v, 0) + 1
        weights[v][u] = weights[v].get(u, 0) + 1
    while True:
        sigs = {
            v: (colors[v], tuple(sorted((colors[u], w) for u, w in weights[v].items())))
            for v in range(g.n)
        }
        ranking = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {v: ranking[sigs[v]] for v in range(g.n)}
        if new == colors:
            return colors
        colors = new


def brute_force_incident_units(g: Multigraph, ell: int):
    """(vertex set, edge set) of units incident to at least one ell-link.

    Incidence is symmetric (one sequence inside the other), so at ell = 0
    every edge is incident through its end 0-links.
    """
    if ell == 0:
        return set(range(g.n)), set(range(g.m))
    vertices, edges = set(), set()
    for seq in brute_force_links(g, ell):
        vertices.update(seq[0::2])
        edges.update(seq[1::2])
    return vertices, edges


def delete_unit(g: Multigraph, kind: str, unit: int) -> Multigraph:
    """One-unit-deleted subgraph, vertices relabeled densely."""
    if kind == "edge":
        return Multigraph(g.n, g.edges[:unit] + g.edges[unit + 1:])
    keep = [v for v in range(g.n) if v != unit]
    return g.induced_on(keep)


def legal_deletions(g: Multigraph):
    """The edges of a connected g with at least two edges whose deletion,
    with an end it leaves isolated, leaves a connected graph: each one
    deleted and the rest checked."""
    legal = []
    for e in range(g.m):
        rest = delete_unit(g, "edge", e)
        if rest.induced_on(v for v in range(rest.n) if rest.degree(v)).is_connected():
            legal.append(e)
    return legal


def parts_per_vertex(pg) -> int:
    """r(E): the most edge parts meeting one vertex of a partitioned graph."""
    owner = pg.edge_part_of()
    at = [set() for _ in range(pg.graph.n)]
    for e, (u, v) in enumerate(pg.graph.edges):
        at[u].add(owner[e])
        at[v].add(owner[e])
    return max((len(parts) for parts in at), default=0)


def exhaustive_multigraphs(max_n: int, max_m: int):
    """One representative per isomorphism class, no isolated vertices.

    Level-wise growth with global certificate dedupe; no search prunes.
    """
    level = [Multigraph(0)]
    yield Multigraph(0)
    for _ in range(max_m):
        nxt = {}
        for g in level:
            augmentations = [
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            ]
            if g.n < max_n:
                augmentations += [(u, g.n) for u in range(g.n)]
            if g.n + 2 <= max_n:
                augmentations.append((g.n, g.n + 1))
            for u, v in augmentations:
                child = g.add_edge(u, v)
                cert = canonical_form(child).data
                if cert not in nxt:
                    nxt[cert] = child
        level = [nxt[key] for key in sorted(nxt)]
        yield from level


def random_graph_corpus(seed: int, count: int, max_n: int, max_m: int):
    """Deterministic corpus of random multigraphs (parallel edges allowed)."""
    rng = random.Random(seed)
    return [random_multigraph(rng, max_n, max_m) for _ in range(count)]


def acceptance_corpus(seed=20260809, count=200, max_n=8, max_m=12):
    """The shared acceptance corpus: random multigraphs, parallel edges
    allowed, resampled when walk spaces leave desk scale so every criterion
    runs on the full corpus without skips."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        g = random_multigraph(rng, max_n, max_m)
        counts = count_arcs_by_length(g, 7)
        if counts[5] // 2 > 3000 or counts[7] // 2 > 15000:
            continue
        corpus.append(g)
    return corpus


def random_tree(rng: random.Random, n: int) -> Multigraph:
    """Uniform random labeled tree on n vertices via a Pruefer sequence."""
    if n <= 1:
        return Multigraph(max(n, 0))
    if n == 2:
        return Multigraph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Multigraph(n, edges)
