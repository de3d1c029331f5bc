"""Reference checks that do not run through the code paths the benchmark times.

Isomorphism is decided by trying every vertex permutation (small graphs
only), a claimed isomorphism is verified edge by edge, and non-isomorphism
of a partner graph is certified by a cheap invariant computed here, so a
broken canonical form cannot vouch for itself.
"""

from __future__ import annotations

import itertools
from collections import Counter

BRUTE_FORCE_MAX_VERTICES = 8


def edge_multiset(edges):
    return sorted((u, v) if u <= v else (v, u) for u, v in edges)


def mapping_is_isomorphism(g, h, mapping) -> bool:
    """Whether ``mapping`` (vertex of g -> vertex of h) carries g's edge
    multiset exactly onto h's."""
    if sorted(mapping) != list(range(g.n)):
        return False
    if sorted(mapping.values()) != list(range(h.n)):
        return False
    mapped = edge_multiset((mapping[u], mapping[v]) for u, v in g.edges)
    return mapped == edge_multiset(h.edges)


def brute_force_isomorphism(g, h):
    """A vertex bijection g -> h found by trying every permutation, or None."""
    if g.n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_VERTICES} vertices")
    if g.n != h.n or g.m != h.m:
        return None
    target = edge_multiset(h.edges)
    for perm in itertools.permutations(range(h.n)):
        if edge_multiset((perm[u], perm[v]) for u, v in g.edges) == target:
            return dict(enumerate(perm))
    return None


def component_sizes(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return sorted(Counter(find(v) for v in range(n)).values())


def invariant(g):
    """Isomorphism invariant: sizes, degrees, multiplicities, component
    sizes and per-vertex (degree, triangle count) pairs of the simple graph."""
    neighbours = [set() for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    degrees = [0] * g.n
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    triangles = [
        sum(1 for a, b in itertools.combinations(sorted(neighbours[v]), 2)
            if b in neighbours[a])
        for v in range(g.n)
    ]
    return (
        g.n,
        g.m,
        sorted(Counter(edge_multiset(g.edges)).values()),
        component_sizes(g.n, g.edges),
        sorted(zip(degrees, triangles)),
    )


def relabelled(multigraph_cls, g, rng):
    """An isomorphic copy with vertices renamed and edges reordered."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return multigraph_cls(g.n, edges)


def non_isomorphic_partner(multigraph_cls, g, rng, attempts=64):
    """A graph of the same order and size, degree sequence kept by one
    double-edge swap, whose invariant proves it is not isomorphic to g.
    Falls back to adding an isolated vertex when no swap separates them."""
    base = invariant(g)
    edges = list(g.edges)
    for _ in range(attempts if g.m >= 2 else 0):
        i, j = rng.sample(range(g.m), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if a == d or c == b:
            continue
        swapped = list(edges)
        swapped[i], swapped[j] = (a, d), (c, b)
        partner = multigraph_cls(g.n, swapped)
        if invariant(partner) != base:
            return partner
    return multigraph_cls(g.n + 1, edges)


def units_on_links(link_seqs):
    """(vertex set, edge set) covered by interleaved link sequences."""
    vertices, edges = set(), set()
    for seq in link_seqs:
        vertices.update(seq[0::2])
        edges.update(seq[1::2])
    return vertices, edges


def canonical_seq(seq):
    rev = seq[::-1]
    return seq if seq <= rev else rev


def path_graph_pairs(ell, edge_link_seqs):
    """Edges of the ell-path graph, from the (ell + 1)-links of the source:
    those that are paths or cycles join their end ell-subpaths."""
    pairs = set()
    for seq in edge_link_seqs:
        verts = seq[0::2]
        distinct = len(set(verts))
        if distinct == ell + 2 or (verts[0] == verts[-1] and distinct == ell + 1):
            head = canonical_seq(seq[: 2 * ell + 1])
            tail = canonical_seq(seq[2:])
            pairs.add((head, tail) if head <= tail else (tail, head))
    return pairs


def parse_mg(multigraph_cls, text):
    """Minimal reader of the 'mg 1' format: header, one 'n' line, 'e' lines."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["mg", "1"] or lines[1][0] != "n":
        raise ValueError("not an 'mg 1' file")
    n = int(lines[1][1])
    edges = [(int(u), int(v)) for tag, u, v in lines[2:] if tag == "e"]
    return multigraph_cls(n, edges)


def format_mg(g) -> str:
    return "".join(
        ["mg 1\n", f"n {g.n}\n"] + [f"e {u} {v}\n" for u, v in g.edges]
    )
