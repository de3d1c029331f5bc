"""Canonical forms cross-checked against networkx, an independent oracle.

Link graphs of small multigraphs are highly symmetric, so they are where the
canonical search prunes by automorphisms; the base multigraphs cover the
low-symmetry side.  networkx is a test-only dependency: the module is
skipped when it cannot be imported.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgraph.canon import canonical_form, find_isomorphism, verify_isomorphism
from linkgraph.construct import link_graph
from linkgraph.links import count_links
from linkgraph.multigraph import Multigraph

nx = pytest.importorskip("networkx")

# networkx's VF2 slows down sharply on denser multigraphs
MAX_LINK_ORDER = 30
MAX_LINK_SIZE = 60


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 8))
    # the second end skips the first, so no edge is a loop
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    edges = draw(st.lists(pair, max_size=14))
    return Multigraph(n, [(u, (u + k) % n) for u, k in edges])


def as_networkx(g):
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Multigraph(g.n, edges)


def edge_swapped(g, rng):
    """ab, cd -> ad, cb for two random edges: same degrees, maybe another
    isomorphism class.  g itself when the swap would make a loop."""
    if g.m < 2:
        return g
    i, j = rng.sample(range(g.m), 2)
    (a, b), (c, d) = g.edges[i], g.edges[j]
    if a == d or c == b:
        return g
    edges = list(g.edges)
    edges[i], edges[j] = (a, d), (c, b)
    return Multigraph(g.n, edges)


def check_against_networkx(g, other):
    same = canonical_form(g) == canonical_form(other)
    assert same == nx.is_isomorphic(as_networkx(g), as_networkx(other))
    mapping = find_isomorphism(g, other)
    assert (mapping is not None) == same
    if same:
        assert verify_isomorphism(g, other, mapping)


@given(multigraphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_forms_agree_with_networkx(g, seed):
    rng = random.Random(seed)
    graphs = [g]
    for ell in (1, 2):
        order, size = count_links(g, ell), count_links(g, ell + 1)
        if order <= MAX_LINK_ORDER and size <= MAX_LINK_SIZE:
            graphs.append(link_graph(g, ell).graph)
    for h in graphs:
        check_against_networkx(h, relabelled(h, rng))
        check_against_networkx(h, relabelled(edge_swapped(h, rng), rng))


@given(multigraphs())
@settings(max_examples=100, deadline=None)
def test_line_graph_matches_networkx(g):
    simple = Multigraph(g.n, sorted(set(g.edges)))
    expected = nx.line_graph(nx.Graph(simple.edges))
    assert nx.is_isomorphic(as_networkx(link_graph(simple, 1).graph), expected)
