import math

import pytest
from hypothesis import given, strategies as st

from linkgraph import families
from linkgraph.multigraph import (
    INFINITE,
    Multigraph,
    MultigraphError,
    metrics,
    subdivision,
    tree_split,
)


def test_loops_rejected():
    with pytest.raises(MultigraphError):
        Multigraph(2, [(1, 1)])


def test_add_edge_rejects_loops_and_negative_ends():
    g = Multigraph(3, [(0, 1)])
    with pytest.raises(MultigraphError, match="loop at vertex 2"):
        g.add_edge(2, 2)
    with pytest.raises(MultigraphError, match="loop at vertex 5"):
        g.add_edge(5, 5)
    with pytest.raises(MultigraphError, match="outside vertex range"):
        g.add_edge(-1, 1)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12))
def test_add_edge_matches_rebuild(pairs):
    # extending the parent gives the graph the constructor would build
    g = Multigraph(0)
    for u, v in pairs:
        if u == v:
            continue
        child = g.add_edge(u, v)
        rebuilt = Multigraph(max(g.n, u + 1, v + 1), g.edges + ((u, v),))
        assert child == rebuilt and hash(child) == hash(rebuilt)
        assert child.adjacency == rebuilt.adjacency
        g = child


def test_edge_identity_is_positional():
    g = Multigraph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 3
    assert g.multiplicity(0, 1) == 3
    assert g.edges == ((0, 1), (0, 1), (0, 1))


def test_adjacency_lists_both_ends():
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert g.adjacency[1] == ((0, 0), (1, 2))
    assert g.degree(1) == 2


def test_components_and_acyclicity():
    g = families.cycle(3).disjoint_union(families.path(2))
    assert g.components() == [[0, 1, 2], [3, 4, 5]]
    assert not g.is_acyclic()
    assert families.path(4).is_tree()
    assert families.cycle(2).has_parallel_edges()


def test_metrics_path():
    for ell in range(1, 6):
        m = metrics(families.path(ell))
        assert m.diameter == ell
        assert m.radius == math.ceil(ell / 2)
        assert m.girth == INFINITE


def test_metrics_disconnected_infinite():
    m = metrics(families.empty_graph(2))
    assert m.radius == INFINITE
    assert m.component_count == 2
    assert m.cyclic_component_count == 0
    assert m.acyclic_component_count == 2
    assert all(e == INFINITE for e in m.eccentricity)


def test_metrics_c5():
    m = metrics(families.cycle(5))
    assert m.girth == 5
    assert m.diameter == 2
    assert m.cyclic_component_count == 1


def test_metrics_girth_parallel_pair():
    assert metrics(families.cycle(2)).girth == 2
    g = families.cycle(4).add_edge(0, 1)
    assert metrics(g).girth == 2


def test_metrics_component_split():
    g = families.cycle(3).disjoint_union(families.path(3))
    m = metrics(g)
    assert m.component_count == 2
    assert m.cyclic_component_count == 1
    assert m.acyclic_component_count == 1
    assert m.component_count == m.cyclic_component_count + m.acyclic_component_count


def test_subdivision_identity():
    g = families.star(3)
    assert subdivision(g, 1) == g


def test_subdivision_counts():
    g = subdivision(families.star(3), 2)
    assert g.n == 7
    assert g.m == 6
    assert metrics(g).diameter == 4


def test_subdivision_cycle():
    from linkgraph.canon import is_isomorphic

    for ell in (1, 2, 3):
        assert is_isomorphic(subdivision(families.cycle(3), ell), families.cycle(3 * ell))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
def test_subdivision_size_formula(k, s):
    g = families.star(k)
    sub = subdivision(g, s)
    assert sub.n == g.n + (s - 1) * g.m
    assert sub.m == s * g.m


def test_tree_split_single_edge():
    g = families.path(1)
    split = tree_split(g, 0, 0)
    assert split.component_vertices == {0}
    assert split.rest_vertices == {1}
    assert split.rest_edges == frozenset()


def test_tree_split_middle_edge():
    g = families.path(3)  # v0 v1 v2 v3
    split = tree_split(g, 1, 1)
    assert split.component_vertices == {0, 1}
    assert split.rest_vertices == {2, 3}


def test_tree_split_star():
    g = families.star(3)  # centre 0, leaves 1..3, edge i-1 joins 0 and i
    split = tree_split(g, 0, 0)
    assert split.component_vertices == {0, 2, 3}
    assert split.component_edges == {1, 2}


def test_tree_split_requires_tree_and_incidence():
    with pytest.raises(MultigraphError):
        tree_split(families.cycle(3), 0, 0)
    with pytest.raises(MultigraphError):
        tree_split(families.path(2), 0, 2)


@given(st.integers(min_value=1, max_value=8))
def test_tree_radius_identity(ell):
    m = metrics(families.path(ell))
    assert m.radius == math.ceil(m.diameter / 2)


def test_induced_and_relabel_roundtrip():
    g = families.cycle(4)
    h = g.relabel({0: 3, 1: 2, 2: 1, 3: 0})
    assert sorted(h.edges) == sorted(g.edges)
    sub = g.induced_on([0, 1, 2])
    assert sub.n == 3 and sub.m == 2
