import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from linkgraph import families
from linkgraph.construct import ConstructionError, link_graph, path_units
from linkgraph.links import (
    Link,
    LinkCountExceeded,
    _walk_tables,
    count_arcs_by_length,
    count_links,
    enumerate_links,
    enumerate_paths,
    induced_graph,
    is_link_of,
    iter_links,
    link_girth,
)
from linkgraph.multigraph import INFINITE, Multigraph, metrics
from linkgraph.partition import PartitionedGraph, partitioned_links

from util import (
    brute_force_arcs,
    brute_force_links,
    brute_force_partitioned_links,
    brute_force_paths,
    random_graph_corpus,
)


def small_graphs():
    return st.builds(
        lambda n, pairs: Multigraph(
            n, [(u % n, v % n) for u, v in pairs if u % n != v % n]
        ),
        st.integers(min_value=2, max_value=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=9),
    )


@given(small_graphs(), st.integers(0, 4), st.lists(st.integers(0, 2), max_size=9))
@settings(max_examples=80, deadline=None)
def test_iter_links_matches_brute_force(g, ell, labels):
    walks = list(iter_links(g, ell))
    starts = [seq[0] for seq in walks]
    assert starts == sorted(starts)
    assert len(set(walks)) == len(walks)
    assert set(walks) == brute_force_links(g, ell)
    assert set(iter_links(g, ell, distinct=True)) == brute_force_paths(g, ell)
    # a random edge partition; missing labels fall in part 0
    labels = (labels + [0] * g.m)[: g.m]
    groups = {}
    for e, label in enumerate(labels):
        groups.setdefault(label, []).append(e)
    pg = PartitionedGraph(
        g,
        tuple((v,) for v in range(g.n)),
        tuple(tuple(members) for members in groups.values()),
    )
    assert partitioned_links(pg, ell) == brute_force_partitioned_links(pg, ell)


def test_walks_longer_than_the_recursion_limit():
    # the enumerator keeps its own stack, so walk length is not bounded by
    # Python's recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert len(enumerate_paths(families.path(320), 300)) == 21
    finally:
        sys.setrecursionlimit(limit)


def test_c3_one_link_per_edge():
    assert len(enumerate_links(families.cycle(3), 1)) == 3


def test_cycles_have_t_links_of_every_length():
    # brute force pins the derived count: 2t arcs pairing into t links
    for t in (2, 3, 4, 5, 6):
        g = families.cycle(t)
        for ell in (0, 1, 2, 3, 5, 8):
            expected = t if ell else t  # 0-links are the t vertices
            arcs = brute_force_arcs(g, ell)
            if ell:
                assert len(arcs) == 2 * t
            assert len(brute_force_links(g, ell)) == expected
            assert len(enumerate_links(g, ell)) == expected


def test_parallel_pair_two_wrapping_2_links():
    g = families.cycle(2)
    links = enumerate_links(g, 2)
    assert len(links) == 2
    assert {l.seq for l in links} == {(0, 0, 1, 1, 0), (1, 0, 0, 1, 1)}


def test_star_has_no_3_links():
    assert enumerate_links(families.star(3), 3) == ()


def test_link_reversal_identification():
    g = families.path(3)
    [link] = [l for l in enumerate_links(g, 3)]
    assert link.seq == min(link.seq, link.seq[::-1])
    assert Link((3, 2, 2, 1, 1, 0, 0)) == link


def test_arcs_double_links():
    for g in random_graph_corpus(seed=7, count=25, max_n=6, max_m=8):
        for ell in (1, 2, 3):
            arcs = brute_force_arcs(g, ell)
            links = enumerate_links(g, ell)
            assert len(arcs) == 2 * len(links)


def test_count_matches_enumeration():
    for g in random_graph_corpus(seed=11, count=30, max_n=6, max_m=9):
        counts = count_arcs_by_length(g, 4)
        ends = _walk_tables(g, 4)[1]
        assert len(ends) == 4
        for ell in range(5):
            arcs = brute_force_arcs(g, ell)
            assert counts[ell] == len(arcs)
            assert count_links(g, ell) == len(brute_force_links(g, ell))
            if ell < 4:
                assert ends[ell] == [sum(a[-1] == x for a in arcs) for x in range(g.n)]


@given(small_graphs())
@settings(max_examples=60)
def test_link_counts_at_0_and_1(g):
    assert count_links(g, 0) == g.n
    assert count_links(g, 1) == g.m
    assert len(enumerate_links(g, 0)) == g.n
    assert len(enumerate_links(g, 1)) == g.m


def test_enumeration_cap():
    # K5 has 5 0-links, 10 1-links, 90 3-links and 270 4-links; the cap
    # applies to the ell-links first, then to the (ell + 1)-links
    k5 = families.complete(5)
    cases = [
        (0, 4, ConstructionError, "|L_0(G)| = 5 exceeds the cap of 4"),
        (0, 5, LinkCountExceeded, "enumeration of 10 links exceeds the cap of 5"),
        (3, 10, ConstructionError, "|L_3(G)| = 90 exceeds the cap of 10"),
        (3, 100, LinkCountExceeded, "enumeration of 270 links exceeds the cap of 100"),
    ]
    for ell, cap, error, message in cases:
        with pytest.raises(error) as info:
            link_graph(k5, ell, max_links=cap)
        assert str(info.value) == message
    assert link_graph(k5, 3, max_links=270).graph.m == 270


def test_paths_filter_repeated_vertices():
    g = families.cycle(4)
    assert len(enumerate_paths(g, 3)) == 4
    assert len(enumerate_links(g, 4)) == 4
    assert enumerate_paths(g, 4) == ()


def test_path_units_early_stop():
    g = families.complete(5)
    assert path_units(g, 2, 3, 10**6) is None  # K5 has 30 2-paths
    assert len(path_units(g, 2, 30, 10**6)[0]) == 30
    paths, pairs = path_units(families.path(4), 4, 1, 0)
    assert len(paths) == 1 and pairs == set()


def test_link_girth_path_infinite():
    g = families.path(4)
    [link] = enumerate_links(g, 4)
    assert link_girth(link) == INFINITE


def test_link_girth_vs_induced_girth():
    # walk v0 e1 v1 e2 v2 e3 v0 e4 v1 on a triangle plus a parallel edge
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    link = Link((0, 0, 1, 1, 2, 2, 0, 3, 1))
    assert is_link_of(g, link)
    assert link_girth(link) == 3
    assert metrics(induced_graph(g, link)).girth == 2


def test_link_girth_full_wrap():
    for t in (3, 4, 5):
        g = families.cycle(t)
        for ell in (t, t + 1, t + 3):
            for link in enumerate_links(g, ell):
                assert link_girth(link) == t


def test_is_link_of_rejects_foreign_sequences():
    g = families.path(2)
    assert not is_link_of(g, Link((0, 5, 1)))
    assert not is_link_of(g, Link((0, 0, 2)))
    assert is_link_of(g, Link((0, 0, 1, 1, 2)))
