import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgraph import families
from linkgraph.construct import link_graph, partitioned_link_graph
from linkgraph.multigraph import Multigraph, metrics
from linkgraph.partition import (
    ComponentCensus,
    PartitionedGraph,
    PartitionError,
    count_cyclic_components,
    degree_set,
    graph_degree_set,
    partitioned_links,
)

from util import (
    brute_force_cyclic_flags,
    derived_digraph,
    kahn_cyclic_flags,
    parts_per_vertex,
    random_graph_corpus,
    singletons,
)


def census_of(g, ell) -> ComponentCensus:
    res, parts = partitioned_link_graph(g, ell)
    return count_cyclic_components(PartitionedGraph.from_link_graph(res, parts))


def test_validate_singletons_ok():
    pg = singletons(families.cycle(3))
    assert pg.edge_parts == ((0,), (1,), (2,))


def test_validate_unknown_id():
    with pytest.raises(PartitionError, match="^unknown id: vertex id 7 in part 0$"):
        PartitionedGraph(families.path(1), ((0, 1, 7),), ((0,),))


def test_validate_gap_and_overlap_and_empty():
    g = families.path(2)
    with pytest.raises(PartitionError, match="^gap: vertex id 2 uncovered$"):
        PartitionedGraph(g, ((0, 1),), ((0,), (1,)))
    with pytest.raises(PartitionError, match="^overlap: vertex id 1 in two parts$"):
        PartitionedGraph(g, ((0, 1), (1, 2)), ((0,), (1,)))
    with pytest.raises(PartitionError, match="^empty part: vertex part 1$"):
        PartitionedGraph(g, ((0, 1, 2), ()), ((0,), (1,)))


@pytest.mark.parametrize(
    "edge_parts, message",
    [
        (((0, 1), (2, 4)), "unknown id: edge id 4 in part 1"),
        (((0, 1, 2), (3, -1)), "unknown id: edge id -1 in part 1"),
        (((0, 1), (2,)), "gap: edge id 3 uncovered"),
    ],
    ids=["edge-id-m", "edge-id-minus-1", "uncovered-edge"],
)
def test_invalid_edge_partition_raises_when_built(edge_parts, message):
    # these used to build, then gave wrong arcs or degree sets or an
    # IndexError in every consumer but the census
    g = families.cycle(4)
    vertex_parts = tuple((v,) for v in range(g.n))
    with pytest.raises(PartitionError) as err:
        PartitionedGraph(g, vertex_parts, edge_parts)
    assert str(err.value) == message


def test_derived_digraph_single_edge():
    pg = singletons(families.path(1))
    dd = derived_digraph(pg)
    assert dd.node_count == 2
    assert dd.arc_count == 0


def test_derived_digraph_triangle_singletons():
    pg = singletons(families.cycle(3))
    dd = derived_digraph(pg)
    assert dd.node_count == 6
    assert dd.arc_count == 6
    census = count_cyclic_components(pg)
    assert census.cyclic_count == 1


def test_derived_digraph_of_hexagon_partition_has_no_dicycle():
    res, parts = partitioned_link_graph(families.subdivided_star(3, 2), 2)
    pg = PartitionedGraph.from_link_graph(res, parts)
    census = count_cyclic_components(pg)
    assert census.cyclic_count == 0
    assert census.acyclic_count == 1


def test_census_of_cycles_is_one_cyclic_component():
    for t in (2, 3, 5):
        for ell in (1, 2, 3):
            census = census_of(families.cycle(t), ell)
            assert census.cyclic_count == 1
            assert census.acyclic_count == 0


def test_census_of_trees_matches_link_graph_components():
    for g in random_graph_corpus(seed=61, count=30, max_n=7, max_m=6):
        if not g.is_acyclic():
            continue
        for ell in (1, 2, 3):
            census = census_of(g, ell)
            lg = link_graph(g, ell).graph
            assert census.cyclic_count == 0
            assert census.acyclic_count == len(lg.components())


def test_singleton_parts_reproduce_plain_cycle_count():
    for g in random_graph_corpus(seed=67, count=30, max_n=7, max_m=9):
        census = count_cyclic_components(singletons(g))
        assert census.cyclic_count == metrics(g).cyclic_component_count


def test_o_invariance_sample():
    for g in random_graph_corpus(seed=71, count=40, max_n=6, max_m=8):
        o = metrics(g).cyclic_component_count
        for ell in (1, 2, 3):
            assert census_of(g, ell).cyclic_count == o


def test_census_counts_sum_to_components():
    for g in random_graph_corpus(seed=73, count=15, max_n=6, max_m=7):
        res, parts = partitioned_link_graph(g, 2)
        pg = PartitionedGraph.from_link_graph(res, parts)
        census = count_cyclic_components(pg)
        assert census.component_count == len(res.graph.components())
        assert census.cyclic_count + census.acyclic_count == census.component_count


def test_census_flags_each_of_many_components():
    # bundles and cycles at i % 3 != 0, paths of length i % 5 + 1 otherwise
    cyclic = [bool(i % 3) for i in range(60)]
    g = Multigraph(0)
    for i, is_cycle in enumerate(cyclic):
        piece = families.cycle(2 + i % 4) if is_cycle else families.path(1 + i % 5)
        g = g.disjoint_union(piece)
    census = count_cyclic_components(singletons(g))
    assert census.cyclic_flags == tuple(cyclic)
    # a 1-edge path has no 2-link; every longer path gives one tree
    linked = census_of(g, 2)
    assert linked.cyclic_count == sum(cyclic)
    assert linked.acyclic_count == sum(1 for i in range(0, 60, 3) if i % 5)


def test_census_matches_walk_oracle_on_random_edge_partitions():
    rng = random.Random(97)
    cyclic = 0
    for _ in range(1000):
        g = families.random_multigraph(rng, 9, 14)
        labels = [rng.randrange(1 + g.m // 2) for _ in range(g.m)]
        groups = {}
        for e, label in enumerate(labels):
            groups.setdefault(label, []).append(e)
        pg = PartitionedGraph(
            g, tuple((v,) for v in range(g.n)), tuple(map(tuple, groups.values()))
        )
        flags = count_cyclic_components(pg).cyclic_flags
        assert flags == brute_force_cyclic_flags(pg), (g.edges, pg.edge_parts)
        cyclic += sum(flags)
    assert cyclic > 300


@st.composite
def edge_partitioned_graphs(draw):
    """Small multigraphs, parallel edges frequent, with a random partition
    of their edges into at most m // 2 + 1 parts and singleton vertex parts."""
    n = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=14)) if u != v]
    labels = draw(st.lists(st.integers(0, len(edges) // 2),
                           min_size=len(edges), max_size=len(edges)))
    groups = {}
    for e, label in enumerate(labels):
        groups.setdefault(label, []).append(e)
    g = Multigraph(n, edges)
    return PartitionedGraph(
        g, tuple((v,) for v in range(n)), tuple(map(tuple, groups.values()))
    )


@settings(max_examples=400, deadline=None)
@given(edge_partitioned_graphs())
def test_census_matches_peel_of_derived_digraph(pg):
    census = count_cyclic_components(pg)
    assert census.cyclic_flags == kahn_cyclic_flags(pg)
    assert census.degree_set == degree_set(pg)
    assert census.max_part_degree == max(degree_set(pg), default=0)


def test_census_rejects_invalid_partition():
    with pytest.raises(PartitionError):
        count_cyclic_components(
            PartitionedGraph(families.path(1), ((0,),), ((0,),))
        )


def test_degree_sets_cyclic_graph():
    for t in (3, 4, 6):
        g = families.cycle(t)
        for ell in (1, 2, 3):
            res, parts = partitioned_link_graph(g, ell)
            pg = PartitionedGraph.from_link_graph(res, parts)
            assert degree_set(pg) == graph_degree_set(g)


def test_degree_sets_tree_vanish_at_diameter():
    g = families.path(3)
    res, parts = partitioned_link_graph(g, 3)
    assert degree_set(PartitionedGraph.from_link_graph(res, parts)) == frozenset()


def test_degree_set_nested_chain_on_trees():
    for g in random_graph_corpus(seed=79, count=25, max_n=7, max_m=6):
        if not (g.is_acyclic() and g.is_connected() and g.n >= 3):
            continue
        diam = int(metrics(g).diameter)
        if diam < 2:
            continue
        chain = []
        for ell in range(1, diam + 1):
            res, parts = partitioned_link_graph(g, ell)
            chain.append(degree_set(PartitionedGraph.from_link_graph(res, parts)))
        assert chain[0] == graph_degree_set(g)
        for earlier, later in zip(chain, chain[1:]):
            assert later <= earlier
        assert chain[-1] == frozenset()


def test_max_degree_relation_for_connected_cyclic():
    for g in random_graph_corpus(seed=83, count=30, max_n=6, max_m=9):
        if g.is_acyclic() or not g.is_connected():
            continue
        for ell in (1, 2):
            res, parts = partitioned_link_graph(g, ell)
            pg = PartitionedGraph.from_link_graph(res, parts)
            census = count_cyclic_components(pg)
            assert g.max_degree() == census.max_part_degree + 1
            assert g.max_degree() <= res.graph.max_degree()


def test_derived_digraph_size_bounds():
    for g in random_graph_corpus(seed=89, count=25, max_n=6, max_m=8):
        for ell in (1, 2):
            res, parts = partitioned_link_graph(g, ell)
            pg = PartitionedGraph.from_link_graph(res, parts)
            dd = derived_digraph(pg)
            m = res.graph.m
            r = parts_per_vertex(pg)
            assert dd.node_count <= 2 * m
            assert dd.arc_count <= 2 * m * max(r - 1, 0)


def test_partitioned_links_respect_parts():
    g = Multigraph(3, [(0, 1), (1, 2), (0, 1)])
    pg = PartitionedGraph(g, ((0,), (1,), (2,)), ((0, 2), (1,)))
    # edges 0 and 2 share a part: walks alternating them are excluded
    links = partitioned_links(pg, 2)
    assert (0, 0, 1, 2, 0) not in links
    assert (0, 0, 1, 1, 2) in links or (2, 1, 1, 0, 0) in links


def test_link_degree_sets_convenience():
    g = families.cycle(5)
    res, parts = partitioned_link_graph(g, 2)
    dset = degree_set(PartitionedGraph.from_link_graph(res, parts))
    assert dset == frozenset({1}) and max(dset) == 1
    assert graph_degree_set(g) == frozenset({1})


def test_census_desk_scale_performance():
    import time

    # linear-time claim, asserted as a generous absolute budget at desk scale
    big = Multigraph(20000, [(i, (i + 1) % 20000) for i in range(20000)])
    pg = singletons(big)
    started = time.monotonic()
    census = count_cyclic_components(pg)
    elapsed = time.monotonic() - started
    assert census.cyclic_count == 1
    assert elapsed < 10.0
