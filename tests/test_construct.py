import hashlib
import random

import pytest

from linkgraph import construct, families
from linkgraph.canon import canonical_form, is_isomorphic
from linkgraph.cli import main
from linkgraph.formats import format_multigraph
from linkgraph.construct import (
    ConstructionError,
    link_graph,
    link_partitions,
    partitioned_link_graph,
    path_graph,
    project_link,
    provenance_lines,
    shunt_reachable,
)
from linkgraph.links import Link, LinkCountExceeded, count_links, enumerate_links
from linkgraph.multigraph import InternalCheckError, Multigraph, metrics
from linkgraph.partition import PartitionedGraph, count_cyclic_components

from util import (
    bond,
    brute_force_links,
    brute_force_path_pairs,
    brute_force_paths,
    parts_per_vertex,
    random_graph_corpus,
)


def test_link_graph_of_claw_is_triangle():
    res = link_graph(families.star(3), 1)
    assert is_isomorphic(res.graph, families.complete(3))


def test_link_graph_of_subdivided_claw_is_hexagon():
    res = link_graph(families.subdivided_star(3, 2), 2)
    assert is_isomorphic(res.graph, families.cycle(6))


def test_link_graph_at_zero_is_identity():
    for g in random_graph_corpus(seed=23, count=20, max_n=6, max_m=8):
        res = link_graph(g, 0)
        assert is_isomorphic(res.graph, g)
        assert [l.seq for l in res.vertex_provenance] == [(v,) for v in range(g.n)]


def test_link_graph_of_parallel_pair():
    res = link_graph(families.cycle(2), 1)
    assert res.graph.n == 2
    assert res.graph.m == 2
    assert is_isomorphic(res.graph, families.cycle(2))


def assert_links_paired_by_subsequences(g, ell):
    """The result's units equal the brute-force ell- and (ell + 1)-links,
    and each edge joins the end ell-subsequences of its (ell + 1)-link."""
    res = link_graph(g, ell)
    seqs = [l.seq for l in res.vertex_provenance]
    assert seqs == sorted(brute_force_links(g, ell))
    assert [q.seq for q in res.edge_provenance] == sorted(
        brute_force_links(g, ell + 1))
    for (i, j), q in zip(res.graph.edges, res.edge_provenance):
        head = min(q.seq[:-2], q.seq[-3::-1])
        tail = min(q.seq[2:], q.seq[:1:-1])
        assert sorted((seqs[i], seqs[j])) == sorted((head, tail))
    return res


@pytest.mark.parametrize("g, ell, isolated", [
    # the 2-link of the 2-edge path has no 3-link through it
    (families.path(2).disjoint_union(families.cycle(4)), 2, 1),
    # the tip-to-tip 4-links of a subdivided claw extend nowhere
    (families.subdivided_star(3, 2), 3, 0),
    (families.subdivided_star(3, 2), 4, 3),
    # a 3-edge tail pasted to the middle of a 4-path: the 4-path itself
    # ends at two tips, every other 4-link runs into the tail's tip
    (families.tailed_path(4, 2, 3), 4, 1),
    (families.cycle(2).disjoint_union(families.path(3)), 3, 1),
])
def test_links_that_extend_nowhere_are_isolated_vertices(g, ell, isolated):
    res = assert_links_paired_by_subsequences(g, ell)
    assert res.graph.degrees().count(0) == isolated


def test_link_graph_at_zero_has_the_source_units():
    g = Multigraph(5, [(0, 1), (1, 2), (0, 1), (3, 1), (2, 0), (1, 0)])
    res = assert_links_paired_by_subsequences(g, 0)
    assert res.graph.n == g.n and sorted(res.graph.edges) == sorted(g.edges)


def test_unit_counts_match_link_counts():
    for g in random_graph_corpus(seed=31, count=25, max_n=6, max_m=8):
        for ell in (1, 2, 3):
            res = link_graph(g, ell)
            assert res.graph.n == len(brute_force_links(g, ell))
            assert res.graph.m == len(brute_force_links(g, ell + 1))


def test_constructions_pass_the_checked_constructor():
    # link_graph and path_graph build their graphs unchecked; the checked
    # constructor must accept the same edges and give the same graph
    for g in random_graph_corpus(seed=37, count=25, max_n=6, max_m=8):
        for ell in (0, 1, 2, 3):
            for build in (link_graph, path_graph):
                built = build(g, ell).graph
                checked = Multigraph(built.n, built.edges)
                assert checked == built and checked.adjacency == built.adjacency
                assert hash(checked) == hash(built)


def test_result_is_loopless_and_budget_enforced():
    for t in (2, 3, 4):
        res = link_graph(families.cycle(t), 3)
        assert all(u != v for u, v in res.graph.edges)
    with pytest.raises(ConstructionError):
        link_graph(families.complete(5), 3, max_links=5)


def test_parallel_multiplicity_rule():
    # mu parallel (ell+1)-links between two links force mu parallel edges
    res = link_graph(bond(3), 1)
    assert res.graph.n == 3
    # each pair of parallel edges is joined by the two wrapping 2-links
    assert res.graph.m == 6
    assert all(res.graph.multiplicity(u, v) == 2 for u, v in set(res.graph.edges))


def test_partitions_all_singletons_at_zero():
    g = families.cycle(4)
    _, parts = partitioned_link_graph(g, 0)
    assert parts.vertex_parts == tuple((i,) for i in range(4))
    assert parts.edge_parts == tuple((i,) for i in range(4))


def test_partitions_on_cycles_are_singletons():
    for t in (3, 4, 5, 6):
        for ell in (1, 2, 3, 4):
            res, parts = partitioned_link_graph(families.cycle(t), ell)
            assert all(len(p) == 1 for p in parts.vertex_parts)
            assert all(len(p) == 1 for p in parts.edge_parts)
            assert is_isomorphic(res.graph, families.cycle(t))


def test_partitions_of_hexagon_construction():
    res, parts = partitioned_link_graph(families.subdivided_star(3, 2), 2)
    assert sorted(len(p) for p in parts.vertex_parts) == [1, 1, 1, 3]
    assert sorted(len(p) for p in parts.edge_parts) == [2, 2, 2]


def test_vertex_parts_independent_when_ell_not_one():
    for g in random_graph_corpus(seed=41, count=15, max_n=6, max_m=7):
        for ell in (2, 3):
            res, parts = partitioned_link_graph(g, ell)
            adjacent = {frozenset(e) for e in res.graph.edges}
            for part in parts.vertex_parts:
                for i in range(len(part)):
                    for j in range(i + 1, len(part)):
                        assert frozenset((part[i], part[j])) not in adjacent


def test_edge_parts_touch_each_vertex_at_most_twice():
    from linkgraph.partition import PartitionedGraph

    for g in random_graph_corpus(seed=43, count=15, max_n=6, max_m=7):
        for ell in (1, 2, 3):
            res, parts = partitioned_link_graph(g, ell)
            pg = PartitionedGraph.from_link_graph(res, parts)
            assert parts_per_vertex(pg) <= 2


def test_path_graph_of_k4_is_three_squares():
    res = path_graph(families.complete(4), 3)
    expected = families.cycle(4)
    expected = expected.disjoint_union(families.cycle(4)).disjoint_union(
        families.cycle(4)
    )
    assert is_isomorphic(res.graph, expected)


def test_path_graph_of_k3_at_two_is_k3():
    res = path_graph(families.complete(3), 2)
    assert is_isomorphic(res.graph, families.complete(3))


def test_path_graph_of_trees_matches_link_graph():
    for g in random_graph_corpus(seed=47, count=40, max_n=7, max_m=6):
        if not g.is_acyclic():
            continue
        for ell in (1, 2, 3):
            assert is_isomorphic(path_graph(g, ell).graph, link_graph(g, ell).graph)


def test_path_graph_matches_brute_force():
    corpus = random_graph_corpus(seed=131, count=40, max_n=6, max_m=8)
    assert sum(g.has_parallel_edges() for g in corpus) >= 10
    for g in corpus:
        for ell in (0, 1, 2, 3):
            res = path_graph(g, ell)
            paths = [p.seq for p in res.vertex_provenance]
            assert paths == sorted(brute_force_paths(g, ell))
            assert [(paths[i], paths[j]) for i, j in res.graph.edges] == [
                (a.seq, b.seq) for a, b in res.edge_provenance
            ]
            assert not res.graph.has_parallel_edges()
            pairs = brute_force_path_pairs(g, ell)
            assert {
                (a.seq, b.seq) for a, b in res.edge_provenance
            } == pairs, (g, ell)
            _check_path_caps(g, ell, set(paths), pairs)


def _check_path_caps(g, ell, paths, pairs):
    """Caps just below, at and above each true count: path_graph raises
    exactly when max_links is below a count, naming one that passed it,
    and otherwise builds every path and pair."""
    def near(count):
        return [c for c in (count - 1, count, count + 1) if c >= 0]

    counts = {f"{ell}-paths": len(paths), "path-graph edges": len(pairs)}
    for cap in sorted(set(near(len(paths)) + near(len(pairs)))):
        over = {f"enumeration of more than {cap} {unit} exceeds the cap of {cap}"
                for unit, count in counts.items() if count > cap}
        if over:
            with pytest.raises(LinkCountExceeded) as info:
                path_graph(g, ell, max_links=cap)
            assert str(info.value) in over
        else:
            res = path_graph(g, ell, max_links=cap)
            assert {p.seq for p in res.vertex_provenance} == paths
            assert {(a.seq, b.seq) for a, b in res.edge_provenance} == pairs


def test_path_graph_parallel_edges_make_two_cycles():
    res = path_graph(families.cycle(2), 1)
    assert res.graph.n == 2 and res.graph.m == 1  # simple result


def test_path_graph_at_zero_is_underlying_simple_graph():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    res = path_graph(g, 0)
    assert res.graph.edges == ((0, 1), (1, 2))


def test_path_graph_subset_of_link_graph_iso_iff_girth():
    for g in random_graph_corpus(seed=53, count=30, max_n=6, max_m=8):
        for ell in (2, 3):
            pg = path_graph(g, ell).graph
            lg = link_graph(g, ell).graph
            girth = metrics(g).girth
            assert pg.n <= lg.n and pg.m <= lg.m
            if girth > ell:
                assert is_isomorphic(pg, lg)


def test_project_zero_length_is_single_vertex():
    g = families.cycle(5)
    res = link_graph(g, 2)
    r = res.vertex_provenance[0]
    projected = project_link(res, r)
    assert projected.link.length == 0
    assert projected.closed


def test_project_at_ell_zero_is_same_link():
    g = families.cycle(4)
    res = link_graph(g, 0)
    [r] = [l for l in enumerate_links(g, 3) if l.seq[0] == 0][:1]
    projected = project_link(res, r)
    assert projected.link.length == 3


def test_project_wrapping_link_is_closed():
    g = families.cycle(4)
    res = link_graph(g, 2)
    wrapped = [r for r in enumerate_links(g, 6) if r.seq[0] == r.seq[8]]
    # 6-links wrapping one and a half times satisfy the closedness criterion
    closed_seen = 0
    for r in enumerate_links(g, 6):
        projected = project_link(res, r)
        arc_criterion = r.seq[:5] == r.seq[8:13]
        assert projected.closed == arc_criterion
        first, last = projected.link.seq[0], projected.link.seq[-1]
        assert projected.closed == (first == last)
        closed_seen += projected.closed
    assert closed_seen == len(enumerate_links(g, 6)) > 0
    assert wrapped


def test_projection_consecutive_edges_cross_parts():
    from linkgraph.partition import PartitionedGraph

    g = families.subdivided_star(3, 2)
    res, parts = partitioned_link_graph(g, 2)
    owner = PartitionedGraph.from_link_graph(res, parts).edge_part_of()
    for r in enumerate_links(g, 4):
        projected = project_link(res, r)
        eids = projected.link.edge_ids
        for a, b in zip(eids, eids[1:]):
            assert owner[a] != owner[b]


def test_projection_completeness_small_corpus():
    from linkgraph.partition import PartitionedGraph, partitioned_links

    for g in random_graph_corpus(seed=59, count=12, max_n=5, max_m=6):
        for ell in (1, 2):
            res, parts = partitioned_link_graph(g, ell)
            pg = PartitionedGraph.from_link_graph(res, parts)
            for s in (1, 2, 3):
                projected = {
                    project_link(res, r).link.seq
                    for r in enumerate_links(g, ell + s)
                }
                assert projected == partitioned_links(pg, s)


def test_shunting_on_cycles_reaches_everything():
    for t in (3, 5):
        g = families.cycle(t)
        links = enumerate_links(g, 2)
        assert all(
            shunt_reachable(g, 2, links[0], other) for other in links
        )


def test_shunting_between_disjoint_paths_fails():
    g = families.path(3).disjoint_union(families.path(3))
    a, b = enumerate_links(g, 3)
    assert not shunt_reachable(g, 3, a, b)


def test_shunting_within_tail_tree_fails():
    g = families.tailed_path(3, 1, 1)  # T_1 for ell = 3
    links = enumerate_links(g, 3)
    assert len(links) == 2
    assert not shunt_reachable(g, 3, links[0], links[1])


def test_shunting_rejects_foreign_links():
    g = families.cycle(3)
    with pytest.raises(ConstructionError):
        shunt_reachable(g, 2, Link((0, 9, 1, 1, 2)), Link((0, 0, 1, 1, 2)))


def test_vertex_order_and_provenance_deterministic():
    g = families.subdivided_star(3, 2)
    a = link_graph(g, 2)
    b = link_graph(g, 2)
    assert a.graph == b.graph
    assert provenance_lines(a) == provenance_lines(b)
    assert canonical_form(a.graph) == canonical_form(b.graph)
    rendered = provenance_lines(a)[0]
    assert "\t" in rendered and "-" in rendered


def _random_link(rng, g, length):
    """A random walk of g with distinct consecutive edges, or None when the
    walk runs into a vertex it can only leave the way it came."""
    walk = (rng.randrange(g.n),)
    for _ in range(length):
        steps = [(e, w) for e, w in g.adjacency[walk[-1]]
                 if len(walk) == 1 or e != walk[-2]]
        if not steps:
            return None
        walk += rng.choice(steps)
    return Link(walk)


def _pinned_outputs():
    """One sha256 per kind of construction output over a seeded corpus: 300
    random multigraphs with parallel edges, redrawn while their 6-link count
    passes 2000, each at ell = 0..4, with a batch of projected (ell + s)-links
    for s = 0, 1, 2."""
    rng = random.Random(20261019)
    digests = {kind: hashlib.sha256() for kind in
               ("link", "partitions", "census", "path", "project")}

    def put(kind, value):
        digests[kind].update(repr(value).encode() + b"\n")

    graphs = 0
    while graphs < 300:
        g = families.random_multigraph(rng, 8, 12)
        if count_links(g, 6) > 2000:
            continue
        graphs += 1
        for ell in range(5):
            res = link_graph(g, ell)
            put("link", (res.graph.n, res.graph.edges,
                         [l.seq for l in res.vertex_provenance],
                         [q.seq for q in res.edge_provenance]))
            parts = link_partitions(res)
            put("partitions", (parts.vertex_parts, parts.edge_parts))
            census = count_cyclic_components(
                PartitionedGraph.from_link_graph(res, parts))
            put("census", (census.cyclic_flags, census.cyclic_count,
                           census.acyclic_count, sorted(census.degree_set),
                           census.max_part_degree))
            paths = path_graph(g, ell)
            put("path", (paths.graph.n, paths.graph.edges,
                         [p.seq for p in paths.vertex_provenance],
                         [(a.seq, b.seq) for a, b in paths.edge_provenance]))
            for s in (0, 1, 2, 2):
                r = _random_link(rng, g, ell + s)
                if r is not None:
                    projected = project_link(res, r)
                    put("project", (r.seq, projected.link.seq, projected.closed))
    return {kind: d.hexdigest()[:16] for kind, d in digests.items()}


def test_pinned_construction_digests():
    # first 16 hex digits of each sha256; any change to ids, edge order,
    # provenance, parts, census fields or projections moves one of them
    assert _pinned_outputs() == {
        "link": "67a95c0e5a8c70f0",
        "partitions": "53b40835136dc9e5",
        "census": "e6daf114df2d12bb",
        "path": "9d4811b52c6aa4fc",
        "project": "929800ed040b2c4c",
    }


class _MisreversedLink(tuple):
    """A walk whose reverse reads as another walk, as a broken orientation
    bookkeeping would give."""

    def __getitem__(self, key):
        if key == slice(None, None, -1):
            return (1, 1, 2)
        return tuple.__getitem__(self, key)


def test_internal_errors_raise_internal_check_error(monkeypatch, tmp_path, capsys):
    # the ell-link (0, 0, 1) of the 2-edge path claims (1, 1, 2) as its
    # reverse, so its 2-link's tail is its head: a loop
    monkeypatch.setattr(construct, "iter_links",
                        lambda g, ell: [_MisreversedLink((0, 0, 1))])
    with pytest.raises(InternalCheckError, match="loop"):
        link_graph(families.path(2), 1)
    path = tmp_path / "p2.mg"
    path.write_text(format_multigraph(families.path(2)), encoding="utf-8")
    assert main(["link", "-l", "1", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: internal error: InternalCheckError: "
        "loop produced by a loopless source\n")
    monkeypatch.undo()
    # a walk that steps back along its edge, passed off as a link
    res = link_graph(families.path(1), 0)
    monkeypatch.setattr(construct, "is_link_of", lambda g, link: True)
    with pytest.raises(InternalCheckError, match="equal consecutive edges"):
        project_link(res, Link((0, 0, 1, 0, 0)))
