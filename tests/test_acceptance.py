"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they pass; budgets are wall-clock and generous against the measurements.
"""

import random
import time
from contextlib import contextmanager

import pytest

from linkgraph import families
from linkgraph.canon import canonical_form, is_isomorphic, vertex_orbits
from linkgraph.construct import (
    link_graph,
    partitioned_link_graph,
    path_graph,
    project_link,
)
from linkgraph.incidence import (
    count_incidence_pairs,
    incidence_subgraph,
    is_l_minimal,
    unit_flags,
)
from linkgraph.links import count_arcs_by_length, enumerate_links, iter_links
from linkgraph.multigraph import INFINITE, Multigraph, metrics
from linkgraph.partition import (
    PartitionedGraph,
    count_cyclic_components,
    partitioned_links,
)
from linkgraph.search import (
    attach_tail,
    compute_bounds,
    cycle_roots,
    minimal_link_roots,
    minimal_path_roots,
    pair_empty_roots,
    tail_threshold,
)

from util import acceptance_corpus, exhaustive_multigraphs, random_tree


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {number:2d}: PASS  {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


def certs(graphs):
    return {canonical_form(g).data for g in graphs}


collected_rootsets = []


def test_criterion_1_whitney():
    with criterion(1, "Whitney reproduction: R_1(K3) = {K3, K_{1,3}} in < 10 s"):
        started = time.monotonic()
        roots = minimal_link_roots(families.complete(3), 1)
        elapsed = time.monotonic() - started
        assert roots.canonical_set() == certs(
            [families.complete(3), families.star(3)]
        )
        assert elapsed < 10
        collected_rootsets.append(roots)


def test_criterion_2_cycle_root_table():
    with criterion(2, "cycle-root table (C5, C6, C4) with closed-form agreement"):
        cases = [
            (5, 1, [families.cycle(5)]),
            (5, 2, [families.cycle(5)]),
            (5, 3, [families.cycle(5)]),
            (6, 2, [families.cycle(6), families.subdivided_star(3, 2)]),
            (4, 3, [families.cycle(4), families.middle_joined_paths(1, 2)]),
        ]
        for t, ell, expected in cases:
            started = time.monotonic()
            roots = minimal_link_roots(families.cycle(t), ell)
            elapsed = time.monotonic() - started
            assert roots.canonical_set() == certs(expected), (t, ell)
            assert roots.canonical_set() == cycle_roots(t, ell).canonical_set()
            assert elapsed < 120, (t, ell, elapsed)
            collected_rootsets.append(roots)


def test_criterion_3_empty_pair_counts():
    with criterion(3, "R_ell(2K1) counts and membership for ell = 1..6"):
        for ell in range(1, 7):
            started = time.monotonic()
            roots = minimal_link_roots(families.empty_graph(2), ell)
            elapsed = time.monotonic() - started
            assert len(roots) == (ell + 1) // 2, ell
            assert roots.canonical_set() == pair_empty_roots(ell).canonical_set()
            assert elapsed < 300, (ell, elapsed)
            collected_rootsets.append(roots)


def test_criterion_4_copy_lemma():
    with criterion(4, "copy lemma on 20 random trees, one vertex per orbit"):
        rng = random.Random(424242)
        for _ in range(20):
            t = random_tree(rng, rng.randint(1, 10))
            for orbit in vertex_orbits(t):
                v = orbit[0]
                ell = tail_threshold(t, v) + 1
                glued = attach_tail(t, v, ell)
                link_result = link_graph(glued, ell).graph
                path_result = path_graph(glued, ell).graph
                assert is_isomorphic(link_result, t), (t, v, ell)
                assert is_isomorphic(path_result, t), (t, v, ell)


def test_criterion_5_o_invariance(corpus):
    with criterion(5, "o-invariance census on 200 random multigraphs, ell = 1..4"):
        failures = 0
        for g in corpus:
            o = metrics(g).cyclic_component_count
            acyclic = g.is_acyclic()
            for ell in (1, 2, 3, 4):
                result, parts = partitioned_link_graph(g, ell)
                census = count_cyclic_components(
                    PartitionedGraph.from_link_graph(result, parts)
                )
                if census.cyclic_count != o:
                    failures += 1
                if acyclic and census.acyclic_count != len(
                    result.graph.components()
                ):
                    failures += 1
        assert failures == 0


def test_criterion_6_projection_completeness(corpus):
    with criterion(6, "projection completeness and closedness, s = 1..3"):
        for g in corpus:
            for ell in (1, 2, 3, 4):
                result, parts = partitioned_link_graph(g, ell)
                pg = PartitionedGraph.from_link_graph(result, parts)
                owner = pg.edge_part_of()
                for s in (1, 2, 3):
                    projected = set()
                    for r in enumerate_links(g, ell + s):
                        p = project_link(result, r)
                        projected.add(p.link.seq)
                        ends_equal = p.link.seq[0] == p.link.seq[-1]
                        eids = p.link.edge_ids
                        cycle_like = (
                            ends_equal and owner[eids[0]] != owner[eids[-1]]
                        )
                        assert p.closed == cycle_like, (g, ell, s, r)
                    assert projected == partitioned_links(pg, s), (g, ell, s)


def test_criterion_7_incidence_oracle():
    with criterion(7, "incidence oracle: all graphs n <= 7, m <= 9, ell <= 4"):
        for g in exhaustive_multigraphs(7, 9):
            links_by_len = {length: set(iter_links(g, length)) for length in range(6)}
            for ell in range(5):
                if ell == 0:
                    vset, eset = set(range(g.n)), set(range(g.m))
                else:
                    vset, eset = set(), set()
                    for seq in links_by_len[ell]:
                        vset.update(seq[0::2])
                        eset.update(seq[1::2])
                vflags, eflags = unit_flags(g, ell)
                assert vflags == tuple(v in vset for v in range(g.n)), (g, ell)
                assert eflags == tuple(e in eset for e in range(g.m)), (g, ell)
                report = incidence_subgraph(g, ell)
                sub = report.graph
                assert incidence_subgraph(sub, ell).graph == sub, (g, ell)
                assert is_l_minimal(sub, ell), (g, ell)
                vmap, emap = report.vertex_map, report.edge_map
                for length in (ell, ell + 1):
                    mapped = set()
                    for seq in links_by_len[length]:
                        out = [vmap[seq[0]]]
                        for i in range(1, len(seq), 2):
                            out.append(emap[seq[i]])
                            out.append(vmap[seq[i + 1]])
                        t = tuple(out)
                        mapped.add(min(t, t[::-1]))
                    assert mapped == set(iter_links(sub, length)), (g, ell, length)


def test_criterion_8_bound_audit():
    with criterion(8, "bound audit on every root returned by the searches"):
        assert collected_rootsets, "run after criteria 1-3"
        extra = [
            minimal_link_roots(Multigraph(1), 4),
            minimal_link_roots(families.cycle(2), 2),
            minimal_path_roots(families.path(1), 3),
        ]
        for root_set in collected_rootsets + extra:
            h = root_set.target
            ell = root_set.ell
            hm = metrics(h)
            c = hm.component_count
            for record in root_set:
                g = record.graph
                assert g.m <= ell * h.n
                assert g.n <= ell * h.n + c
                if root_set.mode == "link":
                    assert g.max_degree() <= max(c, h.max_degree()) + 1
                    if g.is_tree():
                        ecc = metrics(g).eccentricity
                        for v in range(g.n):
                            if ecc[v] < ell:
                                assert g.degree(v) <= c + 1
            collected = len(root_set)
            assert collected <= (ell * max(h.n, 2) + c) ** (2 * ell * max(h.n, 2))


def _is_disjoint_union_of_cycles(g, girth):
    for comp in g.components():
        sub = g.induced_on(comp)
        if not (sub.n == girth == sub.m and all(d == 2 for d in sub.degrees())):
            return False
    return g.n > 0


def test_criterion_9_incidence_pair_counts(corpus):
    with criterion(9, "incidence-pair bounds with path and cycle equality cases"):
        # bounds are asserted inside count_incidence_pairs on every call
        for g in corpus[:120]:
            for ell in (1, 2, 3):
                links = len(enumerate_links(g, ell))
                girth = metrics(g).girth
                for s in range(ell + 1):
                    total, per_link = count_incidence_pairs(g, ell, s)
                    assert total == sum(per_link.values())
                    maximal = (ell - s + 1) * links
                    assert (total == maximal) == (
                        links == 0 or girth >= ell - s + 1
                    ), (g, ell, s)
                    if girth <= ell - s and links and _is_disjoint_union_of_cycles(
                        g, girth
                    ):
                        assert total == girth * links, (g, ell, s)
        # equality on paths: every link is a path
        for ell in (2, 3, 4):
            g = families.path(ell)
            for s in range(ell + 1):
                total, per_link = count_incidence_pairs(g, ell, s)
                assert set(per_link.values()) == {ell - s + 1}
        # equality on disjoint unions of g-cycles, s <= ell - g
        for copies in (1, 2, 3):
            g = families.cycle(3)
            for _ in range(copies - 1):
                g = g.disjoint_union(families.cycle(3))
            for ell, s in ((4, 0), (4, 1), (5, 2)):
                total, _ = count_incidence_pairs(g, ell, s)
                assert total == 3 * len(enumerate_links(g, ell))


def test_criterion_10_path_graph_suite(corpus):
    with criterion(10, "path-graph suite: K4, K2 path roots, girth agreement"):
        three_squares = families.cycle(4)
        for _ in range(2):
            three_squares = three_squares.disjoint_union(families.cycle(4))
        assert is_isomorphic(path_graph(families.complete(4), 3).graph, three_squares)

        q1 = minimal_path_roots(families.path(1), 1)
        assert q1.canonical_set() == certs([families.path(2), families.cycle(2)])
        for ell in (2, 3, 4):
            q = minimal_path_roots(families.path(1), ell)
            assert q.canonical_set() == certs([families.path(ell + 1)])
            collected_rootsets.append(q)

        for g in corpus:
            girth = metrics(g).girth
            for ell in (2, 3, 4):
                if girth > ell:
                    assert is_isomorphic(
                        path_graph(g, ell).graph, link_graph(g, ell).graph
                    ), (g, ell)
            if not g.has_parallel_edges():
                for ell in (0, 1):
                    assert is_isomorphic(
                        path_graph(g, ell).graph, link_graph(g, ell).graph
                    ), (g, ell)


def test_criterion_11_pruned_vs_naive():
    with criterion(11, "pruned search == unpruned generator when ell*n(H) <= 6"):
        zoo = [
            (Multigraph(1), (1, 2, 3, 4, 5, 6)),
            (families.path(1), (1, 2, 3)),
            (families.empty_graph(2), (1, 2, 3)),
            (families.cycle(2), (1, 2, 3)),
            (families.complete(3), (1, 2)),
            (families.cycle(3), (1, 2)),
            (families.path(2), (1, 2)),
            (families.empty_graph(3), (1, 2)),
            (Multigraph(3, [(0, 1)]), (1, 2)),
            (families.cycle(4), (1,)),
            (families.star(3), (1,)),
            (families.path(3), (1,)),
            (families.empty_graph(4), (1,)),
            (Multigraph(4, [(0, 1), (0, 1)]), (1,)),
            (families.cycle(5), (1,)),
            (families.cycle(6), (1,)),
            (families.path(5), (1,)),
        ]
        for h, ells in zoo:
            for ell in ells:
                assert ell * h.n <= 6
                pruned = minimal_link_roots(h, ell).canonical_set()
                naive = _naive_link_roots(h, ell)
                assert pruned == naive, (h, ell)


def _naive_link_roots(h, ell):
    bounds = compute_bounds(h, ell)
    h_cert = canonical_form(h)
    out = set()
    for g in exhaustive_multigraphs(bounds.max_n, bounds.max_m):
        counts = count_arcs_by_length(g, ell + 1)
        links = counts[ell] // 2 if ell else g.n
        if links != h.n or counts[ell + 1] // 2 != h.m:
            continue
        if not is_l_minimal(g, ell):
            continue
        if canonical_form(link_graph(g, ell).graph) != h_cert:
            continue
        out.add(canonical_form(g).data)
    return out
