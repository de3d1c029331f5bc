import pytest

from linkgraph import families
from linkgraph.canon import is_isomorphic
from linkgraph.construct import link_graph
from linkgraph.incidence import (
    ExpansionRecipe,
    PasteInstruction,
    RecipeError,
    count_incidence_pairs,
    expand_class,
    incidence_subgraph,
    is_l_equivalent,
    is_l_minimal,
    is_unit_l_incident,
    unit_flags,
)
from linkgraph.links import is_link_of
from linkgraph.multigraph import Multigraph, metrics

from util import brute_force_incident_units, brute_force_links, random_graph_corpus


def star_on_path_middle(t: int) -> Multigraph:
    # 4-path 0..4 with t extra leaves at the middle vertex 2
    edges = [(i, i + 1) for i in range(4)]
    edges += [(2, 5 + i) for i in range(t)]
    return Multigraph(5 + t, edges)


def test_claw_leaf_not_3_incident():
    g = families.star(3)
    assert not is_unit_l_incident(g, "vertex", 1, 3)
    assert not is_unit_l_incident(g, "vertex", 0, 3)


def test_double_star_fully_3_incident():
    g = families.double_star(2, 2)
    vflags, eflags = unit_flags(g, 3)
    assert all(vflags) and all(eflags)


def test_large_diameter_trees_fully_incident():
    for ell in (2, 3, 4, 5):
        bound = max(ell, 2 * ell - 3)
        g = families.path(bound)
        vflags, eflags = unit_flags(g, ell)
        assert all(vflags) and all(eflags)


def test_cyclic_components_always_incident():
    g = families.cycle(3).disjoint_union(families.path(1))
    for ell in (1, 2, 5, 9):
        vflags, eflags = unit_flags(g, ell)
        assert all(vflags[:3]) and all(eflags[:3])


def test_incidence_flags_match_brute_force():
    for g in random_graph_corpus(seed=97, count=40, max_n=7, max_m=8):
        for ell in (0, 1, 2, 3, 4):
            vset, eset = brute_force_incident_units(g, ell)
            vflags, eflags = unit_flags(g, ell)
            assert vflags == tuple(v in vset for v in range(g.n))
            assert eflags == tuple(e in eset for e in range(g.m))


def test_incidence_witnesses_are_links_through_the_unit():
    def contains(link, kind, unit, g):
        if kind == "vertex":
            return unit in link.vertices
        # a 0-link lies inside the edges at its vertex
        return unit in link.edge_ids or (
            link.length == 0 and link.vertices[0] in g.edges[unit]
        )

    for g in random_graph_corpus(seed=71, count=40, max_n=7, max_m=8):
        for ell in range(5):
            report = incidence_subgraph(g, ell, with_witnesses=True)
            units = [("vertex", v, report.vertex_flags[v]) for v in range(g.n)]
            units += [("edge", e, report.edge_flags[e]) for e in range(g.m)]
            for kind, unit, incident in units:
                flag, witness = is_unit_l_incident(
                    g, kind, unit, ell, with_witness=True
                )
                assert flag == incident, (g, ell, kind, unit)
                if not incident:
                    assert witness is None
                    assert (kind, unit) not in report.witnesses
                    continue
                assert is_link_of(g, witness) and witness.length == ell
                assert contains(witness, kind, unit, g), (g, ell, kind, unit)
                # at ell = 0 no 0-link has an edge, so edges go unlisted
                if ell or kind == "vertex":
                    assert report.witnesses[(kind, unit)] == witness


def test_incidence_subgraph_small_tree_is_null():
    g = families.star(3)
    report = incidence_subgraph(g, 3)
    assert report.graph.n == 0 and report.graph.m == 0


def test_incidence_subgraph_cyclic_is_identity():
    g = families.cycle(4).add_edge(0, 2)
    for ell in (0, 1, 3, 6):
        report = incidence_subgraph(g, ell)
        assert report.graph == g


def test_incidence_subgraph_star_on_path():
    g = star_on_path_middle(3)
    report = incidence_subgraph(g, 4)
    assert is_isomorphic(report.graph, families.path(4))
    res = link_graph(g, 4)
    assert res.graph.n == 1 and res.graph.m == 0


def test_incidence_subgraph_idempotent():
    for g in random_graph_corpus(seed=101, count=30, max_n=7, max_m=8):
        for ell in (1, 2, 3):
            once = incidence_subgraph(g, ell).graph
            twice = incidence_subgraph(once, ell).graph
            assert twice == once


def test_incidence_subgraph_is_minimal_and_preserves_links():
    for g in random_graph_corpus(seed=103, count=30, max_n=7, max_m=8):
        for ell in (1, 2, 3):
            report = incidence_subgraph(g, ell)
            assert is_l_minimal(report.graph, ell)
            for length in (ell, ell + 1):
                original = brute_force_links(g, length)
                vmap, emap = report.vertex_map, report.edge_map
                mapped = set()
                for seq in original:
                    out = [vmap[seq[0]]]
                    for i in range(1, len(seq), 2):
                        out.append(emap[seq[i]])
                        out.append(vmap[seq[i + 1]])
                    t = tuple(out)
                    mapped.add(min(t, t[::-1]))
                assert mapped == brute_force_links(report.graph, length)


def test_leaves_of_tree_incidence_subgraph_are_tree_leaves():
    for g in random_graph_corpus(seed=107, count=40, max_n=8, max_m=7):
        if not (g.is_acyclic() and g.is_connected()):
            continue
        for ell in (2, 3, 4):
            report = incidence_subgraph(g, ell)
            sub = report.graph
            if sub.n == 0:
                continue
            back = {new: old for old, new in report.vertex_map.items()}
            for v in range(sub.n):
                if sub.degree(v) == 1:
                    assert g.degree(back[v]) == 1


def test_tree_incidence_structure_conditions():
    # the accurate tree characterization: every kept vertex satisfies
    # (1) ecc_X >= ell-1 with nothing hanging off, or (2) the eccentricity
    # window with hanging height bounded by ell-1 - ecc_X
    for g in random_graph_corpus(seed=109, count=60, max_n=9, max_m=8):
        if not (g.is_acyclic() and g.is_connected()):
            continue
        for ell in (3, 4, 5):
            diam = metrics(g).diameter
            if diam < ell:
                continue
            report = incidence_subgraph(g, ell)
            x = report.graph
            ecc_x = metrics(x).eccentricity
            kept = set(report.vertex_map)
            for old, new in report.vertex_map.items():
                hang = _hanging_component(g, kept, old)
                ecc_hang = _ecc_within(g, hang, old)
                if ecc_x[new] >= ell - 1:
                    assert hang == {old}
                else:
                    assert -(-ell // 2) <= ecc_x[new] <= ell - 2
                    assert ecc_x[new] + ecc_hang <= ell - 1


def _hanging_component(g, kept_vertices, u):
    # component of G - E(G[kept]) containing u
    seen = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for _e, w in g.adjacency[v]:
            if v in kept_vertices and w in kept_vertices:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _ecc_within(g, vertices, u):
    dist = {u: 0}
    frontier = [u]
    best = 0
    while frontier:
        nxt = []
        for v in frontier:
            for _e, w in g.adjacency[v]:
                if w in vertices and w not in dist:
                    dist[w] = dist[v] + 1
                    best = max(best, dist[w])
                    nxt.append(w)
        frontier = nxt
    return best


def test_minimality_examples():
    assert is_l_minimal(families.path(4), 4)
    chord = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    assert is_l_minimal(chord, 4)
    assert not is_l_minimal(families.star(3), 3)
    assert is_l_minimal(families.null_graph(), 2)


def test_equivalence_of_star_on_path_family():
    for ell in (4,):
        a = star_on_path_middle(1)
        b = star_on_path_middle(4)
        assert is_l_equivalent(a, b, ell)
        assert is_l_equivalent(a, families.path(4), ell)


def test_equivalence_distinguishes_whitney_pair():
    assert not is_l_equivalent(families.complete(3), families.star(3), 1)
    res_a = link_graph(families.complete(3), 1)
    res_b = link_graph(families.star(3), 1)
    assert is_isomorphic(res_a.graph, res_b.graph)


def test_everything_equivalent_to_own_incidence_subgraph():
    for g in random_graph_corpus(seed=113, count=25, max_n=7, max_m=8):
        for ell in (1, 2, 3):
            assert is_l_equivalent(g, incidence_subgraph(g, ell).graph, ell)


def test_expand_class_star_paste():
    g = families.path(4)
    recipe = ExpansionRecipe(
        pastes=(PasteInstruction(component_index=0, vertex=2, tree=families.star(3)),)
    )
    out = expand_class(g, 4, recipe)
    assert is_isomorphic(out, star_on_path_middle(3))
    assert is_l_equivalent(out, g, 4)
    assert is_isomorphic(incidence_subgraph(out, 4).graph, g)
    assert link_graph(out, 4).graph.n == 1


def test_expand_class_empty_recipe_identity():
    g = families.path(5)
    assert expand_class(g, 5, ExpansionRecipe()) == g


def test_expand_class_extra_components():
    g = families.path(4)
    recipe = ExpansionRecipe(extra_components=(families.star(2), families.path(3)))
    out = expand_class(g, 4, recipe)
    assert out.n == g.n + 3 + 4
    assert is_l_equivalent(out, g, 4)


def test_expand_class_rejects_violations():
    g = families.path(4)
    with pytest.raises(RecipeError):
        # height 2 > ell - s - 1 = 1 at the middle vertex
        expand_class(
            g,
            4,
            ExpansionRecipe(
                pastes=(PasteInstruction(0, 2, families.path(2), root=0),)
            ),
        )
    with pytest.raises(RecipeError):
        # eccentricity of an end vertex is 4 > ell - 2
        expand_class(
            g, 4, ExpansionRecipe(pastes=(PasteInstruction(0, 0, families.star(1)),))
        )
    for root in (-1, 4):
        with pytest.raises(RecipeError, match="pasted tree"):
            expand_class(g, 4, ExpansionRecipe(
                pastes=(PasteInstruction(0, 2, families.star(3), root=root),)
            ))
    with pytest.raises(RecipeError):
        # extra component too wide
        expand_class(
            g, 4, ExpansionRecipe(extra_components=(families.path(4),))
        )
    with pytest.raises(RecipeError):
        expand_class(families.star(3), 3, ExpansionRecipe())


def test_expand_class_round_trip_random_recipes():
    base = families.path(4)
    trees = [families.star(1), families.star(2), families.star(3)]
    for tree in trees:
        out = expand_class(
            base, 4, ExpansionRecipe(pastes=(PasteInstruction(0, 2, tree),))
        )
        assert is_isomorphic(incidence_subgraph(out, 4).graph, base)


def test_incidence_pairs_on_paths():
    for ell in (2, 3, 4):
        g = families.path(ell)
        for s in range(ell + 1):
            total, per_link = count_incidence_pairs(g, ell, s)
            assert set(per_link.values()) == {ell - s + 1}


def test_incidence_pairs_triangle_wraps():
    total, per_link = count_incidence_pairs(families.cycle(3), 3, 0)
    assert set(per_link.values()) == {3}
    assert total == 9


def test_incidence_pairs_disjoint_cycles_equality():
    g = families.cycle(3).disjoint_union(families.cycle(3))
    ell = 4
    for s in (0, 1):  # s <= ell - girth
        total, per_link = count_incidence_pairs(g, ell, s)
        assert total == 3 * len(brute_force_links(g, ell))


def test_incidence_pairs_rejects_bad_s():
    with pytest.raises(Exception):
        count_incidence_pairs(families.path(3), 2, 3)


def test_incidence_pairs_bounds_on_corpus():
    for g in random_graph_corpus(seed=127, count=20, max_n=6, max_m=8):
        for ell in (1, 2, 3):
            for s in range(ell + 1):
                total, per_link = count_incidence_pairs(g, ell, s)
                assert total == sum(per_link.values())


def test_expand_class_inner_bridge_pastes_keep_cycle_root():
    # the minimal acyclic root of C4 at ell = 5 admits pastes at inner bridge
    # vertices with height below min{i, ell - s - i}
    from linkgraph.construct import link_graph as build

    g = families.middle_joined_paths(1, 4)
    assert is_l_minimal(g, 5)
    bridge_mid = [v for v in range(g.n) if metrics(g).eccentricity[v] == 3]
    assert len(bridge_mid) == 1
    recipe = ExpansionRecipe(
        pastes=(PasteInstruction(0, bridge_mid[0], families.star(2)),)
    )
    out = expand_class(g, 5, recipe)
    assert is_isomorphic(build(out, 5).graph, families.cycle(4))
    assert is_isomorphic(incidence_subgraph(out, 5).graph, g)
