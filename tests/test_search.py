import gc
import itertools
import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from types import SimpleNamespace

import pytest

from linkgraph import families
from linkgraph.canon import canonical_form, is_isomorphic
from linkgraph.construct import link_graph, path_graph
from linkgraph.incidence import is_l_minimal
from linkgraph.links import count_arcs_by_length, count_links, iter_links
from linkgraph.multigraph import Multigraph
from linkgraph import search as search_module
from linkgraph.search import (
    BudgetExceeded,
    SearchOptions,
    attach_tail,
    compute_bounds,
    cycle_roots,
    is_path_minimal,
    minimal_link_roots,
    minimal_path_roots,
    pair_empty_roots,
    tail_threshold,
)

from util import (
    bond,
    brute_force_path_pairs,
    brute_force_paths,
    delete_unit,
    double_star,
    exhaustive_multigraphs,
    legal_deletions,
    random_graph_corpus,
)


def certs(graphs):
    return {canonical_form(g).data for g in graphs}


def two_k2():
    return families.path(1).disjoint_union(families.path(1))


def c3_k1():
    return families.cycle(3).disjoint_union(Multigraph(1))


def test_bounds_whitney():
    b = compute_bounds(families.complete(3), 1)
    assert (b.max_m, b.max_n, b.max_degree) == (3, 4, 3)


def test_bounds_empty_pair():
    b = compute_bounds(families.empty_graph(2), 3)
    assert (b.max_m, b.max_n) == (6, 8)
    assert b.max_cyclic_components == 0


def test_bounds_single_vertex():
    for ell in (1, 2, 5):
        b = compute_bounds(Multigraph(1), ell)
        assert (b.max_m, b.max_n) == (ell, ell + 1)


def test_whitney_reproduction():
    roots = minimal_link_roots(families.complete(3), 1)
    assert roots.canonical_set() == certs([families.complete(3), families.star(3)])
    for r in roots:
        assert is_l_minimal(r.graph, 1)
        assert is_isomorphic(link_graph(r.graph, 1).graph, families.complete(3))


def test_roots_of_single_vertex_is_path():
    for ell in (1, 2, 3):
        roots = minimal_link_roots(Multigraph(1), ell)
        assert roots.canonical_set() == certs([families.path(ell)])


def test_roots_at_zero_is_target_itself():
    g = families.cycle(3).disjoint_union(families.star(2))
    roots = minimal_link_roots(g, 0)
    assert roots.canonical_set() == certs([g])


def test_roots_of_null_graph():
    roots = minimal_link_roots(Multigraph(0), 4)
    assert roots.canonical_set() == certs([Multigraph(0)])


def test_cycle_roots_closed_form_matches_search():
    # (8, 5) is the t = 4s, ell >= 2s + 1 branch with s = 2
    for t, ell in ((3, 1), (4, 2), (6, 2), (4, 3), (5, 2), (7, 3), (8, 5)):
        via_search = minimal_link_roots(families.cycle(t), ell)
        closed = cycle_roots(t, ell)
        assert via_search.canonical_set() == closed.canonical_set(), (t, ell)


def test_cycle_roots_families():
    assert len(cycle_roots(6, 2)) == 2
    assert len(cycle_roots(5, 3)) == 1
    assert len(cycle_roots(4, 3)) == 2
    assert len(cycle_roots(2, 4)) == 1
    assert len(cycle_roots(12, 4)) == 2  # t = 3 ell
    assert len(cycle_roots(12, 7)) == 2  # t = 4s, ell >= 2s + 1
    with pytest.raises(Exception):
        cycle_roots(1, 2)


def test_pair_empty_counts():
    assert len(pair_empty_roots(0)) == 1
    for ell in range(1, 8):
        assert len(pair_empty_roots(ell)) == (ell + 1) // 2


def test_pair_empty_membership_small():
    for ell in (1, 2, 3, 4):
        via_search = minimal_link_roots(families.empty_graph(2), ell)
        assert via_search.canonical_set() == pair_empty_roots(ell).canonical_set()


def test_search_is_deterministic():
    a = minimal_link_roots(families.complete(3), 1)
    b = minimal_link_roots(families.complete(3), 1)
    assert [r.canonical.data for r in a] == [r.canonical.data for r in b]


def test_roots_options_trees_only():
    roots = minimal_link_roots(
        families.cycle(6), 2, SearchOptions(forests_only=True, connected_only=True)
    )
    assert roots.canonical_set() == certs([families.subdivided_star(3, 2)])


def test_roots_options_connected_only():
    roots = minimal_link_roots(
        families.empty_graph(2), 3, SearchOptions(connected_only=True)
    )
    # only the tailed path remains; the two-path forest is disconnected
    assert roots.canonical_set() == certs([families.tailed_path(3, 1, 1)])


def test_large_edge_bound_is_searched_up_to_the_state_cap():
    # R_3(C12) may grow 36 edges but explores a few hundred states; the
    # cap, not the edge bound, stops a search
    found = minimal_link_roots(families.cycle(12), 3)
    assert found.canonical_set() == cycle_roots(12, 3).canonical_set()


@pytest.mark.parametrize("h, ell", [
    (families.empty_graph(300), 1),  # H itself has no certificate
    (families.empty_graph(1), 300),  # the search may grow 301 vertices
    (families.cycle(300), 0),
])
def test_search_past_the_certificate_size_is_rejected(h, ell):
    with pytest.raises(ValueError, match=r"vertices; canonical forms hold at most 255"):
        minimal_path_roots(h, ell)


def test_search_options_rejected():
    for kwargs in (
        {"budget_seconds": 0},
        {"budget_seconds": -1.0},
        {"budget_seconds": float("nan")},
        {"max_states": 0},
    ):
        with pytest.raises(ValueError):
            SearchOptions(**kwargs)


def test_search_budget_exceeded():
    # a stop counts only the states taken before it, which may be none
    full = minimal_link_roots(families.cycle(6), 2)
    with pytest.raises(BudgetExceeded) as err:
        minimal_link_roots(
            families.cycle(6), 2, SearchOptions(budget_seconds=1e-4)
        )
    assert err.value.stats.explored < full.stats.explored
    assert err.value.partial is not None


def test_budget_lists_every_root_below_its_level(monkeypatch):
    # a clock that ticks once per call stops the search at a chosen state;
    # the level it stops on bounds the roots the partial answer must hold
    full = minimal_link_roots(families.empty_graph(2), 6)
    levels, stops = [], []
    for budget in (21, 22, 50, 90):
        ticks = itertools.count()
        monkeypatch.setattr(search_module, "time",
                            SimpleNamespace(monotonic=lambda: float(next(ticks))))
        with pytest.raises(BudgetExceeded) as err:
            minimal_link_roots(
                families.empty_graph(2), 6, SearchOptions(budget_seconds=budget))
        level = int(re.search(r"at (\d+) edges", str(err.value)).group(1))
        assert str(err.value) == (
            f"search budget of {budget}s exhausted at {level} edges; "
            f"every root with fewer than {level} edges is listed")
        below = {r.canonical.data for r in full if r.graph.m < level}
        partial = err.value.partial.canonical_set()
        assert below <= partial <= full.canonical_set()
        levels.append(level)
        stops.append((err.value.stats.union_steps, len(partial)))
    assert levels == [6, 6, 8, 12]  # R_6(2K1) has roots with 7, 8 and 12 edges
    # the first stop refuses the union step that builds P_6 + P_6 once the
    # block K1 accepts P_6 on level 6, after the two blocks were built; one
    # tick more takes it, and the union, with 12 edges, is listed at once
    assert stops == [(2, 0), (3, 1), (3, 3), (3, 3)]


def union_stops(stops, full):
    """The partial root counts of the stops among the unions, given the
    (union steps, explored, partial roots) of each stop in turn, one state
    apart: a stop there refuses a union step after the block searches have
    begun, which the next run takes."""
    stops = stops + [(full.stats.union_steps, full.stats.explored, len(full))]
    return [roots for (steps, explored, roots), (next_steps, _, _)
            in zip(stops, stops[1:]) if explored and next_steps > steps]


@pytest.mark.parametrize("search, h, ell", [
    (minimal_link_roots, families.empty_graph(2), 4),
    (minimal_path_roots, families.empty_graph(3), 2),
])
def test_every_budget_stop_lists_the_roots_below_its_level(monkeypatch, search, h, ell):
    # stop at every tick of a clock that ticks once per call, through the
    # block states and the unions, until the search finishes
    full = search(h, ell)
    stops = []
    for budget in itertools.count(1):
        ticks = itertools.count()
        monkeypatch.setattr(search_module, "time",
                            SimpleNamespace(monotonic=lambda: float(next(ticks))))
        try:
            search(h, ell, SearchOptions(budget_seconds=budget))
        except BudgetExceeded as err:
            level = int(re.search(r"at (\d+) edges", str(err)).group(1))
            below = {r.canonical.data for r in full if r.graph.m < level}
            assert below <= err.partial.canonical_set() <= full.canonical_set()
            stops.append((err.stats.union_steps, err.stats.explored, len(err.partial)))
        else:
            break
    # some stops fall among the unions, and the first of them before every
    # union is accepted
    among_unions = union_stops(stops, full)
    assert among_unions and among_unions[0] < len(full)


@pytest.mark.parametrize("search, h, ell", [
    (minimal_link_roots, families.empty_graph(2), 4),
    (minimal_path_roots, families.empty_graph(3), 2),
])
def test_every_state_cap_lists_the_roots_below_its_level(search, h, ell):
    # the cap counts explored states and union steps, so a stop needs no
    # clock and two runs under one cap stop alike; every cap below the
    # full count stops, among the block states or among the unions
    full = search(h, ell)
    count = full.stats.explored + full.stats.union_steps
    stops = []
    for cap in range(1, count):
        runs = []
        for _ in range(2):
            with pytest.raises(BudgetExceeded) as err:
                search(h, ell, SearchOptions(max_states=cap))
            runs.append((str(err.value), err.value.partial.canonical_set()))
            stats = err.value.stats
            assert stats.explored + stats.union_steps == cap
        assert runs[0] == runs[1]
        message, partial = runs[0]
        level = int(re.fullmatch(
            rf"search cap of {cap} states reached at (\d+) edges; "
            r"every root with fewer than \1 edges is listed", message).group(1))
        below = {r.canonical.data for r in full if r.graph.m < level}
        assert below <= partial <= full.canonical_set()
        stops.append((stats.union_steps, stats.explored, len(partial)))
    among_unions = union_stops(stops, full)
    assert among_unions and among_unions[0] < len(full)
    capped = search(h, ell, SearchOptions(max_states=count))
    assert capped.canonical_set() == full.canonical_set()


def test_search_counts_repeated_children_per_parent():
    # R_6(2K1), summed over its block searches (K1 and 2K1), never makes a
    # class twice from one parent; the 1-root search of L_2 of the diamond
    # (K4 minus an edge) has parents that do
    stats = minimal_link_roots(families.empty_graph(2), 6).stats
    assert (stats.explored, stats.candidates_generated, stats.orbit_skipped,
            stats.pruned, stats.deletion_skipped, stats.duplicates,
            stats.parent_rejected, stats.accepted) == (87, 352, 171, 134, 133, 0, 0, 3)
    diamond = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    stats = minimal_link_roots(link_graph(diamond, 2).graph, 1).stats
    assert (stats.explored, stats.candidates_generated, stats.orbit_skipped,
            stats.pruned, stats.deletion_skipped, stats.duplicates,
            stats.parent_rejected, stats.accepted) == (409, 3402, 1460, 2049, 898, 1, 46, 0)


def test_witnesses_verified():
    roots = minimal_link_roots(families.cycle(6), 2)
    for r in roots:
        res = link_graph(r.graph, 2)
        mapped = sorted(
            tuple(sorted((r.witness[u], r.witness[v]))) for u, v in res.graph.edges
        )
        assert mapped == sorted(tuple(sorted(e)) for e in families.cycle(6).edges)


def test_path_roots_of_k2():
    roots = minimal_path_roots(families.path(1), 1)
    assert roots.canonical_set() == certs([families.path(2), families.cycle(2)])
    for ell in (2, 3):
        roots = minimal_path_roots(families.path(1), ell)
        assert roots.canonical_set() == certs([families.path(ell + 1)])


def test_path_roots_of_k1_and_null():
    assert minimal_path_roots(Multigraph(1), 3).canonical_set() == certs(
        [families.path(3)]
    )
    assert minimal_path_roots(Multigraph(0), 3).canonical_set() == certs(
        [Multigraph(0)]
    )


def test_path_roots_of_multigraph_target_empty():
    assert len(minimal_path_roots(families.cycle(2), 2)) == 0


def test_path_roots_at_zero():
    g = families.star(2)
    assert minimal_path_roots(g, 0).canonical_set() == certs([g])


def test_pruned_matches_naive_on_tiny_targets():
    targets = [
        (Multigraph(1), 2),
        (families.path(1), 2),
        (families.empty_graph(2), 2),
        (families.complete(3), 1),
        (families.cycle(2), 2),
        (two_k2(), 1),
        (c3_k1(), 1),
    ]
    for h, ell in targets:
        bounds = compute_bounds(h, ell)
        h_cert = canonical_form(h)
        naive = set()
        for g in exhaustive_multigraphs(bounds.max_n, bounds.max_m):
            counts = count_arcs_by_length(g, ell + 1)
            links = counts[ell] // 2 if ell else g.n
            if links != h.n or counts[ell + 1] // 2 != h.m:
                continue
            if not is_l_minimal(g, ell):
                continue
            if canonical_form(link_graph(g, ell).graph) != h_cert:
                continue
            naive.add(canonical_form(g).data)
        assert minimal_link_roots(h, ell).canonical_set() == naive


def test_path_search_matches_naive_on_tiny_targets():
    # criterion 11's targets (ell * n(H) <= 6) less those with parallel
    # edges, which no path graph has; the path graph and minimality of
    # every graph inside the bounds come straight from the brute-force
    # paths, with none of the search's prunes
    zoo = [
        (Multigraph(1), (1, 2, 3, 4, 5, 6)),
        (families.path(1), (1, 2, 3)),
        (families.empty_graph(2), (1, 2, 3)),
        (families.cycle(3), (1, 2)),
        (families.path(2), (1, 2)),
        (families.empty_graph(3), (1, 2)),
        (Multigraph(3, [(0, 1)]), (1, 2)),
        (families.cycle(4), (1,)),
        (families.star(3), (1,)),
        (families.path(3), (1,)),
        (families.empty_graph(4), (1,)),
        (families.cycle(5), (1,)),
        (families.cycle(6), (1,)),
        (families.path(5), (1,)),
    ]
    with_roots = 0
    for h, ell in [(h, ell) for h, ells in zoo for ell in ells]:
        bounds = compute_bounds(h, ell)
        h_cert = canonical_form(h)
        naive = set()
        for g in exhaustive_multigraphs(bounds.max_n, bounds.max_m):
            paths = sorted(brute_force_paths(g, ell))
            if len(paths) != h.n:
                continue
            pairs = brute_force_path_pairs(g, ell)
            if len(pairs) != h.m:
                continue
            if {v for seq in paths for v in seq[0::2]} != set(range(g.n)):
                continue
            if {e for seq in paths for e in seq[1::2]} != set(range(g.m)):
                continue
            index = {seq: i for i, seq in enumerate(paths)}
            built = Multigraph(h.n, [(index[a], index[b]) for a, b in pairs])
            if canonical_form(built) != h_cert:
                continue
            naive.add(canonical_form(g).data)
        assert minimal_path_roots(h, ell).canonical_set() == naive, (h, ell)
        with_roots += bool(naive)
    assert with_roots == 26


def test_forest_roots_agree_across_modes():
    # in a forest every ell-link is an ell-path, so the forest roots of
    # R_ell(H) and Q_ell(H) are one set, which the two modes reach through
    # different counts: walk columns in link mode, the paths through each
    # new edge in path mode
    simple = [g for g in exhaustive_multigraphs(5, 6)
              if g.n and not g.has_parallel_edges()]
    targets = simple + [g.disjoint_union(Multigraph(1)) for g in simple if g.n <= 4]
    forests = SearchOptions(forests_only=True)
    with_roots = 0
    for h in targets:
        for ell in (1, 2, 3, 4):
            links = minimal_link_roots(h, ell, forests).canonical_set()
            assert links == minimal_path_roots(h, ell, forests).canonical_set(), (h, ell)
            with_roots += bool(links)
    assert (len(targets), with_roots) == (35, 66)


def test_exhaustive_multigraph_level_counts():
    from collections import Counter

    counts = Counter(g.m for g in exhaustive_multigraphs(8, 3))
    assert counts == {0: 1, 1: 1, 2: 3, 3: 8}
    seen = set()
    for g in exhaustive_multigraphs(6, 3):
        cert = canonical_form(g).data
        assert cert not in seen
        seen.add(cert)
        assert all(g.degree(v) >= 1 for v in range(g.n))


def test_is_path_minimal_matches_definitional():
    def definitional(g, ell):
        if g.n == 0:
            return True
        base = _path_profile(g, ell)
        for eid in range(g.m):
            if _path_profile(delete_unit(g, "edge", eid), ell) == base:
                return False
        for v in range(g.n):
            if _path_profile(delete_unit(g, "vertex", v), ell) == base:
                return False
        return True

    def _path_profile(g, ell):
        return (len(brute_force_paths(g, ell)), len(brute_force_path_pairs(g, ell)))

    for g in random_graph_corpus(seed=137, count=30, max_n=6, max_m=6):
        for ell in (1, 2, 3):
            assert is_path_minimal(g, ell) == definitional(g, ell), (g, ell)


def test_seven_example_path_minimality():
    chord = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    p = families.path(4)
    assert is_l_minimal(chord, 4) and is_l_minimal(p, 4)
    assert is_path_minimal(p, 4)
    assert not is_path_minimal(chord, 4)
    assert is_isomorphic(path_graph(chord, 4).graph, Multigraph(1))
    assert is_isomorphic(path_graph(p, 4).graph, Multigraph(1))


def test_tail_threshold_cases():
    two_path = families.path(2)
    assert tail_threshold(two_path, 1) == 2  # middle vertex, degree 2
    assert tail_threshold(two_path, 0) == -1  # end of a path
    assert tail_threshold(Multigraph(1), 0) == -1
    claw = families.star(3)
    assert tail_threshold(claw, 1) == 2  # leaf: far side is the whole claw
    spider = families.tailed_path(2, 1, 2)  # center with three legs 1,1,2
    assert tail_threshold(spider, 3) == 3


def test_attach_tail_copy_lemma_figure():
    t = families.path(2)
    g = attach_tail(t, 1, 3)
    assert is_isomorphic(link_graph(g, 3).graph, t)
    assert is_isomorphic(path_graph(g, 3).graph, t)


def test_attach_tail_warns_below_threshold():
    t = families.path(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        attach_tail(t, 1, 2)  # threshold is diam + 1 = 3
    assert caught


def test_attach_tail_on_path_end_recovers_tree():
    t = families.path(3)
    g = attach_tail(t, 0, 4)
    assert is_isomorphic(link_graph(g, 4).graph, t)


def test_double_star_has_four_tail_classes():
    from linkgraph.canon import vertex_orbits

    t = double_star(3, 2)
    orbits = vertex_orbits(t)
    assert len(orbits) == 4
    reps = [o[0] for o in orbits]
    ell = max(tail_threshold(t, v) for v in reps) + 1
    glued = [attach_tail(t, v, ell) for v in reps]
    assert len({canonical_form(g).data for g in glued}) == 4
    for g in glued:
        assert is_isomorphic(link_graph(g, ell).graph, t)


def test_audit_runs_on_every_root():
    # the audits are checks inside the search; both searches succeeding
    # on a mixed target exercises them
    target = link_graph(families.tailed_path(3, 1, 1), 3).graph  # 2K1
    roots = minimal_link_roots(target, 3)
    assert len(roots) == 2


def test_forged_witness_caught_under_optimize():
    # python -O strips assert statements; the witness and count checks
    # must survive it
    script = textwrap.dedent(
        """
        import sys
        from linkgraph import families, incidence, search

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        canonical_labeling = search.canonical_labeling
        link_graph = search.link_graph
        sequence_girth = incidence._sequence_girth

        def forged(g, colors=None):
            # the right form with every vertex at label 0, so the witness
            # composed from two labellings is no bijection; K2 and 2K1,
            # below, have every bijection as an automorphism, so no
            # permuted labelling could fail the check on them
            return canonical_labeling(g, colors)[0], (0,) * g.n

        search.canonical_labeling = forged
        incidence._sequence_girth = lambda items: 0
        runs = {
            "link search": lambda: search.minimal_link_roots(families.cycle(4), 1),
            "path search": lambda: search.minimal_path_roots(families.path(1), 1),
            "closed form": lambda: search.cycle_roots(6, 2),
            "incidence pairs": lambda: incidence.count_incidence_pairs(
                families.path(4), 3, 1
            ),
        }
        for name, run in runs.items():
            try:
                run()
            except search.InternalCheckError:
                continue
            sys.exit(name + " passed a forged check")

        # forge only the labellings of the unions' link graphs, which the
        # block searches never see: each union of block roots is checked
        incidence._sequence_girth = sequence_girth
        unions = []

        def spy(g, ell):
            result = link_graph(g, ell)
            if len(g.components()) > 1:
                unions.append(result.graph)
            return result

        search.link_graph = spy
        search.canonical_labeling = lambda g, colors=None: (
            forged(g) if any(g is u for u in unions)
            else canonical_labeling(g, colors))
        try:
            search.minimal_link_roots(families.empty_graph(2), 3)
        except search.InternalCheckError:
            pass
        else:
            sys.exit("a union of block roots passed a forged check")
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(search_module.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_search_state_freed_without_cyclic_gc():
    # a finished search leaves no reference cycle holding its labellings
    gc.collect()
    gc.disable()
    try:
        for search, h in (
            (minimal_link_roots, families.cycle(5)),
            (minimal_path_roots, families.cycle(3)),
        ):
            assert len(search(h, 2)) >= 1
            assert gc.collect() == 0, search.__name__
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "search, h, ell",
    [
        (minimal_link_roots, families.cycle(5), 3),
        (minimal_link_roots, families.empty_graph(2), 6),  # a block search
        (minimal_path_roots, families.path(2), 3),
    ],
    ids=["R_3(C5)", "R_6(2K1)", "Q_3(P2)"],
)
def test_each_child_is_labelled_once(monkeypatch, search, h, ell):
    # the child's labelling also gives its generators, so an explored
    # parent is not labelled again; a child the canonical-deletion
    # pre-test skips is not labelled at all; the accept path labels
    # through canonical_labeling, which this spy does not see
    calls = []
    labelling = search_module.canonical_search

    def spy(g, colors=None):
        calls.append(g)
        return labelling(g, colors)

    monkeypatch.setattr(search_module, "canonical_search", spy)
    stats = search(h, ell).stats
    assert stats.explored > 1 and stats.deletion_skipped > 0
    assert len(calls) == (
        stats.candidates_generated - stats.pruned - stats.deletion_skipped)


def test_each_construction_is_labelled_once(monkeypatch):
    # the target is labelled once per search and each construction once;
    # the witness is composed from the two labellings
    h = families.cycle(5)
    labelled, built = [], []
    labelling, construction = search_module.canonical_labeling, search_module.link_graph

    def labelling_spy(g, colors=None):
        labelled.append(g)
        return labelling(g, colors)

    def construction_spy(g, ell):
        built.append(g)
        return construction(g, ell)

    monkeypatch.setattr(search_module, "canonical_labeling", labelling_spy)
    monkeypatch.setattr(search_module, "link_graph", construction_spy)
    assert len(minimal_link_roots(h, 3)) == 1
    assert built and [g for g in labelled if g is h] == [h]
    assert len(labelled) == len(built) + 1


# The benchmark's ten root searches.  The first tuple is what the search
# counted before it proposed one edge per orbit of the parent's automorphism
# group (the seed-commit counters perfbench/workloads.py records): explored,
# proposals, parent_rejected, accepted.  Growing connected graphs only (one
# block of the target's components at a time) and the path caps have since
# shrunk the tree, so its explored and proposal counts are upper bounds.
# The second tuple is the exact count now: explored, candidates,
# orbit_skipped, pruned, deletion_skipped, parent_rejected; for the 2K1
# targets, summed over the searches of the blocks K1 and 2K1.  Then the
# canonical forms of the roots, in hex.
ORBIT_SEARCH_TARGETS = {
    "R_2(C6)": (families.cycle(6), 2, False, (318, 15490, 723, 2),
                (25, 178, 140, 142, 12, 0), {
        "060006000100020103020403050405", "070006000301040205030604060506"}),
    "R_2(C5)": (families.cycle(5), 2, False, (136, 4805, 241, 1),
                (17, 95, 77, 73, 6, 0), {
        "05000500010002010302040304"}),
    "R_3(C3)": (families.cycle(3), 3, False, (89, 2701, 153, 1),
                (11, 57, 38, 45, 2, 0), {
        "030003000100020102"}),
    "R_5(2K1)": (families.empty_graph(2), 5, False, (243, 6059, 812, 3),
                 (32, 85, 55, 33, 22, 0), {
        "070006000301060206030404050506",
        "0800070003010402050306040705070607",
        "0c000a0002010302040305040506080709080a090b0a0b"}),
    "R_4(2K1)": (families.empty_graph(2), 4, False, (72, 1283, 147, 2),
                 (16, 29, 19, 10, 5, 0), {
        "06000500030105020503040405", "0a000800020103020403040507060807090809"}),
    "Q_3(K2)": (families.path(1), 3, True, (132, 994, 172, 1),
                (19, 79, 49, 52, 9, 0), {
        "0500040002010302040304"}),
    "Q_2(P2)": (families.path(2), 2, True, (59, 589, 68, 2),
                (11, 50, 21, 37, 3, 0), {
        "0400040001010202030203", "0500040002010302040304"}),
    "Q_2(P3)": (families.path(3), 2, True, (250, 4283, 457, 1),
                (20, 118, 45, 91, 8, 0), {
        "06000500020103020403050405"}),
    "Q_2(C4)": (families.cycle(4), 2, True, (265, 4523, 479, 2),
                (22, 127, 56, 98, 8, 0), {
        "0400040001000201030203", "04000500010002000201030103"}),
    "Q_2(C3)": (families.cycle(3), 2, True, (65, 649, 74, 1),
                (12, 52, 25, 38, 3, 0), {
        "030003000100020102"}),
}


@pytest.mark.parametrize("name", sorted(ORBIT_SEARCH_TARGETS))
def test_orbit_proposals_keep_the_search(name):
    # the tree is no larger than at the seed commit, orbit pruning still
    # skips proposals, and the same roots are accepted
    h, ell, path_mode, seed, counters, roots = ORBIT_SEARCH_TARGETS[name]
    found = (minimal_path_roots if path_mode else minimal_link_roots)(h, ell)
    stats = found.stats
    seed_explored, seed_proposals, _, accepted = seed
    assert stats.explored <= seed_explored
    assert stats.candidates_generated + stats.orbit_skipped <= seed_proposals
    assert stats.orbit_skipped > 0
    assert (stats.explored, stats.candidates_generated, stats.orbit_skipped,
            stats.pruned, stats.deletion_skipped, stats.parent_rejected) == counters
    assert stats.accepted == accepted
    assert {r.canonical.hex() for r in found} == roots


def test_r4_c12_counters_and_roots():
    # most children of this search are pruned, nearly all of them by the
    # parent's walk counts before they are built; the counters are those
    # of the search that built and measured every child.  The
    # canonical-deletion pre-test skips all but 581 of the rest unlabelled,
    # barely more than the 578 classes
    found = minimal_link_roots(families.cycle(12), 4)
    stats = found.stats
    assert (stats.explored, stats.candidates_generated, stats.orbit_skipped,
            stats.pruned, stats.deletion_skipped, stats.duplicates,
            stats.parent_rejected, stats.accepted) == (
                578, 23362, 6892, 21520, 1261, 0, 4, 2)
    assert found.canonical_set() == cycle_roots(12, 4).canonical_set()


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_links_gained_bounds_the_child(ell):
    # the links of g + uv that cross uv once bound its new links from
    # below; a link that crosses uv twice needs a closed walk of g through
    # u, so at a new vertex v of a forest g the bounds are exact
    corpus = random_graph_corpus(seed=ell, count=40, max_n=6, max_m=7)
    assert any(g.has_parallel_edges() for g in corpus)
    exact_cases = 0
    for g in corpus:
        links, super_links = count_links(g, ell), count_links(g, ell + 1)
        columns = search_module._walk_columns(g, ell)[2]
        gained = search_module._links_gained(columns, ell)
        for u in range(g.n):
            for v in range(u + 1, g.n + 1):
                child = g.add_edge(u, v)
                low = gained(u, v)
                new = (count_links(child, ell) - links,
                       count_links(child, ell + 1) - super_links)
                assert low[0] <= new[0] and low[1] <= new[1], (g, ell, u, v)
                if v == g.n and g.is_acyclic():
                    assert low == new, (g, ell, u)
                    exact_cases += 1
    assert exact_cases


def test_links_gained_misses_a_pendant_crossed_twice():
    # a digon plus a pendant edge at 0: the 4-link that leaves the new
    # vertex, goes round the digon and comes back crosses the pendant twice
    digon = Multigraph(2, [(0, 1), (0, 1)])
    columns = search_module._walk_columns(digon, 3)[2]
    assert search_module._links_gained(columns, 3)(0, 2) == (2, 2)
    child = digon.add_edge(0, 2)
    assert count_links(child, 4) - count_links(digon, 4) == 3


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_paths_through_counts_the_child(ell):
    # the paths of g + uv through uv are exactly its new ell-paths, and the
    # (ell + 1)-paths and cycles through uv give exactly its new path-graph
    # edges, by the brute-force counts; so the crossing prunes exactly the
    # children over the target's sizes and gives any other child its sizes
    corpus = random_graph_corpus(seed=ell, count=40, max_n=6, max_m=7)
    assert any(g.has_parallel_edges() for g in corpus)
    through = search_module._paths_through
    unbounded = (10**9, 10**9)
    target = search_module._PathTarget(
        families.path(1), ell, compute_bounds(families.path(1), ell), SearchOptions())

    def sizes_of(graph):
        return (len(brute_force_paths(graph, ell)),
                len(brute_force_path_pairs(graph, ell)))

    outcomes = Counter()
    for g in corpus:
        paths, pairs = sizes_of(g)
        crossings = []
        for spare in (0, 1, 3):
            target.required = (paths + spare, pairs + 2 * spare)
            crossings.append(target.crossing(g, (paths, pairs), g.degrees()))
        for u in range(g.n):
            for v in range(u + 1, g.n + 1):
                child_sizes = sizes_of(g.add_edge(u, v))
                found = through(g, ell, u, v, unbounded)
                assert found == (child_sizes[0] - paths,
                                 child_sizes[1] - pairs), (g, u, v)
                for spare, crossing in zip((0, 1, 3), crossings):
                    required = (paths + spare, pairs + 2 * spare)
                    over = (child_sizes[0] > required[0]
                            or child_sizes[1] > required[1])
                    sizes = crossing(u, v)
                    outcomes[sizes is None] += 1
                    assert sizes == (None if over else child_sizes), (g, u, v, spare)
                for cap in range(found[0]):
                    assert through(g, ell, u, v, (cap, 10**9))[0] == cap + 1
                for cap in range(found[1]):
                    assert through(g, ell, u, v, (10**9, cap))[1] == cap + 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_paths_through_counts_the_closed_cycle(ell):
    # the ell-path from u to v plus uv is C_(ell + 1): its ell + 1 paths
    # and, for ell >= 2, its ell + 1 path-graph edges; at ell = 1 it is a
    # 2-bundle, whose two 1-paths make one edge
    g = families.path(ell)
    child = g.add_edge(0, ell)
    new_pairs = ell + 1 if ell > 1 else 1
    assert search_module._paths_through(g, ell, 0, ell, (10**9, 10**9)) == (
        ell, new_pairs)
    built = path_graph(child, ell).graph
    assert (built.n, built.m) == (ell + 1, new_pairs)


@pytest.mark.parametrize("mu", [1, 2, 5])
def test_paths_through_counts_a_bundle(mu):
    # at ell = 1 a new copy of a mu-bundle is one more 1-path, adjacent to
    # each of the mu copies: one path-graph edge per parallel edge
    g = bond(mu)
    assert search_module._paths_through(g, 1, 0, 1, (10**9, 10**9)) == (1, mu)
    built = path_graph(g.add_edge(0, 1), 1).graph
    assert (built.n, built.m) == (mu + 1, (mu + 1) * mu // 2)


def test_path_search_lists_no_path_inside_the_search(monkeypatch):
    # a child's sizes come from the crossing count on its parent, K1's are
    # known and a union of block roots has the whole target's, so paths
    # are listed only by the final check of a candidate of the right sizes
    calls = Counter()
    accepting = []
    real_try_accept = search_module._PathTarget.try_accept

    def try_accept(self, *args):
        accepting.append(True)
        try:
            return real_try_accept(self, *args)
        finally:
            accepting.pop()

    def spying(function):
        def spy(*args, **kwargs):
            calls[function.__name__, bool(accepting)] += 1
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(search_module._PathTarget, "try_accept", try_accept)
    monkeypatch.setattr(search_module, "iter_links", spying(iter_links))
    monkeypatch.setattr(search_module, "path_graph", spying(path_graph))
    assert len(minimal_path_roots(families.cycle(4), 3)) == 4
    assert len(minimal_path_roots(families.empty_graph(2), 2)) == 2
    assert calls["iter_links", True] and calls["path_graph", True]
    assert not calls["iter_links", False] and not calls["path_graph", False]


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_deletion_pretest_keeps_exactly_the_largest_legal_edges(ell):
    # ell = 0 stands for path mode's degrees, ell >= 1 for link mode's walk
    # columns; with each legal edge moved last, the pre-test keeps the
    # graph exactly when no legal edge has a larger value, so every class
    # keeps at least one of its legal edges
    corpus = [
        g for seed in (1, 2)
        for g in random_graph_corpus(seed=seed, count=150, max_n=7, max_m=10)
        if g.m >= 2 and g.is_connected()
    ]
    assert any(g.has_parallel_edges() for g in corpus)
    bridged = 0  # kept edges that only a bridge beats
    for g in corpus:
        legal = legal_deletions(g)
        kept = 0
        for e in legal:
            h = Multigraph(g.n, g.edges[:e] + g.edges[e + 1:] + (g.edges[e],))
            values = (h.degrees() if ell == 0
                      else search_module._walk_columns(h, ell)[2])
            count = Counter(h.edges)

            def value(edge):
                ends = sorted((values[edge[0]], values[edge[1]]))
                return ends[0], ends[1], count[edge]

            last = value(h.edges[-1])
            expected = all(value(h.edges[f]) <= last for f in legal_deletions(h))
            assert search_module._may_delete_last(h, values) == expected, (g, e)
            kept += expected
            bridged += expected and any(value(f) > last for f in h.edges)
        assert kept >= 1, g
    assert bridged


# Root sets (canonical forms in hex) of targets with several components,
# as the search that grew all components of a root together found them.
MULTI_COMPONENT_ROOTS = {
    "R_1(2K1)": {"04000200010203"},
    "R_2(2K1)": {"0600040002010203050405"},
    "R_3(2K1)": {"0500040003010402040304", "080006000201030203040605070607"},
    "R_4(2K1)": {
        "06000500030105020503040405", "0a000800020103020403040507060807090809",
    },
    "R_5(2K1)": {
        "070006000301060206030404050506", "0800070003010402050306040705070607",
        "0c000a0002010302040305040506080709080a090b0a0b",
    },
    "R_6(2K1)": {
        "0800070003010702070304040505060607", "09000800030104020503060408050806070708",
        "0e000c0002010302040305040605060709080a090b0a0c0b0d0c0d",
    },
    "R_7(2K1)": {
        "09000800030108020803040405050606070708",
        "0a0009000301040205030604090509060707080809",
        "0b000a0003010402050306040705080609070a080a090a",
        "10000e0002010302040305040605070607080a090b0a0c0b0d0c0e0d0f0e0f",
    },
    "R_1(3K1)": {"060003000102030405"},
    "R_2(3K1)": {"040003000301030203", "090006000201020305040506080708"},
    "R_3(3K1)": {
        "06000500040105020503050405", "0900070002010302030407050806080708",
        "0c0009000201030203040605070607080a090b0a0b",
    },
    "R_4(3K1)": {
        "070006000301040205030604060506", "070006000401060206030604050506",
        "0b000900020103020403040508060a070a0809090a",
        "0f000c000201030204030405070608070908090a0c0b0d0c0e0d0e",
    },
    "R_1(2K2)": {"0600040002010203050405"},
    "R_1(C3+K1)": {"0500040001020302040304", "0600040001020503050405"},
    "R_2(2K2)": {"080006000201030203040605070607"},
    "R_2(C3+K1)": {"06000500020102030403050405"},
    "R_2(K2+K1)": {"07000500020102030504060506"},
    "R_3(K2+K1)": {"0900070002010302030406050706080708"},
    "Q_2(2K1)": {"030003000101020102", "0600040002010203050405"},
    "Q_3(2K1)": {
        "0400040001010202030203", "0400040002010302030203", "0400040003010201030203",
        "0500040003010402040304", "080006000201030203040605070607",
    },
    "Q_2(K2+K1)": {"07000500020102030504060506"},
    "Q_2(2K2)": {"0400040002010302030203", "080006000201030203040605070607"},
    "Q_2(3K1)": {
        "0300040001010201020102", "040003000301030203", "06000500020102030404050405",
        "090006000201020305040506080708",
    },
}

MULTI_COMPONENT_TARGETS = {
    "2K1": families.empty_graph(2),
    "3K1": families.empty_graph(3),
    "2K2": two_k2(),
    "C3+K1": c3_k1(),
    "K2+K1": families.path(1).disjoint_union(Multigraph(1)),
}


@pytest.mark.parametrize("name", list(MULTI_COMPONENT_ROOTS))
def test_block_search_keeps_multi_component_roots(name):
    mode, ell, target = re.fullmatch(r"([RQ])_(\d)\((.+)\)", name).groups()
    search = minimal_link_roots if mode == "R" else minimal_path_roots
    found = search(MULTI_COMPONENT_TARGETS[target], int(ell))
    assert {r.canonical.hex() for r in found} == MULTI_COMPONENT_ROOTS[name]


def test_path_roots_of_k2_and_three_isolated_vertices():
    # the search that grew all four components together ran past 60 s here
    h = families.path(1).disjoint_union(families.empty_graph(3))
    roots = minimal_path_roots(h, 3, SearchOptions(budget_seconds=30))
    assert len(roots) == 12
    for r in roots:
        assert is_path_minimal(r.graph, 3)
        assert is_isomorphic(path_graph(r.graph, 3).graph, h)


def test_rejected_union_of_block_roots_raises(monkeypatch):
    # every union of block roots is a root; one that fails the whole
    # target's check is a program fault, never dropped
    complete = search_module._LinkTarget.complete
    monkeypatch.setattr(search_module._LinkTarget, "complete",
                        lambda self, g: g.is_connected() and complete(self, g))
    with pytest.raises(search_module.InternalCheckError):
        minimal_link_roots(families.empty_graph(2), 3)


@pytest.mark.parametrize("search, h, ell, union_steps", [
    (minimal_link_roots, families.empty_graph(6), 2, 15),
    (minimal_path_roots, families.empty_graph(3), 3, 19),
    (minimal_link_roots, families.empty_graph(2), 4, 3),
])
def test_each_union_is_built_once(monkeypatch, search, h, ell, union_steps):
    # a union is built when its last part is accepted, so the whole target
    # checks each root exactly once and nothing else; the steps are one per
    # block built and one per block root a new root's completions try
    tried = []
    init = search_module._Unions.__init__

    def spying_init(self, whole, stats, reached):
        init(self, whole, stats, reached)
        try_accept = whole.try_accept

        def spy(g, cert, sizes):
            tried.append(cert.data)
            return try_accept(g, cert, sizes)

        whole.try_accept = spy

    monkeypatch.setattr(search_module._Unions, "__init__", spying_init)
    found = search(h, ell)
    assert sorted(tried) == sorted(found.canonical_set())
    assert found.stats.union_steps == union_steps


def test_forests_only_combines_forest_roots():
    # R_1(C3 + K1) is {K3 + K2, K_{1,3} + K2}: only the second is a forest
    full = minimal_link_roots(c3_k1(), 1)
    forests = minimal_link_roots(c3_k1(), 1, SearchOptions(forests_only=True))
    assert len(full) == 2
    assert forests.canonical_set() == {
        r.canonical.data for r in full if r.graph.is_acyclic()
    }
    assert len(forests) == 1


@pytest.mark.parametrize("h, ell, target_class", [
    (families.complete(3), 1, search_module._LinkTarget),
    (families.cycle(3), 2, search_module._LinkTarget),
    (families.path(2), 2, search_module._LinkTarget),
    (families.path(2), 2, search_module._PathTarget),
    (families.path(1), 2, search_module._PathTarget),
    (families.empty_graph(2), 2, search_module._LinkTarget),
    (families.empty_graph(2), 3, search_module._LinkTarget),
    (two_k2(), 1, search_module._LinkTarget),
    (c3_k1(), 1, search_module._LinkTarget),
    (families.empty_graph(2), 2, search_module._PathTarget),
])
def test_search_visits_each_class_in_bounds_once(monkeypatch, h, ell, target_class):
    assert_visits_each_class_in_bounds_once(
        monkeypatch, h, ell, target_class, SearchOptions())


@pytest.mark.parametrize("target_class", [
    search_module._LinkTarget, search_module._PathTarget])
def test_connected_search_visits_each_class_in_bounds_once(monkeypatch, target_class):
    assert_visits_each_class_in_bounds_once(
        monkeypatch, families.empty_graph(2), 2, target_class,
        SearchOptions(connected_only=True))


def assert_visits_each_class_in_bounds_once(monkeypatch, h, ell, target_class, options):
    # every connected class that passes a searched target's prunes is
    # visited, and only once; a target of several components is searched
    # block by block, and the whole target then checks each union of roots
    visited = {}
    try_accept = target_class.try_accept

    def spy(self, g, cert, sizes):
        visited.setdefault(self, []).append(cert.data)
        return try_accept(self, g, cert, sizes)

    monkeypatch.setattr(target_class, "try_accept", spy)
    search = minimal_link_roots if target_class.mode == "link" else minimal_path_roots
    roots = search(h, ell, options)

    def sizes(target, g):
        if target.mode == "link":
            arcs = count_arcs_by_length(g, target.ell + 1)
            return arcs[target.ell] // 2, arcs[target.ell + 1] // 2
        built = path_graph(g, target.ell).graph
        return built.n, built.m

    def in_bounds(target, g):
        if not g.is_connected():
            return False
        if g.max_degree() > target.max_degree:
            return False
        if any(g.multiplicity(u, v) > target.max_multiplicity for u, v in g.edges):
            return False
        if target.forbid_cycles and not g.is_acyclic():
            return False
        return all(s <= r for s, r in zip(sizes(target, g), target.required))

    for target, seen in visited.items():
        assert len(seen) == len(set(seen))
        if target.h is h and len(visited) > 1:
            assert set(seen) == roots.canonical_set()
            continue
        bounds = target.bounds
        expected = {
            canonical_form(g).data
            # the search starts from K1, not from the empty graph
            for g in (g if g.n else Multigraph(1)
                      for g in exhaustive_multigraphs(bounds.max_n, bounds.max_m))
            if in_bounds(target, g)
        }
        assert set(seen) == expected
