import gc
import itertools
import os
import re
import subprocess
import sys
import textwrap
import warnings
from types import SimpleNamespace

import pytest

from linkgraph import families
from linkgraph.canon import canonical_form, is_isomorphic
from linkgraph.construct import link_graph, path_graph
from linkgraph.incidence import is_l_minimal
from linkgraph.multigraph import Multigraph
from linkgraph import search as search_module
from linkgraph.search import (
    BudgetExceeded,
    SearchOptions,
    SearchRefused,
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
    brute_force_path_pairs,
    brute_force_paths,
    delete_unit,
    exhaustive_multigraphs,
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
        via_search = minimal_link_roots(
            families.cycle(t), ell, SearchOptions(max_edges_limit=t * ell)
        )
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


def test_search_refusal_on_large_bounds():
    with pytest.raises(SearchRefused):
        minimal_link_roots(families.cycle(12), 3)
    with pytest.raises(SearchRefused):
        minimal_path_roots(families.cycle(12), 3)


def test_search_options_rejected():
    for kwargs in (
        {"budget_seconds": 0},
        {"budget_seconds": -1.0},
        {"budget_seconds": float("nan")},
        {"max_edges_limit": 0},
    ):
        with pytest.raises(ValueError):
            SearchOptions(**kwargs)


def test_search_budget_exceeded():
    with pytest.raises(BudgetExceeded) as err:
        minimal_link_roots(
            families.cycle(6), 2, SearchOptions(budget_seconds=1e-4)
        )
    assert err.value.stats.explored >= 1
    assert err.value.partial is not None


def test_budget_lists_every_root_below_its_level(monkeypatch):
    # a clock that ticks once per call stops the search at a chosen state;
    # the level it stops on bounds the roots the partial answer must hold
    full = minimal_link_roots(families.empty_graph(2), 6)
    levels = []
    for budget in (70, 400):
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
        assert below and below <= partial <= full.canonical_set()
        levels.append(level)
    assert levels == [8, 12]  # R_6(2K1) has roots with 7, 8 and 12 edges


def test_search_counts_repeated_children_per_parent():
    # one parent of R_6(2K1) makes twice a class that an earlier parent on
    # its level made first: parent-rejected once, then a duplicate
    stats = minimal_link_roots(families.empty_graph(2), 6).stats
    assert (stats.explored, stats.candidates_generated, stats.orbit_skipped,
            stats.pruned, stats.duplicates, stats.parent_rejected,
            stats.accepted) == (491, 4030, 4673, 2137, 1, 1402, 3)


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
    from linkgraph.links import count_arcs_by_length

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
    # the path graph and minimality straight from the brute-force paths,
    # with none of the search's prunes
    for h, ell in (
        (families.path(1), 2),
        (families.path(2), 2),
        (families.empty_graph(2), 1),
        (families.empty_graph(2), 2),
    ):
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

    t = families.double_star(3, 2)
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
        search.find_isomorphism = lambda g, h: {v: 0 for v in range(g.n)}
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


def test_search_state_freed_without_cyclic_gc(monkeypatch):
    # a finished search leaves no reference cycle holding its labellings,
    # and nothing but the spy below holds its component memo
    memos = []
    labeling = search_module.canonical_labeling

    def spy(g, memo=None):
        memos.append(memo)
        return labeling(g, memo=memo)

    monkeypatch.setattr(search_module, "canonical_labeling", spy)
    gc.collect()
    gc.disable()
    try:
        for search, h in (
            (minimal_link_roots, families.cycle(5)),
            (minimal_path_roots, families.cycle(3)),
        ):
            memos.clear()
            assert len(search(h, 2)) >= 1
            assert gc.collect() == 0, search.__name__
            memo = memos[0]
            assert memo and all(m is memo for m in memos)
            memos.clear()
            assert sys.getrefcount(memo) == 2, search.__name__  # memo + argument
            del memo
    finally:
        gc.enable()


# The benchmark's ten root searches.  The first tuple is what the search
# counted before it proposed one edge per orbit of the parent's automorphism
# group (the seed-commit counters perfbench/workloads.py records): explored,
# proposals, parent_rejected, accepted.  The component bound and the path
# caps have since shrunk the tree, so its explored and proposal counts are
# upper bounds.  The second tuple is the exact count now: explored,
# candidates, orbit_skipped, parent_rejected.  Then the canonical forms of
# the roots, in hex.
ORBIT_SEARCH_TARGETS = {
    "R_2(C6)": (families.cycle(6), 2, False, (318, 15490, 723, 2),
                (25, 178, 140, 12), {
        "060006000100020103020403050405", "070006000301040205030604060506"}),
    "R_2(C5)": (families.cycle(5), 2, False, (136, 4805, 241, 1),
                (17, 95, 77, 6), {
        "05000500010002010302040304"}),
    "R_3(C3)": (families.cycle(3), 3, False, (89, 2701, 153, 1),
                (11, 57, 38, 2), {
        "030003000100020102"}),
    "R_5(2K1)": (families.empty_graph(2), 5, False, (243, 6059, 812, 3),
                 (142, 883, 1157, 279), {
        "070006000301060206030404050506",
        "0800070003010402050306040705070607",
        "0c000a0002010302040305040506080709080a090b0a0b"}),
    "R_4(2K1)": (families.empty_graph(2), 4, False, (72, 1283, 147, 2),
                 (46, 210, 290, 61), {
        "06000500030105020503040405", "0a000800020103020403040507060807090809"}),
    "Q_3(K2)": (families.path(1), 3, True, (132, 994, 172, 1),
                (19, 79, 49, 9), {
        "0500040002010302040304"}),
    "Q_2(P2)": (families.path(2), 2, True, (59, 589, 68, 2),
                (11, 50, 21, 3), {
        "0400040001010202030203", "0500040002010302040304"}),
    "Q_2(P3)": (families.path(3), 2, True, (250, 4283, 457, 1),
                (20, 118, 45, 8), {
        "06000500020103020403050405"}),
    "Q_2(C4)": (families.cycle(4), 2, True, (265, 4523, 479, 2),
                (22, 127, 56, 8), {
        "0400040001000201030203", "04000500010002000201030103"}),
    "Q_2(C3)": (families.cycle(3), 2, True, (65, 649, 74, 1),
                (12, 52, 25, 3), {
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
            stats.parent_rejected) == counters
    assert stats.accepted == accepted
    assert {r.canonical.hex() for r in found} == roots


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
    # every class that passes the prunes is visited, and only once
    visited = []
    try_accept = target_class.try_accept

    def spy(self, g, cert, sizes):
        visited.append(cert.data)
        return try_accept(self, g, cert, sizes)

    monkeypatch.setattr(target_class, "try_accept", spy)
    search = minimal_link_roots if target_class.mode == "link" else minimal_path_roots
    search(h, ell, options)
    assert len(visited) == len(set(visited))

    bounds = compute_bounds(h, ell)
    target = target_class(h, ell, bounds, options)

    def in_bounds(g):
        if len(g.components()) > target.max_components:
            return False
        if g.max_degree() > target.max_degree:
            return False
        if any(g.multiplicity(u, v) > target.max_multiplicity for u, v in g.edges):
            return False
        if target.forbid_cycles and not g.is_acyclic():
            return False
        return target.measure(g) is not None

    expected = {
        canonical_form(g).data
        for g in exhaustive_multigraphs(bounds.max_n, bounds.max_m)
        if in_bounds(g)
    }
    assert set(visited) == expected
