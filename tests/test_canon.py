import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgraph import canon, families
from linkgraph.canon import (
    CanonBudgetExceeded,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    canonical_search,
    find_isomorphism,
    is_isomorphic,
    verify_isomorphism,
    vertex_orbits,
)
from linkgraph.construct import link_graph
from linkgraph.links import count_links
from linkgraph.multigraph import Multigraph

from util import (
    brute_force_vertex_orbits,
    double_star,
    exhaustive_multigraphs,
    full_round_refinement,
    random_graph_corpus,
    random_tree,
)


def test_k3_equals_c3():
    assert is_isomorphic(families.complete(3), families.cycle(3))


def test_parallel_pair_differs_from_single_edge():
    assert not is_isomorphic(families.cycle(2), families.path(1))


def test_star_differs_from_path():
    assert not is_isomorphic(families.star(3), families.path(3))


def test_multiplicity_profile_refined():
    # same degree sequence, different parallel structure
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    h = Multigraph(4, [(0, 1), (0, 1), (0, 1), (2, 3)])
    assert not is_isomorphic(g, h)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_relabeling_stability(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    g = families.random_multigraph(rng, 7, 10)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabel({v: perm[v] for v in range(g.n)})
    assert canonical_form(g) == canonical_form(h)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    assert verify_isomorphism(g, h, mapping)


def test_labeling_is_bijective():
    g = double_star(3, 2)
    _, lab = canonical_labeling(g)
    assert sorted(lab) == list(range(g.n))


def test_component_order_irrelevant():
    a = families.cycle(3).disjoint_union(families.path(2))
    b = families.path(2).disjoint_union(families.cycle(3))
    assert canonical_form(a) == canonical_form(b)


def test_forest_vs_full_branch_agreement():
    # relabeled copies of a forest with many symmetric components
    rng = random.Random(5)
    base = families.path(1)
    g = base
    for _ in range(5):
        g = g.disjoint_union(base)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(g.relabel(dict(enumerate(perm))))


def test_colors_split_classes():
    g = families.path(2)
    plain = canonical_form(g)
    pointed = canonical_form(g, colors=[1, 0, 0])
    assert plain != pointed
    # colouring by partition only: scaled values agree
    assert pointed == canonical_form(g, colors=[9, 2, 2])


@pytest.mark.parametrize("colors", [[0], [0] * 5], ids=["short", "long"])
def test_colors_need_one_entry_per_vertex(colors):
    with pytest.raises(ValueError, match=f"colors has {len(colors)} entries for 4 vertices"):
        canonical_labeling(families.cycle(4), colors)


def _ordered_cells(col, cells):
    """The cells of an ordered partition in order; col must agree."""
    out = []
    start = 0
    while start < len(col):
        cell = cells[start]
        assert [col[x] for x in cell] == [start] * len(cell)
        out.append(cell)
        start += len(cell)
    return out


def _oracle_cells(colors):
    by_color = {}
    for v in sorted(colors):
        by_color.setdefault(colors[v], []).append(v)
    return [by_color[c] for c in sorted(by_color)]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_refinement_matches_full_rounds(seed, coloured):
    # the touched-cell rounds reach the full rounds' stable partition, cells
    # in the same order, at the root and down a path of individualisations
    rng = random.Random(seed)
    g = families.random_multigraph(rng, 12, 24)
    init = [rng.randrange(3) if coloured else 0 for _ in range(g.n)]
    search = canon._ComponentCanon(list(range(g.n)), init, g.edges)
    col, cells = search._initial_partition()
    search._refine(col, cells, range(g.n))
    colors = full_round_refinement(g, dict(enumerate(init)))
    assert _ordered_cells(col, cells) == _oracle_cells(colors)
    for _ in range(3):
        movable = [v for cell in _ordered_cells(col, cells) if len(cell) > 1 for v in cell]
        if not movable:
            break
        v = rng.choice(movable)
        col, cells = search._individualise(col, cells, v)
        search._refine(col, cells, (v,))
        split = {u: 2 * c for u, c in colors.items()}
        split[v] += 1
        colors = full_round_refinement(g, split)
        assert _ordered_cells(col, cells) == _oracle_cells(colors)


def test_vertex_orbits_path():
    orbits = vertex_orbits(families.path(4))
    assert orbits == [[0, 4], [1, 3], [2]]


def test_vertex_orbits_across_components():
    g = families.path(1).disjoint_union(families.path(1))
    assert vertex_orbits(g) == [[0, 1, 2, 3]]


def test_vertex_orbits_double_star():
    # K_{1,p}-centre, K_{1,q}-centre, p leaves, q leaves: four orbits
    g = double_star(3, 2)
    assert len(vertex_orbits(g)) == 4


def test_vertex_orbits_match_brute_force():
    corpus = list(exhaustive_multigraphs(7, 7))
    corpus += random_graph_corpus(seed=8, count=300, max_n=8, max_m=12)
    for g in corpus:
        assert vertex_orbits(g) == brute_force_vertex_orbits(g), g


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(dict(enumerate(perm)))


def _forest_of_copies(rng):
    """Copies of one random tree, next to one other tree."""
    tree = random_tree(rng, rng.randint(1, 5))
    g = random_tree(rng, rng.randint(1, 4))
    for _ in range(rng.randint(2, 4)):
        g = g.disjoint_union(tree)
    return g


def _twin_class(rng):
    """Vertex 0 of a random multigraph blown up into mutual twins: each
    twin copies its edges, and every twin pair gets one multiplicity."""
    base = families.random_multigraph(rng, 5, 7)
    twins = rng.randint(2, 4)
    n = base.n + twins - 1
    copies = [0] + list(range(base.n, n))
    edges = []
    for u, v in base.edges:
        if u == 0 or v == 0:
            other = v if u == 0 else u
            edges += [(t, other) for t in copies]
        else:
            edges.append((u, v))
    mult = rng.randint(0, 2)
    edges += [(a, b) for a in copies for b in copies if a < b for _ in range(mult)]
    return Multigraph(n, edges)


@given(st.sampled_from(["random", "forest", "twins"]), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_automorphism_generators_are_automorphisms(kind, seed):
    rng = random.Random(seed)
    if kind == "random":
        g = families.random_multigraph(rng, 7, 10)
    elif kind == "forest":
        g = _forest_of_copies(rng)
    else:
        g = _twin_class(rng)
    g = _shuffled(g, rng)
    graphs = [g]
    for ell in (1, 2):
        if count_links(g, ell) <= 60 and count_links(g, ell + 1) <= 400:
            graphs.append(link_graph(g, ell).graph)
    for h in graphs:
        for gamma in automorphism_generators(h):
            # sparse: lists only the vertices it moves
            assert all(v != w for v, w in gamma.items()), (h, gamma)
            full = {v: gamma.get(v, v) for v in range(h.n)}
            assert verify_isomorphism(h, h, full), (h, gamma)


def test_iso_spots_subtle_trees():
    # two non-isomorphic trees with equal degree sequences
    t1 = Multigraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
    t2 = Multigraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6)])
    assert sorted(t1.degrees()) == sorted(t2.degrees())
    assert not is_isomorphic(t1, t2)


def test_cert_distinguishes_corpus_sizes():
    seen = {}
    for g in random_graph_corpus(seed=3, count=40, max_n=6, max_m=7):
        cert = canonical_form(g)
        if cert in seen:
            other = seen[cert]
            assert g.n == other.n and g.m == other.m
            assert sorted(g.degrees()) == sorted(other.degrees())
        seen[cert] = g


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Multigraph(10, outer + inner + spokes)


def _circulant(n, jumps):
    return Multigraph(
        n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in jumps})
    )


def _golden_inputs():
    """name -> (graph, colours) for the pinned certificates."""
    doubled_c3 = Multigraph(3, [e for e in families.cycle(3).edges for _ in range(2)])
    return {
        "L(K5)": (link_graph(families.complete(5), 1).graph, None),
        "L(K6)": (link_graph(families.complete(6), 1).graph, None),
        "L_2(K4)": (link_graph(families.complete(4), 2).graph, None),
        "Petersen": (_petersen(), None),
        "L(Petersen)": (link_graph(_petersen(), 1).graph, None),
        "C12": (families.cycle(12), None),
        "K3,3": (Multigraph(6, [(i, j) for i in range(3) for j in range(3, 6)]), None),
        "L_2(2C3)": (link_graph(doubled_c3, 2).graph, None),
        # two pentagons, the second labelled as a pentagram
        "C5+C5": (
            Multigraph(
                10,
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                 (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
            ),
            None,
        ),
        "coloured C6": (families.cycle(6), [1, 0, 0, 1, 0, 0]),
        # the line graph of the circulant C20(7, 9, 10): back-jumping to the
        # root instead of the deepest common ancestor changes its certificate
        "L(C20(7,9,10))": (link_graph(_circulant(20, (7, 9, 10)), 1).graph, None),
    }


# Canonical hex and labeling, recorded before automorphism pruning existed;
# the pruned search must reproduce them byte for byte, because roots.tsv and
# the canonical-parent choices of the root search are built on them.
GOLDEN = {
    "L(K5)": (
        "0a001e000100020003000400050006010201030104010701080205020602070208"
        "030403050307030904060408040905060507050906080609070807090809",
        (9, 8, 6, 4, 7, 5, 3, 2, 1, 0),
    ),
    "L_2(K4)": (
        "0c0018000100020004000901030104010a02050206020703050306030804070408"
        "050805090607060a070b080b090a090b0a0b",
        (11, 6, 9, 1, 2, 4, 10, 7, 8, 3, 0, 5),
    ),
    "Petersen": (
        "0a000f000200040006010301040107020502070305030604080508060907090809",
        (9, 8, 5, 3, 6, 7, 4, 2, 1, 0),
    ),
    "C12": (
        "0c000c000100020103020403050406050706080709080a090b0a0b",
        (11, 10, 8, 6, 4, 2, 0, 1, 3, 5, 7, 9),
    ),
    "K3,3": ("060009000200030004010201030104020503050405", (5, 1, 0, 4, 3, 2)),
    "C5+C5": (
        "0a000a0001000201030204030405060507060807090809",
        (4, 3, 1, 0, 2, 9, 6, 7, 8, 5),
    ),
    "coloured C6": (
        "060006000200040103010402050305ff000000000000000000010001",
        (5, 3, 1, 4, 0, 2),
    ),
}
# sha256 of form bytes + labeling bytes, first 16 hex digits
GOLDEN_DIGESTS = {
    "L(K6)": "a5d29f391f2de9eb",
    "L(Petersen)": "83ce1a0050c06c02",
    "L_2(2C3)": "97864c65d9c5dbc5",
    "L(C20(7,9,10))": "52bc52cf19d7ca14",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_certificates(name):
    form, lab = canonical_labeling(*_golden_inputs()[name])
    assert (form.hex(), lab) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_certificate_digests(name):
    form, lab = canonical_labeling(*_golden_inputs()[name])
    digest = hashlib.sha256(form.data + bytes(lab)).hexdigest()[:16]
    assert digest == GOLDEN_DIGESTS[name]


# sha256 over form bytes + labeling bytes of every forest of
# exhaustive_multigraphs(9, 8) with n vertices, each relabelled by one
# seeded shuffle, first 16 hex digits; recorded while trees still took a
# one-branch search of their own
GOLDEN_FOREST_DIGESTS = {
    0: "709e80c88487a241",
    2: "ea0a6aabf0897058",
    3: "c64c09881af6ff5c",
    4: "dfe429c420cd0c84",
    5: "ced3f9b4619e5277",
    6: "0f667d50d625692f",
    7: "b346661eeb2d3adc",
    8: "825cc60dbbf2d23e",
    9: "4bb9416cbaf75984",
}


def test_golden_forest_digests():
    rng = random.Random(9)
    digests = {}
    for g in exhaustive_multigraphs(9, 8):
        if not g.is_acyclic():
            continue
        form, lab = canonical_labeling(_shuffled(g, rng))
        digests.setdefault(g.n, hashlib.sha256()).update(form.data + bytes(lab))
    found = {n: d.hexdigest()[:16] for n, d in sorted(digests.items())}
    assert found == GOLDEN_FOREST_DIGESTS


def _symmetric_inputs():
    """The symmetric graphs of perfbench's canon-sym workload, by name."""
    doubled_c4 = Multigraph(4, [e for e in families.cycle(4).edges for _ in range(2)])
    return {
        "L_3(K5)": link_graph(families.complete(5), 3).graph,
        "L_4(K4)": link_graph(families.complete(4), 4).graph,
        "L_1(K6)": link_graph(families.complete(6), 1).graph,
        "L_2(Petersen)": link_graph(_petersen(), 2).graph,
        "C36": families.cycle(36),
        "L_2(2C4)": link_graph(doubled_c4, 2).graph,
    }


def _generators_bytes(g):
    # repr keeps each generator's key order, which is part of the output
    return repr(automorphism_generators(g)).encode()


# sha256 of form bytes + labeling bytes, and of the repr of
# automorphism_generators, first 16 hex digits each; orbit_roots and the
# root search's counters depend on the generators, so they are pinned too
GOLDEN_SYMMETRIC_DIGESTS = {
    "L_3(K5)": ("eb7318bced321e6d", "15d3f1c01b35a72b"),
    "L_4(K4)": ("601a0694b77c18ca", "2944a20e0b408d79"),
    "L_1(K6)": ("a5d29f391f2de9eb", "6b8f18563552f3cf"),
    "L_2(Petersen)": ("696d3eeedceaf431", "b86493b3f691ff51"),
    "C36": ("1795426e0a596b01", "d9f0c1d5420363ac"),
    "L_2(2C4)": ("b53e285d49780cda", "262e548b69a06673"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SYMMETRIC_DIGESTS))
def test_golden_symmetric_digests(name):
    g = _symmetric_inputs()[name]
    form, lab = canonical_labeling(g)
    found = (
        hashlib.sha256(form.data + bytes(lab)).hexdigest()[:16],
        hashlib.sha256(_generators_bytes(g)).hexdigest()[:16],
    )
    assert found == GOLDEN_SYMMETRIC_DIGESTS[name]


def test_golden_random_corpus_digest():
    # 2000 seeded random multigraphs, every third one randomly 3-coloured:
    # one sha256 over each form, labeling and generator list
    rng = random.Random(17)
    labels, generators = hashlib.sha256(), hashlib.sha256()
    for i in range(2000):
        g = families.random_multigraph(rng, 9, 14)
        colors = [rng.randrange(3) for _ in range(g.n)] if i % 3 == 0 else None
        form, lab = canonical_labeling(g, colors)
        labels.update(form.data + bytes(lab))
        generators.update(_generators_bytes(g))
    assert (labels.hexdigest()[:16], generators.hexdigest()[:16]) == (
        "f9e4714be4d166db", "77a005a3221bdb95")


def test_golden_small_graph_digest():
    # the graphs a root search labels have 2-10 vertices; every class of
    # exhaustive_multigraphs(7, 7) as it comes (one component on 0..n-1),
    # relabelled by a seeded shuffle, that with random 2-colours, and that
    # with an isolated vertex: one sha256 over each form, labeling and
    # generator list, recorded before the per-call trims of canonical_search
    rng = random.Random(27)
    digest = hashlib.sha256()
    for g in exhaustive_multigraphs(7, 7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = g.relabel(dict(enumerate(perm)))
        colors = [rng.randrange(2) for _ in range(g.n)]
        cases = ((g, None), (shuffled, None), (shuffled, colors),
                 (shuffled.disjoint_union(Multigraph(1)), None))
        for graph, coloring in cases:
            form, lab, generators = canonical_search(graph, coloring)
            digest.update(form.data + bytes(lab) + repr(generators).encode())
    assert digest.hexdigest()[:16] == "3c01b21f70e723af"


def test_automorphism_pruning_bounds_leaves(monkeypatch):
    # Without pruning these need |Aut| leaves: 40320 for L(K8), 400 for C200.
    line_k8 = link_graph(families.complete(8), 1).graph
    for g, budget in ((line_k8, 32), (families.cycle(200), 8)):
        monkeypatch.setattr(canon, "_LEAF_BUDGET", budget)
        form, lab = canonical_labeling(g)
        assert sorted(lab) == list(range(g.n))
    monkeypatch.setattr(canon, "_LEAF_BUDGET", 2)
    with pytest.raises(CanonBudgetExceeded):
        canonical_labeling(families.cycle(200))
