"""Canonical forms and isomorphism for loopless multigraphs.

Per connected component, a search tree in the manner of nauty (McKay and
Piperno, "Practical graph isomorphism II", J. Symb. Comput. 2014).  Each
node refines its colouring to the stable one, then individualises in turn
each vertex of the smallest non-singleton class.  Parallel edges are folded
into neighbour weights, so the stable partition refines both the degree
multiset and the multiplicity profile.  A leaf is a discrete colouring, that
is a labelling; the certificate is the least relabelled graph over the
leaves, and the labelling is that of the first leaf to reach it.

Automorphisms prune the tree without changing either:

- back-jumping: when a leaf relabels the graph exactly as the first leaf or
  the current best leaf does, the map between the two labellings is an
  automorphism.  It fixes the two paths' common prefix and maps the earlier
  child of their deepest common ancestor onto the current one, so the rest
  of the current child's subtree repeats explored work; the search returns
  to that ancestor.
- orbit pruning: a child is skipped when the automorphisms found so far that
  fix its node's prefix pointwise map it to an earlier sibling.

Each skipped subtree is an automorphic image of an explored one and has the
same set of leaf certificates, so the minimum and the first leaf reaching it
are those of the full tree.  Two shortcuts branch on one vertex only: colour
refinement is orbit-exact on trees, and mutual twins are swappable.  Highly
symmetric graphs thus cost a few leaves per orbit of the first path instead
of about |Aut(G)|; graphs that defeat colour refinement can still take many.

A caller that labels many graphs sharing labelled components, as the root
search does (a child is its parent plus one edge, with the same vertex ids),
can pass ``canonical_labeling`` and ``automorphism_generators`` one memo
dict.  It maps a component's exact key (its sorted vertices, sorted edge
multiset, initial colours, tree flag and leaf budget) to that component
search's certificate, labelling, automorphisms and twin swaps.  The key
holds every input the component search reads, and the search is
deterministic, so a hit returns what a fresh search would.  Entries keep no
reference to the graph, and the memo lives as long as its caller keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import Multigraph

_MAX_VERTICES = 255
_MAX_EDGES = 65_535
_DEFAULT_LEAF_BUDGET = 1 << 18


class CanonBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CanonicalForm:
    """Byte string equal between two multigraphs iff they are isomorphic."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def __lt__(self, other):
        return self.data < other.data


def _weighted_adjacency(g: Multigraph):
    weights = [{} for _ in range(g.n)]
    for u, v in g.edges:
        weights[u][v] = weights[u].get(v, 0) + 1
        weights[v][u] = weights[v].get(u, 0) + 1
    return [tuple(sorted(w.items())) for w in weights]


def _refine(verts, wadj, colors):
    """Stable colour refinement; colors maps vertex -> small int."""
    while True:
        sigs = {
            v: (colors[v], tuple(sorted((colors[u], w) for u, w in wadj[v])))
            for v in verts
        }
        ranking = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {v: ranking[sigs[v]] for v in verts}
        if new == colors:
            return colors
        colors = new


def _classes(verts, colors):
    by_color = {}
    for v in verts:
        by_color.setdefault(colors[v], []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent, i, j):
    """Join the classes of i and j; the root stays the least member."""
    a, b = _find(parent, i), _find(parent, j)
    if a != b:
        parent[max(a, b)] = min(a, b)


def orbit_roots(items, generators, image):
    """Per item, the index of the first item in its orbit.

    Orbits are those of the group the generators make, acting through
    ``image(gamma, item)``; an image outside ``items`` joins nothing, so a
    set that is not invariant only gets finer orbits.
    """
    items = list(items)
    index = {x: i for i, x in enumerate(items)}
    parent = list(range(len(items)))
    for gamma in generators:
        for i, x in enumerate(items):
            j = index.get(image(gamma, x), i)
            if j != i:
                _union(parent, i, j)
    return [_find(parent, i) for i in range(len(items))]


class _ComponentCanon:
    def __init__(self, verts, wadj, init_colors, edges, is_tree, leaf_budget):
        self.verts = verts
        self.wadj = wadj
        self.init_colors = init_colors
        self.edges = edges
        self.is_tree = is_tree
        self.leaf_budget = leaf_budget
        self.leaves = 0
        self.first = None  # (cert, lab, path) of the first leaf
        self.best = None  # the same for the first leaf with the least cert
        self.generators = []  # automorphisms found, as vertex -> vertex dicts
        self.twin_swaps = set()  # (first, other) of each class taken as twins
        self.pair_weight = {}
        for u in verts:
            for x, w in wadj[u]:
                self.pair_weight[(u, x)] = w

    def run(self):
        self._descend(dict(self.init_colors), ())
        return self.best[:2]

    def _mutual_twins(self, cls) -> bool:
        """All members swappable pairwise: equal weighted neighbourhoods
        outside the class and one uniform multiplicity inside it."""
        cls_set = set(cls)
        first_ext = None
        for u in cls:
            ext = sorted((x, w) for x, w in self.wadj[u] if x not in cls_set)
            if first_ext is None:
                first_ext = ext
            elif ext != first_ext:
                return False
        intra = {
            self.pair_weight.get((cls[i], cls[j]), 0)
            for i in range(len(cls))
            for j in range(i + 1, len(cls))
        }
        return len(intra) <= 1

    def _individualise(self, colors, v):
        split = {u: 2 * colors[u] for u in self.verts}
        split[v] += 1
        return split

    def _descend(self, colors, path):
        """Search below the node that individualised ``path`` (a tuple of
        vertices).  Returns the depth of the ancestor to jump back to, or
        None when the search goes on normally."""
        colors = _refine(self.verts, self.wadj, colors)
        classes = _classes(self.verts, colors)
        target = None
        for cls in classes:
            if len(cls) > 1 and (target is None or len(cls) < len(target)):
                target = cls
        if target is None:
            return self._leaf(colors, path)
        # One branch suffices when the class is provably an orbit: colour
        # refinement is orbit-exact on trees, and mutual twins are swappable.
        twins = not self.is_tree and self._mutual_twins(target)
        if self.is_tree or twins:
            v = target[0]
            if twins:
                self.twin_swaps.update((v, u) for u in target[1:])
            return self._descend(self._individualise(colors, v), path + (v,))
        depth = len(path)
        index = {v: i for i, v in enumerate(target)}
        # Union-find over the class under the generators that fix ``path``
        # pointwise; each root is the earliest member of its orbit.
        orbit = list(range(len(target)))
        absorbed = 0
        for i, v in enumerate(target):
            for gamma in self.generators[absorbed:]:
                if all(gamma[p] == p for p in path):
                    for u in target:
                        _union(orbit, index[u], index[gamma[u]])
            absorbed = len(self.generators)
            if _find(orbit, i) != i:
                continue  # an image of an explored sibling's subtree
            jump = self._descend(self._individualise(colors, v), path + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, colors, path):
        self.leaves += 1
        if self.leaves > self.leaf_budget:
            raise CanonBudgetExceeded(
                f"canonical search exceeded {self.leaf_budget} leaves"
            )
        lab = {v: colors[v] for v in self.verts}
        edges = sorted(
            (lab[u], lab[v]) if lab[u] <= lab[v] else (lab[v], lab[u])
            for u, v in self.edges
        )
        init = tuple(self.init_colors[v] for v in sorted(self.verts, key=lab.get))
        cert = (len(self.verts), len(self.edges), tuple(edges), init)
        if self.first is None:
            self.first = self.best = (cert, lab, path)
            return None
        for ref_cert, ref_lab, ref_path in (self.first, self.best):
            if cert == ref_cert:
                # ref and this leaf relabel the graph alike, so gamma is an
                # automorphism.  Refinement keeps the order of classes, so an
                # individualised vertex's label is set by its class's place;
                # hence gamma maps ref's path onto this one (of equal length)
                # and fixes their common prefix.  Jump back to where they part.
                vertex_at = {label: v for v, label in lab.items()}
                self.generators.append({v: vertex_at[ref_lab[v]] for v in self.verts})
                return next(d for d, (u, w) in enumerate(zip(path, ref_path)) if u != w)
        if cert < self.best[0]:
            self.best = (cert, lab, path)
        return None


def _pack(n, m, edges, colors) -> bytes:
    out = bytearray()
    out.append(n)
    out += m.to_bytes(2, "big")
    for a, b in edges:
        out.append(a)
        out.append(b)
    if any(colors):
        out.append(0xFF)
        for c in colors:
            out += c.to_bytes(2, "big")
    return bytes(out)


def _component_edges(g: Multigraph):
    """Each component's vertices with its edges in edge-id order."""
    comps = g.components()
    comp_of = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    edges = [[] for _ in comps]
    for u, v in g.edges:
        edges[comp_of[u]].append((u, v))
    return zip(comps, edges)


def _component_searches(g: Multigraph, dense, tree_shortcut, leaf_budget, memo):
    """Per component of g: (comp, (cert, lab, generators, twin_swaps)).

    With a ``memo`` dict, a component whose key is already in it is not
    searched again; the weighted adjacency is built only on a miss.
    """
    wadj = None
    out = []
    for comp, comp_edges in _component_edges(g):
        is_tree = tree_shortcut and len(comp_edges) == len(comp) - 1
        init = {v: dense[v] for v in comp}
        if memo is not None:
            key = (
                tuple(comp), tuple(sorted(comp_edges)), tuple(init.values()),
                is_tree, leaf_budget,
            )
            hit = memo.get(key)
            if hit is not None:
                out.append((comp, hit))
                continue
        if wadj is None:
            wadj = _weighted_adjacency(g)
        search = _ComponentCanon(comp, wadj, init, comp_edges, is_tree, leaf_budget)
        cert, lab = search.run()
        # the search object holds the whole graph's wadj: keep only results
        found = (cert, lab, search.generators, search.twin_swaps)
        if memo is not None:
            memo[key] = found
        out.append((comp, found))
    return out


def canonical_labeling(
    g: Multigraph, colors=None, leaf_budget=_DEFAULT_LEAF_BUDGET, memo=None
):
    """Return (CanonicalForm, labeling) with labeling[v] = canonical id of v.

    ``colors`` is an optional per-vertex sequence; only the induced partition
    (ordered by value) matters.  ``memo`` is an optional dict of component
    searches shared between calls (see the module docstring).  Raises
    CanonBudgetExceeded on pathological symmetry and MultigraphError-style
    ValueError above the size caps.
    """
    if g.n > _MAX_VERTICES:
        raise ValueError(f"canonical form supports at most {_MAX_VERTICES} vertices")
    if g.m > _MAX_EDGES:
        raise ValueError(f"canonical form supports at most {_MAX_EDGES} edges")
    if colors is None:
        dense = [0] * g.n
    else:
        ranking = {c: i for i, c in enumerate(sorted(set(colors)))}
        dense = [ranking[c] for c in colors]

    results = sorted(
        (
            (cert, lab, comp)
            for comp, (cert, lab, _, _) in _component_searches(
                g, dense, True, leaf_budget, memo
            )
        ),
        key=lambda r: r[0],
    )
    labeling = [0] * g.n
    offset = 0
    all_edges = []
    all_colors = []
    for cert, lab, comp in results:
        size, _, edges, init = cert
        for v in comp:
            labeling[v] = lab[v] + offset
        all_edges.extend((a + offset, b + offset) for a, b in edges)
        all_colors.extend(init)
        offset += size
    form = CanonicalForm(_pack(g.n, g.m, all_edges, all_colors))
    return form, tuple(labeling)


def canonical_form(g: Multigraph, colors=None) -> CanonicalForm:
    return canonical_labeling(g, colors)[0]


def is_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def find_isomorphism(g: Multigraph, h: Multigraph):
    """A vertex bijection g -> h preserving edge multiplicities, or None."""
    if g.n != h.n or g.m != h.m:
        return None
    form_g, lab_g = canonical_labeling(g)
    form_h, lab_h = canonical_labeling(h)
    if form_g != form_h:
        return None
    inverse_h = {lab_h[v]: v for v in range(h.n)}
    return {v: inverse_h[lab_g[v]] for v in range(g.n)}


def verify_isomorphism(g: Multigraph, h: Multigraph, mapping) -> bool:
    """Edge-by-edge check that ``mapping`` preserves edge multiplicities."""
    if sorted(mapping) != list(range(g.n)):
        return False
    if sorted(mapping.values()) != list(range(h.n)):
        return False

    def norm(edges):
        return sorted(tuple(sorted(e)) for e in edges)

    mapped = norm((mapping[u], mapping[v]) for u, v in g.edges)
    return mapped == norm(h.edges)


def automorphism_generators(g: Multigraph, memo=None):
    """Generators of Aut(g) as vertex-permutation tuples: gamma[v] is the
    image of v.

    Per component, the automorphisms its canonical search finds with the
    tree shortcut off, and a transposition for each mutual twin the search
    took one branch for; across components, a swap of each two neighbours
    in certificate order whose certificates are equal.  As in nauty, the
    automorphisms a search finds generate the group it prunes by, so these
    generate all of Aut(g); the tests check the vertex orbits they give
    against a brute force.  ``memo`` is as for ``canonical_labeling``.
    """
    identity = list(range(g.n))
    generators = []
    labelled = []
    for comp, (cert, lab, found, twin_swaps) in _component_searches(
        g, [0] * g.n, False, _DEFAULT_LEAF_BUDGET, memo
    ):
        swaps = [{v: u, u: v} for v, u in sorted(twin_swaps)]
        for gamma in found + swaps:
            perm = identity[:]
            for v, w in gamma.items():
                perm[v] = w
            generators.append(tuple(perm))
        labelled.append((cert, lab))
    labelled.sort(key=lambda c: c[0])
    for (cert_a, lab_a), (cert_b, lab_b) in zip(labelled, labelled[1:]):
        if cert_a == cert_b:
            vertex_at = {label: w for w, label in lab_b.items()}
            perm = identity[:]
            for v, label in lab_a.items():
                w = vertex_at[label]
                perm[v], perm[w] = w, v
            generators.append(tuple(perm))
    return generators


def vertex_orbits(g: Multigraph):
    """Vertex orbits under the automorphism group, as sorted lists."""
    roots = orbit_roots(range(g.n), automorphism_generators(g), tuple.__getitem__)
    orbits = {}
    for v, root in enumerate(roots):
        orbits.setdefault(root, []).append(v)
    return list(orbits.values())
