"""Canonical forms and isomorphism for loopless multigraphs.

Per connected component, a search tree in the manner of nauty (McKay and
Piperno, "Practical graph isomorphism II", J. Symb. Comput. 2014).  Each
node holds an ordered partition of the component's vertices, refines it to
the stable one, then individualises in turn each vertex of the smallest
non-singleton cell by moving it to the end of that cell.  Parallel edges are
folded into neighbour weights, so the stable partition refines both the
degree multiset and the multiplicity profile.  A leaf is a discrete
partition, that is a labelling; the certificate is the least relabelled
graph over the leaves, and the labelling is that of the first leaf to reach
it.

Refinement runs in simultaneous rounds.  A round signs each vertex with the
sorted multiset of (neighbour's cell, weight) pairs under the partition the
round starts from, splits each cell by signature and orders its parts by
signature in place, so cells never change order.  A cell can split only if
it holds a neighbour of a vertex whose cell split in the round before, and
the largest part of each split can be left out of that test: a vertex's
weights into the old cell are those into its parts together (McKay,
"Practical graph isomorphism", 1981; Paige and Tarjan, SIAM J. Comput.
1987).  So a round re-signs only the cells next to the other parts, and the
first round after an individualisation only the cells next to that vertex;
only the root signs every cell.  nauty's sequential splitter queue reaches
the same stable set partition with less signing but orders the cells
differently, which would change every certificate, labelling and
automorphism this module reports.

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
are those of the full tree.  One shortcut branches on one vertex only: a
class of mutual twins is an orbit, and the search records the swap of its
first member with each other one as an automorphism.  Highly symmetric
graphs thus cost a few leaves per orbit of the first path instead of about
|Aut(G)|; graphs that defeat colour refinement can still take many.  Each
search gives up after ``_LEAF_BUDGET`` leaves.

Automorphisms are sparse dicts, from the component search to
``orbit_roots``: gamma[v] is the image of each vertex v that gamma
moves, and a vertex gamma does not list is fixed.
"""

from __future__ import annotations

from typing import NamedTuple

from .multigraph import Multigraph

_MAX_VERTICES = 255
_MAX_EDGES = 65_535
_LEAF_BUDGET = 1 << 18


class CanonBudgetExceeded(RuntimeError):
    pass


class CanonicalForm(NamedTuple):
    """Byte string equal between two multigraphs iff they are isomorphic."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()


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


def orbit_roots(pairs, generators):
    """Per vertex pair (u, v), u < v, the index of the first pair in its orbit.

    Orbits are those of the group the sparse generators make; an image
    outside ``pairs`` joins nothing, so a set that is not invariant only
    gets finer orbits.
    """
    index = {x: i for i, x in enumerate(pairs)}
    parent = list(range(len(pairs)))
    for gamma in generators:
        for i, (u, v) in enumerate(pairs):
            if u not in gamma and v not in gamma:
                continue
            a, b = gamma.get(u, u), gamma.get(v, v)
            j = index.get((a, b) if a < b else (b, a), i)
            if j != i:
                _union(parent, i, j)
    return [_find(parent, i) for i in range(len(pairs))]


class _ComponentCanon:
    """The search tree of one component, over local ids: x stands for
    ``verts[x]``.  A node's ordered partition is a pair of lists: col[x] is
    the start position of x's cell and cells[start] that cell's members in
    increasing order, with None where no cell starts.  A node owns its col and cells, but shares the member lists with
    its parent, so a list is replaced, never changed."""

    def __init__(self, verts, init, edges):
        self.verts = verts
        self.init = init  # initial colour per local id
        index = {v: x for x, v in enumerate(verts)}
        self.edges = [(index[u], index[v]) for u, v in edges]
        weights = [{} for _ in verts]
        for a, b in self.edges:
            weights[a][b] = weights[a].get(b, 0) + 1
            weights[b][a] = weights[b].get(a, 0) + 1
        self.wadj = [tuple(w.items()) for w in weights]
        # _refine signs a neighbour u of weight w as col[u] * scale + w,
        # which orders like the pair (col[u], w) since every w < scale
        self.scale = 1 + max((w for ws in weights for w in ws.values()), default=0)
        self.pair_weight = {(a, b): w for a, ws in enumerate(weights) for b, w in ws.items()}
        self.leaves = 0
        self.first = None  # (cert, col, path) of the first leaf
        self.best = None  # the same for the first leaf with the least cert
        self.generators = []  # automorphisms found, as sparse dicts

    def run(self):
        """(certificate, labelling, automorphisms) in the graph's vertex ids."""
        col, cells = self._initial_partition()
        self._descend(col, cells, range(len(col)), ())
        cert, col, _ = self.best
        verts = self.verts
        lab = {v: col[x] for x, v in enumerate(verts)}
        generators = [
            {verts[x]: verts[y] for x, y in gamma.items()} for gamma in self.generators
        ]
        return cert, lab, generators

    def _initial_partition(self):
        """The cells of equal initial colour, in colour order."""
        by_color = {}
        for x, c in enumerate(self.init):
            by_color.setdefault(c, []).append(x)
        col = [0] * len(self.init)
        cells = [None] * len(self.init)
        start = 0
        for c in sorted(by_color):
            cells[start] = cell = by_color[c]
            for x in cell:
                col[x] = start
            start += len(cell)
        return col, cells

    def _refine(self, col, cells, changed):
        """Refine the ordered partition in place to the stable one; before
        the first round, ``changed`` holds the vertices of the parts split
        off (see the module docstring)."""
        wadj = self.wadj
        scale = self.scale
        while changed:
            touched = {col[u] for x in changed for u, _ in wadj[x]}
            splits = []
            for start in touched:
                cell = cells[start]
                if len(cell) == 1:
                    continue
                parts = {}
                for x in cell:
                    sig = tuple(sorted([col[u] * scale + w for u, w in wadj[x]]))
                    parts.setdefault(sig, []).append(x)
                if len(parts) > 1:
                    splits.append((start, [parts[sig] for sig in sorted(parts)]))
            changed = []
            for start, parts in splits:
                largest = max(parts, key=len)
                for part in parts:
                    cells[start] = part
                    for x in part:
                        col[x] = start
                    if part is not largest:
                        changed += part
                    start += len(part)

    @staticmethod
    def _individualise(col, cells, v):
        """A child's partition: v moved to the end of its cell."""
        col = col[:]
        cells = cells[:]
        start = col[v]
        cell = cells[start]
        end = start + len(cell) - 1
        cells[start] = [u for u in cell if u != v]
        cells[end] = [v]
        col[v] = end
        return col, cells

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

    def _descend(self, col, cells, changed, path):
        """Search below the node that individualised ``path`` (a tuple of
        vertices).  Returns the depth of the ancestor to jump back to, or
        None when the search goes on normally."""
        self._refine(col, cells, changed)
        target = None
        start = 0
        while start < len(col):
            cell = cells[start]
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
            start += len(cell)
        if target is None:
            return self._leaf(col, cells, path)
        # Mutual twins are swappable, so the class is an orbit: one branch
        # suffices, and each swap joins the automorphisms found.
        if self._mutual_twins(target):
            v = target[0]
            self.generators += ({v: u, u: v} for u in target[1:])
            return self._descend(*self._individualise(col, cells, v), (v,), path + (v,))
        depth = len(path)
        index = {v: i for i, v in enumerate(target)}
        # Union-find over the class under the generators that fix ``path``
        # pointwise; each root is the earliest member of its orbit.
        orbit = list(range(len(target)))
        absorbed = 0
        for i, v in enumerate(target):
            for gamma in self.generators[absorbed:]:
                if not any(p in gamma for p in path):
                    for u in target:
                        if u in gamma:
                            _union(orbit, index[u], index[gamma[u]])
            absorbed = len(self.generators)
            if _find(orbit, i) != i:
                continue  # an image of an explored sibling's subtree
            jump = self._descend(*self._individualise(col, cells, v), (v,), path + (v,))
            if jump is not None and jump < depth:
                return jump
        return None

    def _leaf(self, col, cells, path):
        self.leaves += 1
        if self.leaves > _LEAF_BUDGET:
            raise CanonBudgetExceeded(f"canonical search exceeded {_LEAF_BUDGET} leaves")
        edges = sorted(
            (col[a], col[b]) if col[a] <= col[b] else (col[b], col[a])
            for a, b in self.edges
        )
        # the partition is discrete, so its cells list the vertices by label
        order = [cell[0] for cell in cells]
        init = tuple(self.init[x] for x in order)
        cert = (len(col), len(self.edges), tuple(edges), init)
        if self.first is None:
            self.first = self.best = (cert, col, path)
            return None
        for ref_cert, ref_col, ref_path in (self.first, self.best):
            if cert == ref_cert:
                # ref and this leaf relabel the graph alike, so gamma is an
                # automorphism.  Refinement keeps the order of cells, so an
                # individualised vertex's label is set by its cell's place;
                # hence gamma maps ref's path onto this one (of equal length)
                # and fixes their common prefix.  Jump back to where they part.
                moved = ((x, order[ref_col[x]]) for x in range(len(col)))
                self.generators.append({x: y for x, y in moved if x != y})
                return next(d for d, (u, w) in enumerate(zip(path, ref_path)) if u != w)
        if cert < self.best[0]:
            self.best = (cert, col, path)
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


def _unpack(data: bytes) -> Multigraph:
    """The graph a certificate of ``_pack`` spells: each vertex at its
    canonical label, edges sorted; a colour trailer is ignored."""
    flat = data[3 : 3 + 2 * int.from_bytes(data[1:3], "big")]
    return Multigraph._trusted(data[0], tuple(zip(flat[0::2], flat[1::2])))


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


def canonical_search(g: Multigraph, colors=None):
    """Return (CanonicalForm, labeling, generators) from one search per
    component; labeling[v] is the canonical id of v.

    ``colors`` is an optional per-vertex sequence; only the induced partition
    (ordered by value) matters, and the generators then keep every colour.
    They are sparse dicts (see the module docstring): per component, in
    component order, the automorphisms the search that labels it finds,
    twin swaps included; then, across components, a swap of each two
    neighbours in certificate order whose certificates are equal.  As in
    nauty, the automorphisms a search finds generate the group it prunes by,
    so these generate the whole group; the tests check the vertex orbits
    they give against a brute force.  Raises CanonBudgetExceeded on
    pathological symmetry, and ValueError above the size caps or when
    ``colors`` does not have one entry per vertex.
    """
    if g.n > _MAX_VERTICES:
        raise ValueError(f"canonical form supports at most {_MAX_VERTICES} vertices")
    if g.m > _MAX_EDGES:
        raise ValueError(f"canonical form supports at most {_MAX_EDGES} edges")
    if colors is None:
        dense = [0] * g.n
    else:
        if len(colors) != g.n:
            raise ValueError(f"colors has {len(colors)} entries for {g.n} vertices")
        ranking = {c: i for i, c in enumerate(sorted(set(colors)))}
        dense = [ranking[c] for c in colors]

    generators = []
    results = []
    for comp, comp_edges in _component_edges(g):
        init = [dense[v] for v in comp]
        cert, lab, found = _ComponentCanon(comp, init, comp_edges).run()
        generators += found
        results.append((cert, lab, comp))
    results.sort(key=lambda r: r[0])
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
    for (cert_a, lab_a, _), (cert_b, lab_b, _) in zip(results, results[1:]):
        if cert_a == cert_b:
            vertex_at = {label: w for w, label in lab_b.items()}
            swap = {}
            for v, label in lab_a.items():
                w = vertex_at[label]
                swap[v], swap[w] = w, v
            generators.append(swap)
    form = CanonicalForm(_pack(g.n, g.m, all_edges, all_colors))
    return form, tuple(labeling), generators


def canonical_labeling(g: Multigraph, colors=None):
    """(CanonicalForm, labeling) of ``canonical_search``."""
    return canonical_search(g, colors)[:2]


def canonical_form(g: Multigraph, colors=None) -> CanonicalForm:
    return canonical_search(g, colors)[0]


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


def automorphism_generators(g: Multigraph):
    """Generators of Aut(g), as ``canonical_search`` lists them."""
    return canonical_search(g)[2]


def vertex_orbits(g: Multigraph):
    """Vertex orbits under the automorphism group, as sorted lists."""
    parent = list(range(g.n))
    for gamma in automorphism_generators(g):
        for v, w in gamma.items():
            _union(parent, v, w)
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(_find(parent, v), []).append(v)
    return list(orbits.values())
