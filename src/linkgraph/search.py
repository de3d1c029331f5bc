"""Exhaustive enumeration of minimal link roots and path roots.

Candidates are grown level by level: level m maps the certificate of each
isomorphism class of loopless multigraphs (without isolated vertices) with
m edges inside the bounds to one graph of the class, and level m + 1 holds
the children of level m.  Monotone prunes keep the tree small: walk counts
never decrease when an edge is added, degrees and multiplicities only grow,
and cycles never disappear.  So deleting an edge of a class inside the
bounds (and the vertices it leaves isolated) gives a class inside the
bounds one level down, whose expansion gives the class back; by induction
on the level every class is reached, and a search stopped on level L has
tried every class with fewer than L edges.  Pairs in one orbit of the
parent's automorphism group give isomorphic children, so only the first
proposal of each orbit is tried (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998); the first proposal giving a child class
is always tried, so the same children are reached as without the orbits,
and a generating set that missed part of the group would only cost time.
Most children over the target's sizes are skipped before they are built,
and counted as pruned like those measured.  In link mode the parent's walk
counts bound the child's from below; a proposal that passes the orbit test
and this prune is built and measured, and the deletion pre-test below runs
on the walk columns it measured.  In path mode the ell-paths of g + uv
through its new edge, and the (ell + 1)-paths and (ell + 1)-cycles through
it, are counted on g: they give the child's new ell-paths and new
path-graph edges exactly.  So the prune is exact, the child's sizes are
the parent's plus these counts, and a built child only meets the deletion
pre-test, which reads degrees; no path is listed inside the search.

Most children that survive the prunes belong to a class already reached,
and a canonical-deletion pre-test (McKay, as above) drops nearly all of
them before they are labelled.  A legal deletion of a class C is a
non-bridge edge, or a pendant edge together with its leaf: deleting it
leaves a connected class inside the bounds, which the search explores.
Each edge gets an isomorphism-invariant value: the sorted pair of its end
vertices' values (in link mode the column of walk counts W_0..W_ell that
``measure`` computes, in path mode the degree), then its multiplicity.  A
child whose new edge, always legal, is beaten by a legal edge of larger
value is skipped unlabelled.  This loses no class: take a legal edge e of
C of largest value.  C - e is explored, and the orbit test tries a
proposal in the orbit of e's ends; the child it builds is isomorphic to C
by a map taking its new edge onto e, so no legal edge beats the new edge
and the child passes.  Children that tie are told apart by their
certificates, as before.

The ell-link graph and the ell-path graph of a disjoint union are the
disjoint unions of those of its parts.  For ell >= 1 every vertex of a
minimal root lies on an ell-link (ell-path), so each component G_i of a
minimal root G of H maps onto the union B_i of a block of H's components,
and the blocks partition them.  Minimality asks every vertex and edge to
be ell-incident (to lie on an ell-path, for path roots), and walks stay
inside components, so G is minimal exactly when every G_i is a minimal
connected root of its block; conversely, one such root per block of any
partition of H's components gives a minimal root of H.  So the search
grows connected graphs only.  A target with one component, or a search under
``connected_only``, is searched as it is.  Otherwise H's components are
grouped into isomorphism classes, each distinct sub-multiset of classes
(a block) is searched once for its connected roots, all blocks one edge
level at a time together, and the roots of H are the disjoint unions of
block roots over the multiset partitions of the classes.  Each union is
checked as a root of H like any other root, and a union that fails is a
program fault.  The unions with m edges are checked as soon as every
block has grown level m, since their parts have at most m edges each, so a
stop on level L (the time budget or the state cap), among the block states
or the unions, has already accepted every root of H with fewer than L
edges.  The cap counts the explored states and the steps of the union
phase together: each block built, each block the partition enumeration
tries and each tuple of block roots it combines.  Every connected class
inside the bounds keeps a connected parent inside them: delete a
non-bridge edge if there is one, else a pendant edge and its leaf.

Non-monotone conditions (cyclic-component count, minimality, the final
isomorphism) are checked on complete candidates only.
"""

from __future__ import annotations

import itertools
import time
import warnings
from operator import mul
from typing import NamedTuple

from .canon import (
    _MAX_VERTICES,
    CanonicalForm,
    canonical_form,
    canonical_labeling,
    canonical_search,
    orbit_roots,
    verify_isomorphism,
)
from .construct import (
    link_graph,
    link_partitions,
    path_graph,
    path_units,
)
from .families import cycle as cycle_graph
from .families import middle_joined_paths, path as path_graph_family
from .families import subdivided_star, tailed_path
from .incidence import is_l_minimal
from .links import LinkCountExceeded, _walk_tables, iter_links
from .multigraph import (
    InternalCheckError,  # raised by the checks below; callers catch it here
    Multigraph,
    MultigraphError,
    _check,
    component_census,
    metrics,
    tree_split,
)
from .partition import PartitionedGraph, count_cyclic_components


class BudgetExceeded(RuntimeError):
    """The time budget or the state cap ran out; carries the partial
    results and statistics."""

    def __init__(self, message, stats, partial):
        super().__init__(message)
        self.stats = stats
        self.partial = partial


class SearchBounds(NamedTuple):
    """Enumeration limits derived from the target graph."""

    ell: int
    max_m: int
    max_n: int
    max_degree: int
    required_link_count: int
    required_super_link_count: int
    max_cyclic_components: int


def compute_bounds(h: Multigraph, ell: int) -> SearchBounds:
    """Size, order and degree limits every minimal ell-root must satisfy."""
    if ell < 1:
        raise MultigraphError("bounds are defined for ell >= 1")
    c, cyclic = component_census(h)
    return SearchBounds(
        ell=ell,
        max_m=ell * h.n,
        max_n=ell * h.n + c,
        max_degree=max(c, h.max_degree()) + 1,
        required_link_count=h.n,
        required_super_link_count=h.m,
        max_cyclic_components=cyclic,
    )


class SearchOptions:
    """Switches of a root search: forest roots only, connected roots only,
    a time budget in seconds (None for none) and the most states the search
    may take.  The cap counts ``SearchStats.explored`` plus
    ``SearchStats.union_steps``, so where it stops does not depend on the
    host."""

    max_states = 20_000  # the default, which the CLI also reads here

    def __init__(
        self,
        forests_only: bool = False,
        connected_only: bool = False,
        budget_seconds: float | None = None,
        max_states: int = max_states,
    ):
        # "not > 0" also rejects NaN
        if budget_seconds is not None and not budget_seconds > 0:
            raise ValueError("budget_seconds must be positive")
        if max_states < 1:
            raise ValueError("max_states must be at least 1")
        self.forests_only = forests_only
        self.connected_only = connected_only
        self.budget_seconds = budget_seconds
        self.max_states = max_states


class SearchStats:
    """Counters of one root search.

    A target searched block by block counts the sum over its block
    searches, except ``accepted``, the number of roots of the target.
    ``pruned`` counts the children over the target's sizes, skipped on the
    parent's counts before they are built: in path mode all of them, whose
    counts are exact, in link mode most.  ``deletion_skipped`` counts the
    children inside the sizes whose new edge cannot be the canonical
    deletion, skipped before labelling.  Every other candidate is labelled
    once.
    ``explored`` counts the states taken from a level and ``union_steps``
    the steps of a disconnected target's union phase; a stop comes before
    the step it refuses, so a cap stop leaves their sum at the cap.
    """

    def __init__(self, accepted: int = 0):
        self.candidates_generated = 0
        self.orbit_skipped = 0
        self.pruned = 0
        self.deletion_skipped = 0
        # children whose class the same parent already produced
        self.duplicates = 0
        # children whose class an earlier parent on the level made; perfbench reads both
        self.parent_rejected = 0
        self.explored = 0
        self.union_steps = 0
        self.accepted = accepted
        self.elapsed_seconds = 0.0

    def __repr__(self):
        counters = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"SearchStats({counters})"


class RootRecord(NamedTuple):
    graph: Multigraph
    canonical: CanonicalForm
    witness: dict  # vertex of the constructed graph -> vertex of H


class RootSet:
    """The roots of a search, sorted by certificate, with its bounds (None
    for a closed form) and counters."""

    def __init__(self, target: Multigraph, ell: int, mode: str, roots: tuple,
                 bounds: SearchBounds | None, stats: SearchStats):
        self.target = target
        self.ell = ell
        self.mode = mode  # "link" or "path"
        self.roots = roots
        self.bounds = bounds
        self.stats = stats

    def __len__(self):
        return len(self.roots)

    def canonical_set(self):
        return {r.canonical.data for r in self.roots}

    def __iter__(self):
        return iter(self.roots)


def _audit_link_root(g: Multigraph, h: Multigraph, ell: int, result):
    """Bound lemmas every returned link root must satisfy; hard failure.

    ``result`` is the ell-link graph of g.
    """
    parts = link_partitions(result)
    census = count_cyclic_components(PartitionedGraph.from_link_graph(result, parts))
    _check(g.m <= ell * h.n, "size bound violated")
    _check(g.n <= ell * h.n + census.acyclic_count, "order bound violated")
    b = max(census.acyclic_count, census.max_part_degree)
    _check(g.max_degree() <= b + 1, "degree bound violated")
    if g.is_tree():
        ecc = metrics(g).eccentricity
        cap = len(result.graph.components()) + 1
        for v in range(g.n):
            if ecc[v] < ell:
                _check(g.degree(v) <= cap, "tree interior degree bound violated")


def _audit_path_root(g: Multigraph, h: Multigraph, ell: int, result):
    c = component_census(h)[0]
    _check(g.m <= ell * h.n, "path-root size bound violated")
    _check(g.n <= ell * h.n + c, "path-root order bound violated")


def _labelled(h: Multigraph):
    """The canonical form of h and the vertex of h at each canonical label."""
    form, labelling = canonical_labeling(h)
    return form, sorted(range(h.n), key=labelling.__getitem__)


def _witness(graph: Multigraph, h: Multigraph, h_form, h_vertex_at):
    """The isomorphism graph -> h that the canonical labellings of both
    give, checked edge by edge; None when the canonical forms differ.
    ``h_form`` and ``h_vertex_at`` are ``_labelled(h)``."""
    form, labelling = canonical_labeling(graph)
    if form != h_form:
        return None
    witness = {v: h_vertex_at[label] for v, label in enumerate(labelling)}
    _check(
        verify_isomorphism(graph, h, witness),
        "isomorphism witness failed verification",
    )
    return witness


class _Target:
    """What both searches share: the target's sizes and the accept path.

    ``measure(g)`` returns the sizes (unit count, adjacency count) of the
    graph g builds and an isomorphism-invariant value per vertex of g, or
    None when the sizes exceed the target's; both counts only grow with g,
    so that prunes every supergraph of g too.  Each mode also supplies
    ``complete(g)``, its minimality test on a graph of the right sizes,
    ``build(g)``, the construction, and ``audit``, the bound lemmas every
    root it returns must satisfy.  ``crossing(g, sizes, values)``, given
    g's ``measure``, returns a function of a proposal (u, v): None when the
    child g + uv is over the target's sizes, so it is skipped before it is
    built, else sizes that bound the child's from below: g's own in link
    mode, the child's exactly in path mode.  ``admit(child, sizes, stats)``
    takes those sizes and runs the remaining tests on the built child.
    """

    def __init__(self, h, ell, bounds, options):
        self.h = h
        self.ell = ell
        self.bounds = bounds
        self.h_form, self.h_vertex_at = _labelled(h)
        self.required = (
            bounds.required_link_count,
            bounds.required_super_link_count,
        )

    def try_accept(self, g: Multigraph, cert: CanonicalForm, sizes):
        if sizes != self.required:
            return None
        if not self.complete(g):
            return None
        result = self.build(g)
        witness = _witness(result.graph, self.h, self.h_form, self.h_vertex_at)
        if witness is None:
            return None
        self.audit(g, self.h, self.ell, result)
        return RootRecord(graph=g, canonical=cert, witness=witness)


def _walk_columns(g: Multigraph, ell: int):
    """The ell- and (ell + 1)-arc counts of g, and per vertex x the column
    (W[0][x], ..., W[ell][x]) of the k-arcs of g ending at x."""
    counts, ends = _walk_tables(g, ell + 1)
    return counts[ell], counts[ell + 1], list(zip(*ends))


def _links_gained(columns, ell: int):
    """Lower bounds on the ell- and (ell + 1)-links that g + uv has and g
    has not, as a function of (u, v); v = g.n is a new vertex.  ``columns``
    are g's walk columns, from ``_walk_columns``.

    They count the links that cross uv once, from u to v: an arc of g
    ending at u, then uv, then an arc of g from v, ell - 1 (ell) long
    together.  With W[k][x] the k-arcs of g ending (by reversal, starting)
    at x, and W = (1, 0, ..., 0) at a new vertex, they number the sums of
    W[i][u] W[ell-1-i][v] over i < ell and of W[i][u] W[ell-i][v] over
    i <= ell.  Links crossing uv twice are not counted, not even for a
    pendant uv: out of v, round a closed walk through u, and back.
    """
    columns = columns + [(1,) + (0,) * ell]  # columns[x][k] = W[k][x]
    backwards = [column[::-1] for column in columns]

    def gained(u, v):
        a, b = columns[u], backwards[v]
        return sum(map(mul, a, b[1:])), sum(map(mul, a, b))

    return gained


class _LinkTarget(_Target):
    """Prunes and final acceptance for minimal ell-root search."""

    mode = "link"
    audit = staticmethod(_audit_link_root)

    def __init__(self, h, ell, bounds, options):
        super().__init__(h, ell, bounds, options)
        self.forbid_cycles = bounds.max_cyclic_components == 0 or options.forests_only
        self.max_degree = bounds.max_degree
        # a mu-bundle forces a link of degree 2(mu - 1) in the link graph
        delta_h = h.max_degree()
        self.max_multiplicity = max(1, delta_h // 2 + 1)

    def measure(self, g: Multigraph):
        arcs, super_arcs, columns = _walk_columns(g, self.ell)
        links, super_links = arcs // 2, super_arcs // 2
        required_links, required_super_links = self.required
        if links > required_links or super_links > required_super_links:
            return None
        return (links, super_links), columns

    def crossing(self, g: Multigraph, sizes, columns):
        if g.n == 0:
            return lambda u, v: sizes  # sizes only grow
        gained = _links_gained(columns, self.ell)
        spare_links = self.required[0] - sizes[0]
        spare_super_links = self.required[1] - sizes[1]

        def child_sizes(u, v):
            links, super_links = gained(u, v)
            if links > spare_links or super_links > spare_super_links:
                return None
            return sizes

        return child_sizes

    def admit(self, child: Multigraph, sizes, stats):
        """The child's ``measure`` when it is inside the target's sizes and
        its new edge may be its canonical deletion; otherwise None, with
        the child counted in ``stats`` as pruned or deletion-skipped.  The
        deletion test reads the walk columns ``measure`` gives, so it comes
        second; ``sizes``, the parent's, are not read."""
        measured = self.measure(child)
        if measured is None:
            stats.pruned += 1
        elif not _may_delete_last(child, measured[1]):
            stats.deletion_skipped += 1
            return None
        return measured

    def complete(self, g: Multigraph) -> bool:
        if component_census(g)[1] > self.bounds.max_cyclic_components:
            return False
        return is_l_minimal(g, self.ell)

    def build(self, g: Multigraph):
        return link_graph(g, self.ell)


def is_path_minimal(g: Multigraph, ell: int) -> bool:
    """Every unit lies on some ell-path (null graph counts as minimal)."""
    pending_v = set(range(g.n))
    pending_e = set(range(g.m))
    for seq in iter_links(g, ell, distinct=True):
        pending_v.difference_update(seq[0::2])
        pending_e.difference_update(seq[1::2])
        if not pending_v and not pending_e:
            return True
    return not pending_v and not pending_e


def _paths_through(g: Multigraph, ell: int, u: int, v: int, spare) -> tuple:
    """The numbers of ell-paths and of ell-path-graph edges that g + uv has
    and g has not; v = g.n is a new vertex.  The count stops as soon as one
    of them passes its bound in ``spare``, and that one then reads one past
    it.

    A new ell-path uses uv: it is a path of g ending at u, then uv, then a
    path of g from v with no vertex in common with the first.  Each is
    grown once from uv: at u's end, then at v's end, and never again at u's
    once it has grown at v's.  Two ell-paths are adjacent when together
    they form an (ell + 1)-path or close an (ell + 1)-cycle, and the new
    edges are those of the paths and cycles through uv.  A new path gives
    one (ell + 1)-path per step off the end it grows at, and off v while it
    may still grow there; so each new (ell + 1)-path is counted once, on
    the new ell-path inside it with the fewest edges past v.  A cycle through
    uv is counted once, on the new path that runs from v through u round to
    the cycle's last vertex: that path has grown at u's end only, and its
    end has an edge of g to v, one cycle per such edge.  A cycle gives one
    edge per two of its ell-paths that miss neighbouring edges, ell + 1 of
    them; at ell = 1 it is uv with a parallel edge, whose two 1-paths give
    one edge.  Every edge they give has a new path, so both counts are
    exact.
    """
    adj = g.adjacency
    most_paths, most_pairs = spare
    per_cycle = ell + 1 if ell > 1 else 1
    paths = pairs = 0
    # (the end it grows at, its vertices, whether it may still grow at v);
    # a new vertex v has no edge of g to grow along
    stack = [(u, (v, u), v < g.n)]
    while stack:
        x, used, at_v = stack.pop()
        if len(used) <= ell:  # shorter than ell
            for _, w in adj[x]:
                if w not in used:
                    stack.append((w, used + (w,), at_v))
            if at_v:
                for _, w in adj[v]:
                    if w not in used:
                        stack.append((w, used + (w,), False))
            continue
        paths += 1
        for _, w in adj[x]:
            if w not in used:
                pairs += 1
            elif at_v and w == v:  # closes a cycle through uv
                pairs += per_cycle
        if at_v:
            for _, w in adj[v]:
                if w not in used:
                    pairs += 1
        if paths > most_paths or pairs > most_pairs:
            break
    return min(paths, most_paths + 1), min(pairs, most_pairs + 1)


class _PathTarget(_Target):
    """Prunes and final acceptance for minimal ell-path-root search.

    A minimal path root has exactly n(H) ell-paths and every edge lies on
    one of them; a path holds at most two edges at a vertex and at most one
    edge of a bundle, so degrees are at most 2 n(H) and multiplicities at
    most n(H).  There is no cycle prune: cyclic roots of acyclic targets
    do exist.
    """

    mode = "path"
    audit = staticmethod(_audit_path_root)

    def __init__(self, h, ell, bounds, options):
        super().__init__(h, ell, bounds, options)
        self.forbid_cycles = options.forests_only
        self.max_degree = 2 * h.n
        self.max_multiplicity = h.n

    def measure(self, g: Multigraph):
        try:
            paths, pairs = path_units(g, self.ell, *self.required)
        except LinkCountExceeded:
            return None
        return (len(paths), len(pairs)), g.degrees()

    def crossing(self, g: Multigraph, sizes, degrees):
        if g.n == 0:
            # the empty graph's one child is K2: one 1-path, no longer path
            return lambda u, v: (int(self.ell == 1), 0)
        paths, pairs = sizes
        spare = (self.required[0] - paths, self.required[1] - pairs)

        def child_sizes(u, v):
            more_paths, more_pairs = _paths_through(g, self.ell, u, v, spare)
            if more_paths > spare[0] or more_pairs > spare[1]:
                return None
            return paths + more_paths, pairs + more_pairs

        return child_sizes

    def admit(self, child: Multigraph, sizes, stats):
        """``sizes``, the child's, and its degrees, unless its new edge
        cannot be its canonical deletion; then None, with the child counted
        in ``stats`` as deletion-skipped.  The crossing count made the sizes
        exact, so no path of the child is listed."""
        degrees = child.degrees()
        if not _may_delete_last(child, degrees):
            stats.deletion_skipped += 1
            return None
        return sizes, degrees

    def complete(self, g: Multigraph) -> bool:
        return is_path_minimal(g, self.ell)

    def build(self, g: Multigraph):
        return path_graph(g, self.ell)


def _multiplicities(edges) -> dict:
    """The number of copies of each edge, keyed by its pair (u, v), u < v,
    as the edges are stored."""
    # a plain dict: building a Counter costs more than this loop on the
    # few edges a search's graphs have
    counts = {}
    for edge in edges:
        counts[edge] = counts.get(edge, 0) + 1
    return counts


def _proposals(g, target) -> list:
    """The pairs (u, v) for which g + uv stays connected and inside the
    target's caps."""
    if g.n == 0:
        return [(0, 1)]
    degrees = g.degrees()
    max_deg = target.max_degree
    new_vertex = g.n < target.bounds.max_n
    multiplicity = _multiplicities(g.edges)
    proposals = []
    for u in range(g.n):
        if degrees[u] + 1 > max_deg:
            continue
        if not target.forbid_cycles:
            for v in range(u + 1, g.n):
                if degrees[v] + 1 > max_deg:
                    continue
                if multiplicity.get((u, v), 0) + 1 > target.max_multiplicity:
                    continue
                proposals.append((u, v))
        if new_vertex:
            proposals.append((u, g.n))
    return proposals


def _bridges(g: Multigraph) -> set:
    """The ids of the edges of g whose deletion disconnects their ends
    (Tarjan's low points, iteratively; a parallel edge is never one)."""
    order = [0] * g.n  # 1 + discovery index; 0 while unvisited
    low = [0] * g.n
    bridges = set()
    adj = g.adjacency
    visited = 0
    for root in range(g.n):
        if order[root]:
            continue
        visited += 1
        order[root] = low[root] = visited
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, steps = stack[-1]
            for e, w in steps:
                if e == via:
                    continue
                if order[w]:
                    low[v] = min(low[v], order[w])
                else:
                    visited += 1
                    order[w] = low[w] = visited
                    stack.append((w, e, iter(adj[w])))
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        bridges.add(via)
    return bridges


def _may_delete_last(g: Multigraph, values) -> bool:
    """False when a legal deletion of g has a larger value than g's last
    edge, so that edge is not its canonical deletion.

    ``values`` holds an isomorphism-invariant value per vertex; an edge's
    value is the sorted pair of its ends' values, then its multiplicity.
    The last edge must itself be legal.  A parallel or pendant rival is
    legal as it stands; only a rival that is neither needs the bridge pass.
    """
    edges = g.edges
    multiplicity = _multiplicities(edges)
    last = edges[-1]
    a, b = values[last[0]], values[last[1]]
    top = (a, b) if a <= b else (b, a)
    top_multiplicity = multiplicity[last]
    rivals = []
    for e, edge in enumerate(edges):
        a, b = values[edge[0]], values[edge[1]]
        pair = (a, b) if a <= b else (b, a)
        if pair > top or pair == top and multiplicity[edge] > top_multiplicity:
            rivals.append(e)
    if not rivals:
        return True
    degrees = g.degrees()
    for e in rivals:
        u, v = edges[e]
        if degrees[u] == 1 or degrees[v] == 1 or multiplicity[u, v] > 1:
            return False
    bridges = _bridges(g)
    return all(e in bridges for e in rivals)


def _orderly_search(targets, stats, reached, unions=None):
    """Grow the connected candidates of every target, one edge level at a
    time for all of them together; with ``unions``, check the unions of
    their roots with m edges once level m is grown, up to ``unions.max_m``.

    Returns one dict per target (certificate -> accepted record) and the
    level a stop interrupted, or None when every search finished.  The
    search stops as soon as ``reached()``, the cap or deadline test, holds.
    """
    accepted = [{} for _ in targets]
    empty = Multigraph(0)
    cert = canonical_form(empty)
    # (target index, certificate) -> [graph, certificate, sizes,
    #     index of the last parent, Aut(graph) generators, vertex values]
    level = {}
    for t, target in enumerate(targets):
        sizes, values = target.measure(empty)
        level[t, cert.data] = [empty, cert, sizes, 0, [], values]
    m = 0
    while level or (unions is not None and m <= unions.max_m):
        following = {}
        for index, ((t, key), (g, cert, sizes, _, generators, values)) in enumerate(
            level.items()
        ):
            if reached():
                return accepted, m
            stats.explored += 1
            target = targets[t]
            record = target.try_accept(g, cert, sizes)
            if record is not None:
                accepted[t][key] = record
            if g.m >= target.bounds.max_m:
                continue
            proposals = _proposals(g, target)
            # One proposal per orbit of Aut(g); new vertices are fixed points.
            firsts = orbit_roots(proposals, generators)
            crossing = target.crossing(g, sizes, values)
            for i, (u, v) in enumerate(proposals):
                if firsts[i] != i:
                    stats.orbit_skipped += 1
                    continue
                stats.candidates_generated += 1
                bound = crossing(u, v)
                if bound is None:
                    stats.pruned += 1
                    continue
                child = g.add_edge(u, v)
                measured = target.admit(child, bound, stats)
                if measured is None:
                    continue
                child_sizes, child_values = measured
                child_cert, _, child_generators = canonical_search(child)
                entry = following.get((t, child_cert.data))
                if entry is None:
                    following[t, child_cert.data] = [
                        child, child_cert, child_sizes, index, child_generators,
                        child_values,
                    ]
                elif entry[3] == index:
                    stats.duplicates += 1
                else:
                    stats.parent_rejected += 1
                    entry[3] = index
        if unions is not None and not unions.check(m, accepted):
            return accepted, m
        level = following
        m += 1
    return accepted, None


class _Unions:
    """The disjoint unions of block roots over every multiset partition of
    the target's component classes, each accepted as a root of the whole
    target.  ``roots`` maps certificates to the records accepted so far.
    Every step of this phase follows the ``reached()`` test and counts in
    ``stats.union_steps``, so the cap and the deadline bound it however
    many components the target has."""

    def __init__(self, whole, stats, reached):
        self.whole = whole
        # a union has at most ell * n(H) edges, the sum of its blocks' bounds
        self.max_m = whole.bounds.max_m
        self.stats = stats
        self.reached = reached
        self.stopped = False
        self.roots = {}

    def _step(self) -> bool:
        """True once the search must stop; otherwise count one step."""
        if not self.stopped:
            self.stopped = self.reached()
            if not self.stopped:
                self.stats.union_steps += 1
        return self.stopped

    def block_targets(self, target_class, h, ell, options):
        """A connected-only target per nonempty block (a sub-multiset of
        H's component classes, by certificate), or None when the search
        must stop before all are built."""
        classes = {}
        for comp in h.components():
            g = h.induced_on(comp)
            classes.setdefault(canonical_form(g).data, [g, 0])[1] += 1
        classes = [classes[key] for key in sorted(classes)]
        self.total = tuple(count for _, count in classes)
        self.blocks = []
        targets = []
        for counts in itertools.product(*(range(c + 1) for c in self.total)):
            if not any(counts):
                continue
            if self._step():
                return None
            block = Multigraph(0)
            for (g, _), k in zip(classes, counts):
                for _ in range(k):
                    block = block.disjoint_union(g)
            self.blocks.append(counts)
            targets.append(
                target_class(block, ell, compute_bounds(block, ell), options)
            )
        return targets

    def _partitions(self, total, live, start=0):
        """Each multiset of the blocks ``live[start:]`` (index tuples in
        the order of ``live``) whose class counts add up to ``total``; it
        ends early when the search must stop."""
        if not any(total):
            yield ()
            return
        for i in range(start, len(live)):
            if self._step():
                return
            rest = tuple(t - k for t, k in zip(total, self.blocks[live[i]]))
            if min(rest) >= 0:
                for tail in self._partitions(rest, live, i):
                    yield (live[i],) + tail

    def check(self, m, accepted) -> bool:
        """Accept the unions with m edges; False if the search must stop
        first.  Every block root with at most m edges must be accepted.
        Only the partitions into blocks that have roots so far are tried."""
        live = [b for b in range(len(self.blocks)) if accepted[b]]
        for partition in self._partitions(self.total, live):
            for parts in itertools.product(*(accepted[b].values() for b in partition)):
                if self._step():
                    return False
                if sum(record.graph.m for record in parts) != m:
                    continue
                g = parts[0].graph
                for record in parts[1:]:
                    g = g.disjoint_union(record.graph)
                cert = canonical_form(g)
                if cert.data in self.roots:
                    continue
                measured = self.whole.measure(g)
                sizes = measured and measured[0]
                record = self.whole.try_accept(g, cert, sizes)
                _check(record is not None, "a union of block roots is not a root")
                self.roots[cert.data] = record
        return not self.stopped


def _trivial_rootset(h, ell, mode, graphs):
    h_form, h_vertex_at = _labelled(h)
    records = []
    for g in graphs:
        result = link_graph(g, ell) if mode == "link" else path_graph(g, ell)
        witness = _witness(result.graph, h, h_form, h_vertex_at)
        _check(witness is not None, "isomorphism witness failed verification")
        records.append(
            RootRecord(graph=g, canonical=canonical_form(g), witness=witness)
        )
    records.sort(key=lambda r: r.canonical.data)
    return RootSet(
        target=h,
        ell=ell,
        mode=mode,
        roots=tuple(records),
        bounds=None,
        stats=SearchStats(accepted=len(records)),
    )


def _search(target_class, h, ell, options):
    options = options or SearchOptions()
    # a connected candidate has at most max_m + 1 vertices, a union of
    # block candidates at most ell * n(H) + c(H); ell = 0 returns H itself
    most = max(h.n, ell * h.n + len(h.components()))
    if most > _MAX_VERTICES:
        raise ValueError(
            f"a root search for a target with {h.n} vertices at ell = {ell} "
            f"may build graphs with {most} vertices; canonical forms hold at "
            f"most {_MAX_VERTICES}"
        )
    if ell == 0:
        return _trivial_rootset(h, 0, target_class.mode, [h])
    if h.n == 0:
        return _trivial_rootset(h, ell, target_class.mode, [Multigraph(0)])
    bounds = compute_bounds(h, ell)
    deadline = (
        time.monotonic() + options.budget_seconds
        if options.budget_seconds is not None
        else None
    )
    stats = SearchStats()

    def capped():
        return stats.explored + stats.union_steps >= options.max_states

    def reached():
        return capped() or (deadline is not None and time.monotonic() > deadline)

    start = time.monotonic()
    whole = target_class(h, ell, bounds, options)
    if options.connected_only or len(h.components()) == 1:
        accepted, stopped = _orderly_search([whole], stats, reached)
        roots = accepted[0]
    else:
        unions = _Unions(whole, stats, reached)
        targets = unions.block_targets(target_class, h, ell, options)
        if targets is None:
            stopped = 0
        else:
            _, stopped = _orderly_search(targets, stats, reached, unions)
        roots = unions.roots
    stats.elapsed_seconds = time.monotonic() - start
    stats.accepted = len(roots)
    root_set = RootSet(
        target=h,
        ell=ell,
        mode=target_class.mode,
        roots=tuple(roots[key] for key in sorted(roots)),
        bounds=bounds,
        stats=stats,
    )
    if stopped is not None:
        if capped():
            limit = f"search cap of {options.max_states} states reached"
        else:
            limit = f"search budget of {options.budget_seconds}s exhausted"
        raise BudgetExceeded(
            f"{limit} at {stopped} edges; every root with fewer than "
            f"{stopped} edges is listed",
            stats,
            root_set,
        )
    return root_set


def minimal_link_roots(
    h: Multigraph, ell: int, options: SearchOptions | None = None
) -> RootSet:
    """All minimal ell-roots of h, exhaustively, up to isomorphism."""
    return _search(_LinkTarget, h, ell, options)


def minimal_path_roots(
    h: Multigraph, ell: int, options: SearchOptions | None = None
) -> RootSet:
    """All minimal ell-path roots of h, exhaustively, up to isomorphism."""
    if h.has_parallel_edges():
        # path graphs are simple, so nothing can hit such a target
        return RootSet(h, ell, "path", (), None, SearchStats())
    return _search(_PathTarget, h, ell, options)


def cycle_roots(t: int, ell: int) -> RootSet:
    """Closed-form minimal ell-roots of a t-cycle (no search)."""
    if t < 2:
        raise MultigraphError("cycles need t >= 2")
    h = cycle_graph(t)
    graphs = [h]
    if ell >= 1 and t == 3 * ell:
        graphs.append(subdivided_star(3, ell))
    if t % 4 == 0:
        s = t // 4
        if s >= 1 and ell >= 2 * s + 1:
            graphs.append(middle_joined_paths(s, ell - s))
    return _trivial_rootset(h, ell, "link", graphs)


def pair_empty_roots(ell: int) -> RootSet:
    """Closed-form minimal ell-roots of the two-vertex empty graph."""
    h = Multigraph(2)
    if ell == 0:
        return _trivial_rootset(h, 0, "link", [h])
    graphs = [path_graph_family(ell).disjoint_union(path_graph_family(ell))]
    graphs += [tailed_path(ell, i, i) for i in range(1, (ell - 1) // 2 + 1)]
    out = _trivial_rootset(h, ell, "link", graphs)
    _check(len(out) == (ell + 1) // 2, "closed-form root count violated")
    return out


def tail_threshold(t: Multigraph, v: int) -> int:
    """The diameter threshold above which pasting a tail at v replicates t."""
    if not t.is_tree():
        raise MultigraphError("tail threshold is defined for trees")
    if not 0 <= v < t.n:
        raise MultigraphError(f"no vertex {v}")
    if t.degree(v) >= 2:
        return int(metrics(t).diameter)
    if t.max_degree() <= 2:
        return -1
    edge_in, cur = -1, v
    while t.degree(cur) < 3:
        edge_in, cur = next(
            (e, w) for e, w in t.adjacency[cur] if e != edge_in
        )
    split = tree_split(t, edge_in, cur)
    far = t.induced_on(split.component_vertices)
    return int(metrics(far).diameter)


def attach_tail(t: Multigraph, v: int, ell: int) -> Multigraph:
    """t with a fresh ell-path pasted at v by one end."""
    threshold = tail_threshold(t, v)
    if ell < threshold + 1:
        warnings.warn(
            f"ell = {ell} below the replication threshold {threshold + 1}; "
            "the link graph of the result need not recover the tree",
            stacklevel=2,
        )
    chain = [v] + list(range(t.n, t.n + ell))
    edges = list(t.edges) + [(chain[i], chain[i + 1]) for i in range(ell)]
    return Multigraph(t.n + ell, edges)
