"""Exhaustive enumeration of minimal link roots and path roots.

Candidates are grown edge by edge, depth first, and a child is visited only
when its certificate is not in the set of classes visited so far, so every
isomorphism class of loopless multigraphs (without isolated vertices)
inside the bounds is visited exactly once.  Monotone prunes keep the tree
small: walk counts never decrease when an edge is added, degrees and
multiplicities only grow, and cycles never disappear.  So deleting an edge
of a class inside the bounds (and the vertices it leaves isolated) gives a
class inside the bounds, whose visit proposes an edge that gives the class
back; by induction on the edge count every class is reached.  Pairs in one
orbit of the parent's automorphism group give isomorphic children, so only
the first proposal of each orbit is tried (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998); the first proposal giving a
child class is always tried, so the same children are visited as without
the orbits, and a generating set that missed part of the group would only
cost time.

The ell-link graph and the ell-path graph of a disjoint union are the
disjoint unions of those of its parts.  For ell >= 1 every vertex of a
minimal root lies on an ell-link (ell-path), so every component of the
root adds at least one component to H, and a minimal root has at most
c(H) components (one under ``connected_only``).  The count is not monotone,
so the search bounds it by never proposing a new disjoint edge to a graph
that already has that many components.  Every class inside the bounds
still has a parent inside them with no more components: if the class has
a non-bridge edge, delete it; otherwise delete a pendant edge of a
component with at least two edges; otherwise delete a one-edge component.
Only the last parent has fewer components, and it is the one whose visit
proposes the new disjoint edge.  Under ``connected_only`` every graph grown
is connected, so acceptance needs no connectivity test of its own.

Non-monotone conditions (cyclic-component count, minimality, the final
isomorphism) are checked on complete candidates only.

One search shares a component memo between its canonical labellings and
automorphism generators (see ``canon``): adding an edge leaves every other
component of the parent, and its vertex ids, as they were, so most
component searches would repeat one already run.  The memo is dropped when
the search returns; ``SearchStats.canon_searches`` is its size.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from .canon import (
    CanonicalForm,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    find_isomorphism,
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
from .links import count_arcs_by_length, iter_links
from .multigraph import (
    InternalCheckError,  # raised by the checks below; callers catch it here
    Multigraph,
    MultigraphError,
    _check,
    metrics,
    tree_split,
)
from .partition import PartitionedGraph, count_cyclic_components


class SearchRefused(RuntimeError):
    """The derived bounds exceed the configured desk-scale budget."""


class BudgetExceeded(RuntimeError):
    """Time budget ran out; carries the partial results and statistics."""

    def __init__(self, message, stats, partial):
        super().__init__(message)
        self.stats = stats
        self.partial = partial


@dataclass(frozen=True)
class SearchBounds:
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
    m = metrics(h)
    c = m.component_count
    return SearchBounds(
        ell=ell,
        max_m=ell * h.n,
        max_n=ell * h.n + c,
        max_degree=max(c, h.max_degree()) + 1,
        required_link_count=h.n,
        required_super_link_count=h.m,
        max_cyclic_components=m.cyclic_component_count,
    )


@dataclass(frozen=True)
class SearchOptions:
    forests_only: bool = False
    connected_only: bool = False
    budget_seconds: float | None = None
    max_edges_limit: int = 20

    def __post_init__(self):
        # "not > 0" also rejects NaN
        if self.budget_seconds is not None and not self.budget_seconds > 0:
            raise ValueError("budget_seconds must be positive")
        if self.max_edges_limit < 1:
            raise ValueError("max_edges_limit must be at least 1")


@dataclass
class SearchStats:
    candidates_generated: int = 0
    orbit_skipped: int = 0
    pruned: int = 0
    duplicates: int = 0
    # children of a class already visited; perfbench reads this field
    parent_rejected: int = 0
    explored: int = 0
    accepted: int = 0
    canon_searches: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class RootRecord:
    graph: Multigraph
    canonical: CanonicalForm
    witness: dict = field(repr=False)  # vertex of the constructed graph -> vertex of H

    @property
    def is_tree(self) -> bool:
        return self.graph.is_tree()

    @property
    def is_forest(self) -> bool:
        return self.graph.is_acyclic()


@dataclass(frozen=True)
class RootSet:
    target: Multigraph
    ell: int
    mode: str  # "link" or "path"
    roots: tuple
    bounds: SearchBounds | None
    stats: SearchStats

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
    c = metrics(h).component_count
    _check(g.m <= ell * h.n, "path-root size bound violated")
    _check(g.n <= ell * h.n + c, "path-root order bound violated")


def _verified_witness(graph: Multigraph, h: Multigraph) -> dict:
    """An isomorphism graph -> h, checked edge by edge."""
    witness = find_isomorphism(graph, h)
    _check(
        witness is not None and verify_isomorphism(graph, h, witness),
        "isomorphism witness failed verification",
    )
    return witness


class _Target:
    """What both searches share: the target's sizes and the accept path.

    ``measure(g)`` returns the sizes (unit count, adjacency count) of the
    graph g builds, or None when they exceed the target's; both counts only
    grow with g, so that prunes every supergraph of g too.  Each mode also
    supplies ``complete(g)``, its minimality test on a graph of the right
    sizes, ``build(g)``, the construction, and ``audit``, the bound lemmas
    every root it returns must satisfy.
    """

    def __init__(self, h, ell, bounds, options):
        self.h = h
        self.ell = ell
        self.bounds = bounds
        self.h_cert = canonical_form(h)
        # each component of a minimal root adds a component to H
        self.max_components = (
            1 if options.connected_only else len(h.components())
        )
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
        if canonical_form(result.graph) != self.h_cert:
            return None
        witness = _verified_witness(result.graph, self.h)
        self.audit(g, self.h, self.ell, result)
        return RootRecord(graph=g, canonical=cert, witness=witness)


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
        counts = count_arcs_by_length(g, self.ell + 1)
        links, super_links = counts[self.ell] // 2, counts[self.ell + 1] // 2
        required_links, required_super_links = self.required
        if links > required_links or super_links > required_super_links:
            return None
        return links, super_links

    def complete(self, g: Multigraph) -> bool:
        if metrics(g).cyclic_component_count > self.bounds.max_cyclic_components:
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
        units = path_units(g, self.ell, *self.required)
        if units is None:
            return None
        paths, pairs = units
        return len(paths), len(pairs)

    def complete(self, g: Multigraph) -> bool:
        return is_path_minimal(g, self.ell)

    def build(self, g: Multigraph):
        return path_graph(g, self.ell)


def _orderly_search(target, bounds, options) -> tuple:
    deadline = (
        time.monotonic() + options.budget_seconds
        if options.budget_seconds is not None
        else None
    )
    stats = SearchStats()
    start = time.monotonic()
    accepted = {}
    memo = {}
    visited = set()

    def visit(g, cert, sizes):
        stats.explored += 1
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                f"search budget of {options.budget_seconds}s exhausted",
                stats,
                _finish(target, bounds, accepted, stats, start, memo),
            )
        record = target.try_accept(g, cert, sizes)
        if record is not None:
            accepted[cert.data] = record
            stats.accepted += 1
        if g.m >= bounds.max_m:
            return
        comps = g.components()
        comp_label = [0] * g.n
        for i, comp in enumerate(comps):
            for v in comp:
                comp_label[v] = i
        degrees = g.degrees()
        max_deg = target.max_degree
        max_mult = target.max_multiplicity

        proposals = []
        for u in range(g.n):
            if degrees[u] + 1 > max_deg:
                continue
            for v in range(u + 1, g.n):
                if degrees[v] + 1 > max_deg:
                    continue
                if target.forbid_cycles and comp_label[u] == comp_label[v]:
                    continue
                if g.multiplicity(u, v) + 1 > max_mult:
                    continue
                proposals.append((u, v))
            if g.n < bounds.max_n:
                proposals.append((u, g.n))
        if g.n + 2 <= bounds.max_n and len(comps) < target.max_components:
            proposals.append((g.n, g.n + 1))

        # One proposal per orbit of Aut(g); new vertices are fixed points.
        firsts = orbit_roots(proposals, automorphism_generators(g, memo))
        seen_children = set()
        for i, (u, v) in enumerate(proposals):
            if firsts[i] != i:
                stats.orbit_skipped += 1
                continue
            stats.candidates_generated += 1
            child = g.add_edge(u, v)
            child_sizes = target.measure(child)
            if child_sizes is None:
                stats.pruned += 1
                continue
            child_cert = canonical_labeling(child, memo=memo)[0]
            if child_cert.data in seen_children:
                stats.duplicates += 1
                continue
            seen_children.add(child_cert.data)
            if child_cert.data in visited:
                stats.parent_rejected += 1
                continue
            visited.add(child_cert.data)
            visit(child, child_cert, child_sizes)

    empty = Multigraph(0)
    try:
        visit(empty, canonical_form(empty), target.measure(empty))
    finally:
        # visit reaches itself through its closure, a reference cycle that
        # would keep every labelling alive until a cyclic GC pass
        del visit
    return _finish(target, bounds, accepted, stats, start, memo)


def _finish(target, bounds, accepted, stats, start, memo):
    stats.elapsed_seconds = time.monotonic() - start
    stats.canon_searches = len(memo)
    roots = tuple(
        accepted[key] for key in sorted(accepted)
    )
    return RootSet(
        target=target.h,
        ell=target.ell,
        mode=target.mode,
        roots=roots,
        bounds=bounds,
        stats=stats,
    )


def _trivial_rootset(h, ell, mode, graphs):
    records = []
    for g in graphs:
        result = link_graph(g, ell) if mode == "link" else path_graph(g, ell)
        witness = _verified_witness(result.graph, h)
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
    if ell == 0:
        return _trivial_rootset(h, 0, target_class.mode, [h])
    if h.n == 0:
        return _trivial_rootset(h, ell, target_class.mode, [Multigraph(0)])
    bounds = compute_bounds(h, ell)
    if bounds.max_m > options.max_edges_limit:
        raise SearchRefused(
            f"target needs up to {bounds.max_m} edges; limit is "
            f"{options.max_edges_limit} (raise max_edges_limit to override)"
        )
    return _orderly_search(target_class(h, ell, bounds, options), bounds, options)


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
