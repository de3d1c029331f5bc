"""Incidence of units with ell-links, incidence subgraphs, minimality,
equivalence, class expansion, and incidence-pair counting.

A unit (vertex or edge) is ell-incident when some ell-link passes through it.
Cyclic connected components have every unit incident for every ell; on tree
components the tests run in linear time from directed subtree heights: a
vertex is incident iff its two largest outgoing heights sum to at least ell,
and an edge is incident iff both of its ends are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import canonical_form
from .links import Link, _canonical, _sequence_girth, iter_links
from .multigraph import Multigraph, MultigraphError, _bfs_distances, _check, metrics


class RecipeError(ValueError):
    pass


def _directed_heights(g: Multigraph, comp):
    """For a tree component: h[(v, e)] = ecc of v within the side of e away
    from v, including e itself (>= 1)."""
    root = comp[0]
    order = [root]
    parent = {root: (-1, -1)}  # vertex -> (parent vertex, edge id)
    for v in order:
        for e, w in g.adjacency[v]:
            if w not in parent:
                parent[w] = (v, e)
                order.append(w)
    down = {}
    for v in reversed(order):
        for e, w in g.adjacency[v]:
            if parent.get(w, (None,))[0] == v:
                down[(v, e)] = 1 + max(
                    (down[(w, e2)] for e2, _ in g.adjacency[w] if e2 != e),
                    default=0,
                )
    heights = dict(down)
    for v in order:
        pv, pe = parent[v]
        if pv < 0:
            continue
        # height from v through its parent edge: longest escape route of pv
        # avoiding the edge back to v
        best = 0
        for e, w in g.adjacency[pv]:
            if e == pe:
                continue
            candidate = heights[(pv, e)]
            if candidate > best:
                best = candidate
        heights[(v, pe)] = 1 + best
    return heights


@dataclass(frozen=True)
class IncidenceReport:
    """Per-unit ell-incidence flags, the induced subgraph, and unit maps."""

    ell: int
    vertex_flags: tuple
    edge_flags: tuple
    graph: Multigraph
    vertex_map: dict = field(repr=False)  # old vertex id -> new id
    edge_map: dict = field(repr=False)  # old edge id -> new id
    witnesses: dict | None = field(repr=False, default=None)


def unit_flags(g: Multigraph, ell: int):
    """(vertex flags, edge flags) for ell-incidence, component by component."""
    vflags = [False] * g.n
    eflags = [False] * g.m
    if ell == 0:
        return tuple([True] * g.n), tuple([True] * g.m)
    comp_edges = {}
    comp_of = {}
    root_of = {}
    for comp in g.components():
        comp_of[comp[0]] = comp
        comp_edges[comp[0]] = []
        for v in comp:
            root_of[v] = comp[0]
    for e, (u, _v) in enumerate(g.edges):
        comp_edges[root_of[u]].append(e)
    for root, comp in comp_of.items():
        edges_here = comp_edges[root]
        if len(edges_here) >= len(comp):
            for v in comp:
                vflags[v] = True
            for e in edges_here:
                eflags[e] = True
            continue
        heights = _directed_heights(g, comp)
        for v in comp:
            hs = sorted((heights[(v, e)] for e, _ in g.adjacency[v]), reverse=True)
            top_two = (hs[0] if hs else 0) + (hs[1] if len(hs) > 1 else 0)
            vflags[v] = top_two >= ell
        for e in edges_here:
            u, v = g.edges[e]
            eflags[e] = vflags[u] and vflags[v]
    return tuple(vflags), tuple(eflags)


def is_unit_l_incident(
    g: Multigraph, kind: str, unit: int, ell: int, with_witness: bool = False
):
    """Whether a single unit lies on some ell-link.

    With ``with_witness`` returns (flag, ell-link-through-the-unit-or-None).
    """
    vflags, eflags = unit_flags(g, ell)
    if kind == "vertex":
        if not 0 <= unit < g.n:
            raise MultigraphError(f"no vertex {unit}")
        flag = vflags[unit]
    elif kind == "edge":
        if not 0 <= unit < g.m:
            raise MultigraphError(f"no edge {unit}")
        flag = eflags[unit]
    else:
        raise MultigraphError(f"unknown unit kind {kind!r}")
    if not with_witness:
        return flag
    witness = None
    if flag:
        witness = incidence_witnesses(g, ell).get((kind, unit))
        if witness is None and kind == "edge" and ell == 0:
            witness = Link((g.edges[unit][0],))
    return flag, witness


def incidence_witnesses(g: Multigraph, ell: int):
    """First ell-link through each incident unit (materializes the walks)."""
    witnesses = {}
    for seq in iter_links(g, ell):
        for v in seq[0::2]:
            witnesses.setdefault(("vertex", v), Link(seq))
        for e in seq[1::2]:
            witnesses.setdefault(("edge", e), Link(seq))
    return witnesses


def incidence_subgraph(
    g: Multigraph, ell: int, with_witnesses: bool = False
) -> IncidenceReport:
    """The subgraph induced by the ell-incident units, with unit maps."""
    vflags, eflags = unit_flags(g, ell)
    kept_vertices = [v for v in range(g.n) if vflags[v]]
    vertex_map = {v: i for i, v in enumerate(kept_vertices)}
    edges = []
    edge_map = {}
    for e, (u, v) in enumerate(g.edges):
        if eflags[e]:
            edge_map[e] = len(edges)
            edges.append((vertex_map[u], vertex_map[v]))
    return IncidenceReport(
        ell=ell,
        vertex_flags=vflags,
        edge_flags=eflags,
        graph=Multigraph(len(kept_vertices), edges),
        vertex_map=vertex_map,
        edge_map=edge_map,
        witnesses=incidence_witnesses(g, ell) if with_witnesses else None,
    )


def is_l_minimal(g: Multigraph, ell: int) -> bool:
    """Every unit ell-incident (the null graph counts as minimal)."""
    vflags, eflags = unit_flags(g, ell)
    return all(vflags) and all(eflags)


def is_l_equivalent(x: Multigraph, y: Multigraph, ell: int) -> bool:
    """Equivalence decided through isomorphism of the incidence subgraphs."""
    gx = incidence_subgraph(x, ell).graph
    gy = incidence_subgraph(y, ell).graph
    return canonical_form(gx) == canonical_form(gy)


@dataclass(frozen=True)
class PasteInstruction:
    component_index: int
    vertex: int
    tree: Multigraph
    root: int = 0


@dataclass(frozen=True)
class ExpansionRecipe:
    """Pastes of bounded-height rooted trees plus extra small components."""

    pastes: tuple = ()
    extra_components: tuple = ()


def _rooted_height(tree: Multigraph, root: int) -> int:
    if not tree.is_tree():
        raise RecipeError("pasted structures must be trees")
    if not 0 <= root < tree.n:
        raise RecipeError(f"no vertex {root} in the pasted tree")
    return max(_bfs_distances(tree, root))


def expand_class(g: Multigraph, ell: int, recipe: ExpansionRecipe) -> Multigraph:
    """Apply a recipe to an ell-minimal graph, staying inside its class.

    Validation is strict: every bound is checked against the ORIGINAL
    component metrics and violations name the failed inequality.
    """
    if not is_l_minimal(g, ell):
        raise RecipeError("expansion must start from an ell-minimal graph")
    comps = g.components()
    comp_metrics = []
    for comp in comps:
        sub = g.induced_on(comp)
        comp_metrics.append((comp, sub, metrics(sub)))

    half_up = -(-ell // 2)  # ceil(ell / 2)
    result_n = g.n
    new_edges = list(g.edges)

    for paste in recipe.pastes:
        if not 0 <= paste.component_index < len(comps):
            raise RecipeError(f"no component {paste.component_index}")
        comp, sub, m = comp_metrics[paste.component_index]
        if paste.vertex not in comp:
            raise RecipeError(
                f"vertex {paste.vertex} not in component {paste.component_index}"
            )
        if m.cyclic_component_count:
            raise RecipeError("paste target component must be acyclic")
        if not ell <= m.diameter <= 2 * ell - 4:
            raise RecipeError(
                f"component diameter {m.diameter} outside [{ell}, {2 * ell - 4}]"
            )
        s = m.eccentricity[comp.index(paste.vertex)]
        if not half_up <= s <= ell - 2:
            raise RecipeError(
                f"target eccentricity {s} outside [{half_up}, {ell - 2}]"
            )
        height = _rooted_height(paste.tree, paste.root)
        if height > ell - s - 1:
            raise RecipeError(
                f"pasted height {height} exceeds ell - s - 1 = {ell - int(s) - 1}"
            )
        # identify the pasted root with the target vertex
        mapping = {}
        for v in range(paste.tree.n):
            if v == paste.root:
                mapping[v] = paste.vertex
            else:
                mapping[v] = result_n
                result_n += 1
        new_edges.extend(
            (mapping[u], mapping[v]) for u, v in paste.tree.edges
        )

    for extra in recipe.extra_components:
        em = metrics(extra)
        if em.cyclic_component_count:
            raise RecipeError("extra components must be acyclic")
        if em.component_count and not all(
            e != float("inf") and e <= ell - 1
            for e in _component_diameters(extra)
        ):
            raise RecipeError(
                f"extra component diameter exceeds ell - 1 = {ell - 1}"
            )
        offset = result_n
        new_edges.extend((u + offset, v + offset) for u, v in extra.edges)
        result_n += extra.n

    return Multigraph(result_n, new_edges)


def _component_diameters(g: Multigraph):
    out = []
    for comp in g.components():
        out.append(metrics(g.induced_on(comp)).diameter)
    return out


def count_incidence_pairs(g: Multigraph, ell: int, s: int):
    """i_G(ell, s) plus the per-link counts of incident s-links.

    Returns (total, {Link -> count}).  Checks the counting bounds
    min{girth of the projected link, ell - s + 1} <= count <= ell - s + 1.
    """
    if not 0 <= s <= ell:
        raise MultigraphError("need 0 <= s <= ell")
    per_link = {}
    for seq in iter_links(g, ell):
        sublinks = {
            _canonical(seq[2 * i: 2 * i + 2 * s + 1]) for i in range(ell - s + 1)
        }
        per_link[Link(seq)] = len(sublinks)
    # bound audit via the projected sequence girth
    for link, count in per_link.items():
        seq = link.seq
        proj_vertices = tuple(
            _canonical(seq[2 * i: 2 * i + 2 * s + 1]) for i in range(ell - s + 1)
        )
        girth = _sequence_girth(proj_vertices)
        upper = ell - s + 1
        lower = min(girth, upper)
        _check(lower <= count <= upper, "incidence-pair count out of bounds")
        # maximal count exactly characterizes path-like projections
        _check((count == upper) == (girth > ell - s), "count and girth disagree")
    total = sum(per_link.values())
    return total, per_link
