"""Construction of link graphs, partitioned link graphs, and path graphs.

Vertices of the result are the ell-links of the source in sorted canonical
order; in link mode each (ell + 1)-link contributes exactly one result edge,
so parallel source edges surface as parallel result edges.  Full provenance
maps are kept from result units back to source links.

The ell-links are enumerated once.  Every (ell + 1)-link is an ell-walk
plus one step that does not take the edge just used (the Hashimoto step),
so the edges grow from the ell-links: each orientation of each ell-link is
stepped once more, and a grown walk q is kept when it is smaller than its
reverse, which finds every (ell + 1)-link once in canonical orientation.
Its head is the ell-link it grew from and its tail the ell-link q[2:], found
in an index of both orientations.  An ell-link that extends nowhere is
still a vertex: it is an isolated vertex of L_ell.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple
from operator import attrgetter

from .links import (
    Link,
    LinkCountExceeded,
    _canonical,
    _count_text,
    count_arcs_by_length,
    is_link_of,
    iter_links,
)
from .multigraph import Multigraph, MultigraphError, _check

DEFAULT_MAX_LINKS = 10**6


class ConstructionError(RuntimeError):
    pass


class LinkGraphResult(NamedTuple):
    """A constructed link or path graph plus provenance to the source."""

    graph: Multigraph
    mode: str  # "link" or "path"
    source: Multigraph
    ell: int
    vertex_provenance: tuple  # result vertex id -> source ell-link
    edge_provenance: tuple  # link mode: (ell+1)-link; path mode: pair of paths

    def vertex_of(self, link: Link) -> int:
        return _unit_id(self.vertex_provenance, link.seq, "a vertex")


def _unit_id(units, seq: tuple, what: str) -> int:
    """The id of the link ``seq`` among ``units``, links sorted by sequence."""
    i = bisect_left(units, seq, key=attrgetter("seq"))
    if i == len(units) or units[i].seq != seq:
        raise ConstructionError(f"{Link(seq)} is not {what} of this result")
    return i


class LinkPartitions(NamedTuple):
    """Vertex and edge partitions of a constructed link graph."""

    vertex_parts: tuple  # tuple of sorted vertex-id tuples
    edge_parts: tuple


def link_graph(
    g: Multigraph, ell: int, max_links: int = DEFAULT_MAX_LINKS
) -> LinkGraphResult:
    """The ell-link graph of g with provenance maps."""
    if ell < 0:
        raise MultigraphError("ell must be non-negative")
    arcs = count_arcs_by_length(g, ell + 1)
    total = arcs[ell] // 2 if ell else arcs[0]
    if total > max_links:
        raise ConstructionError(
            f"|L_{ell}(G)| = {_count_text(total)} exceeds the cap of {max_links}"
        )
    if arcs[ell + 1] // 2 > max_links:
        raise LinkCountExceeded(arcs[ell + 1] // 2, max_links)
    seqs = sorted(iter_links(g, ell))
    index = {}  # both orientations of each ell-link -> its id
    for i, seq in enumerate(seqs):
        index[seq] = index[seq[::-1]] = i
    adj = g.adjacency
    grown = []  # (canonical (ell + 1)-link, head id, tail id)
    for i, seq in enumerate(seqs):
        for walk in (seq, seq[::-1]) if ell else (seq,):
            first = walk[0]
            last_e = walk[-2] if ell else -1
            for e, w in adj[walk[-1]]:
                # q < q[::-1] holds when first < w and fails when first > w
                if e != last_e and first <= w:
                    q = walk + (e, w)
                    if first < w or q < q[::-1]:
                        grown.append((q, i, index[q[2:]]))
    # the links are distinct, so comparing them alone orders the triples,
    # and more cheaply than comparing whole triples
    grown.sort(key=lambda unit: unit[0])
    edges = []
    for _, i, j in grown:
        _check(i != j, "loop produced by a loopless source")
        edges.append((i, j) if i < j else (j, i))
    return LinkGraphResult(
        graph=Multigraph._trusted(len(seqs), tuple(edges)),
        mode="link",
        source=g,
        ell=ell,
        vertex_provenance=tuple(map(Link._of_canonical, seqs)),
        edge_provenance=tuple(map(Link._of_canonical, [q for q, _, _ in grown])),
    )


def link_partitions(result: LinkGraphResult) -> LinkPartitions:
    """The vertex partition V_ell and edge partition E_ell of a link graph."""
    if result.mode != "link":
        raise ConstructionError("partitions are defined for link mode only")
    ell = result.ell
    if ell == 0:
        vparts = tuple((i,) for i in range(result.graph.n))
        eparts = tuple((i,) for i in range(result.graph.m))
        return LinkPartitions(vparts, eparts)
    # a canonical 1-link (u, e, w) has u < w, so its ends key its part
    vkeys = [
        l.seq[0::2] if ell == 1 else _canonical(l.seq[2:-2])
        for l in result.vertex_provenance
    ]
    ekeys = [_canonical(q.seq[2:-2]) for q in result.edge_provenance]
    parts = []
    for keys in (vkeys, ekeys):
        # ids are visited in increasing order, so each part comes out
        # sorted and the parts come out ordered by their smallest id
        groups = {}
        for unit_id, key in enumerate(keys):
            groups.setdefault(key, []).append(unit_id)
        parts.append(tuple(map(tuple, groups.values())))
    return LinkPartitions(*parts)


def partitioned_link_graph(
    g: Multigraph, ell: int, max_links: int = DEFAULT_MAX_LINKS
):
    result = link_graph(g, ell, max_links=max_links)
    return result, link_partitions(result)


def path_graph(
    g: Multigraph, ell: int, max_links: int = DEFAULT_MAX_LINKS
) -> LinkGraphResult:
    """The ell-path graph of g (simple), with provenance maps.

    Each ell-path, stepped once more from either end, gives an
    (ell + 1)-path or closes an (ell + 1)-cycle at its first vertex; that
    walk joins the path to its other end ell-subsequence.  Raises
    LinkCountExceeded, naming the unit, as soon as the ell-paths or the
    path-graph edges pass ``max_links``.
    """
    if ell < 0:
        raise MultigraphError("ell must be non-negative")
    seqs = []
    pairs = set()  # sorted pairs of canonical ell-paths
    adj = g.adjacency
    for seq in iter_links(g, ell, distinct=True):
        seqs.append(seq)
        if len(seqs) > max_links:
            raise LinkCountExceeded(None, max_links, f"{ell}-paths")
        for walk in (seq, seq[::-1]) if ell else (seq,):
            last_e = walk[-2] if ell else -1
            inner = walk[2::2]  # every vertex but the first
            for e, w in adj[walk[-1]]:
                if e == last_e or w in inner:
                    continue
                tail = _canonical((walk + (e, w))[2:])
                pairs.add((seq, tail) if seq <= tail else (tail, seq))
        if len(pairs) > max_links:
            raise LinkCountExceeded(None, max_links, "path-graph edges")
    paths = tuple(map(Link._of_canonical, sorted(seqs)))
    index = {p.seq: i for i, p in enumerate(paths)}
    # paths are numbered in sorted order and each pair is sorted, so i < j
    edges = sorted((index[head], index[tail]) for head, tail in pairs)
    return LinkGraphResult(
        graph=Multigraph._trusted(len(paths), tuple(edges)),
        mode="path",
        source=g,
        ell=ell,
        vertex_provenance=paths,
        edge_provenance=tuple((paths[i], paths[j]) for i, j in edges),
    )


class ProjectedLink(NamedTuple):
    """An s-link of the link graph obtained by projecting an (ell+s)-link.

    ``closed`` follows the arc criterion: the defining arc's initial and
    final ell-subarcs coincide with matching orientation.  Equivalently the
    projected walk returns to its starting link with its first and last
    link-graph edges in different edge parts (cycle-like closure); a walk
    that merely retraces itself backwards does not count as closed.
    """

    link: Link  # in the id space of the link graph result
    closed: bool
    source_link: Link


def project_link(result: LinkGraphResult, r: Link) -> ProjectedLink:
    """Project an (ell + s)-link of the source into the ell-link graph."""
    if result.mode != "link":
        raise ConstructionError("projection lives in link mode")
    ell = result.ell
    s = r.length - ell
    if s < 0 or not is_link_of(result.source, r):
        raise ConstructionError(f"{r} is not an (ell + s)-link of the source")
    seq = r.seq
    vertex_ids = [
        _unit_id(
            result.vertex_provenance,
            _canonical(seq[2 * i: 2 * i + 2 * ell + 1]),
            "a vertex",
        )
        for i in range(s + 1)
    ]
    out = [vertex_ids[0]]
    for j in range(1, s + 1):
        q = _canonical(seq[2 * (j - 1): 2 * (j - 1) + 2 * ell + 3])
        eid = _unit_id(result.edge_provenance, q, "an edge")
        _check(
            len(out) == 1 or out[-2] != eid,
            "projection produced equal consecutive edges",
        )
        out.append(eid)
        out.append(vertex_ids[j])
    closed = seq[: 2 * ell + 1] == seq[2 * s: 2 * s + 2 * ell + 1]
    return ProjectedLink(link=Link(tuple(out)), closed=closed, source_link=r)


def shunt_reachable(g: Multigraph, ell: int, a: Link, b: Link) -> bool:
    """Whether one ell-link can be shunted to another: connectivity in L_ell."""
    for l in (a, b):
        if l.length != ell or not is_link_of(g, l):
            raise ConstructionError(f"{l} is not an {ell}-link of the graph")
    result = link_graph(g, ell)
    va, vb = result.vertex_of(a), result.vertex_of(b)
    return vb in set(result.graph.component_of(va))


def provenance_lines(result: LinkGraphResult):
    """Tab-separated provenance: unit id and rendered link sequence."""
    lines = []
    for i, link in enumerate(result.vertex_provenance):
        lines.append(f"{i}\t{link}")
    for i, prov in enumerate(result.edge_provenance):
        if result.mode == "link":
            lines.append(f"{i}\t{prov}")
        else:
            lines.append(f"{i}\t{prov[0]} | {prov[1]}")
    return lines
