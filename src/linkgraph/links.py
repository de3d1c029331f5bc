"""Links: walks whose consecutive edges differ, taken up to reversal.

A walk of length ell is stored as the interleaved tuple
(v0, e1, v1, e2, ..., e_ell, v_ell).  An ell-link is a walk identified with
its reverse and is represented by the lexicographically smaller of the two
tuples.  ``iter_links`` enumerates the ell-links: under its step rules it
yields the links, the paths (no repeated vertex) and the links of a
partitioned graph (consecutive edges in different parts).
``construct.link_graph`` and ``construct.path_graph`` grow the
(ell + 1)-links and (ell + 1)-paths from its ell-units by one more step
under the same rules.
``count_arcs_by_length`` counts directed walks of every length without
enumerating them; ``_walk_tables`` also counts them per end vertex, for
the root search's bound.
"""

from __future__ import annotations

from .multigraph import INFINITE, Multigraph, MultigraphError


def _count_text(n: int) -> str:
    """n in decimal, or "a D-digit number" once it has more than 20 digits.

    Link counts grow exponentially with ell: a 50-edge bond has a
    1691-digit count at ell 1000, and str() refuses ints past 4300 digits.
    """
    if n < 10**20:
        return str(n)
    # start from (bit length - 1) * log10(2), which does not pass the answer
    digits = int((n.bit_length() - 1) * 0.30102999566398120)
    while 10**digits <= n:
        digits += 1
    return f"a {digits}-digit number"


class LinkCountExceeded(RuntimeError):
    """Raised when a materializing enumeration would exceed its budget.

    ``count`` is None when the enumeration stopped as soon as it passed the
    cap, without counting on; ``units`` names what was counted."""

    def __init__(self, count, cap, units="links"):
        amount = f"more than {cap}" if count is None else _count_text(count)
        super().__init__(f"enumeration of {amount} {units} exceeds the cap of {cap}")
        self.count = count
        self.cap = cap


def _canonical(seq: tuple) -> tuple:
    rev = seq[::-1]
    return seq if seq <= rev else rev


class Link:
    """A walk identified with its reverse; ``seq`` is the canonical orientation."""

    __slots__ = ("seq",)

    def __init__(self, seq: tuple):
        self.seq = _canonical(seq)

    @classmethod
    def _of_canonical(cls, seq: tuple) -> "Link":
        """The link of a sequence already in canonical orientation."""
        link = object.__new__(cls)
        link.seq = seq
        return link

    def __eq__(self, other):
        return self.seq == other.seq if isinstance(other, Link) else NotImplemented

    def __hash__(self):
        return hash(self.seq)

    def __repr__(self):
        return f"Link(seq={self.seq!r})"

    @property
    def length(self) -> int:
        return len(self.seq) // 2

    @property
    def vertices(self) -> tuple:
        return self.seq[0::2]

    @property
    def edge_ids(self) -> tuple:
        return self.seq[1::2]

    def __lt__(self, other):
        return self.seq < other.seq

    def __str__(self):
        out = [str(self.seq[0])]
        for i in range(1, len(self.seq), 2):
            out.append(f"-{self.seq[i]}-")
            out.append(str(self.seq[i + 1]))
        return " ".join(out)


def _check_host(g: Multigraph, seq: tuple) -> bool:
    if len(seq) % 2 == 0:
        return False
    for i in range(0, len(seq) - 1, 2):
        v, e, w = seq[i], seq[i + 1], seq[i + 2]
        if not 0 <= e < g.m:
            return False
        if set(g.edges[e]) != {v, w}:
            return False
        if i and seq[i - 1] == e:
            return False
    return True


def is_link_of(g: Multigraph, link: Link) -> bool:
    """True when ``link`` is a walk of g with distinct consecutive edges."""
    if not link.seq:
        return False
    if len(link.seq) == 1:
        return 0 <= link.seq[0] < g.n
    return _check_host(g, link.seq)


def iter_links(g: Multigraph, ell: int, distinct: bool = False, owner=None):
    """Yield every ell-link of g once, as its canonical sequence.

    Walks grow depth-first from the start vertices in ascending order.  A
    step may not take the edge just used; with ``owner`` (edge id -> part)
    it may not stay in that edge's part, and with ``distinct`` it may not
    revisit a vertex, so only paths come out.  A finished walk is kept when
    it is smaller than its reverse.  For ell >= 1 the two always differ: a
    walk equal to its reverse needs a loop or a step straight back along
    the same edge.
    """
    if ell < 0:
        raise MultigraphError("link length must be non-negative")
    if ell == 0:
        for v in range(g.n):
            yield (v,)
        return
    adj = g.adjacency
    part = range(g.m) if owner is None else owner
    stack = [(v,) for v in range(g.n - 1, -1, -1)]
    target = 2 * ell + 1
    while stack:
        seq = stack.pop()
        if len(seq) == target:
            if seq < seq[::-1]:
                yield seq
            continue
        last_part = part[seq[-2]] if len(seq) > 1 else -1
        used = seq[0::2] if distinct else ()
        for e, w in adj[seq[-1]]:
            if part[e] != last_part and w not in used:
                stack.append(seq + (e, w))


def _walk_tables(g: Multigraph, max_len: int):
    """(counts, ends): counts[k] is the number of k-arcs of g for
    k = 0..max_len, and ends[k][x] the number of them ending at x for
    k < max_len, which by reversal also counts those starting at x.

    One dynamic programme over the directed edges, one Hashimoto step per
    length (Hashimoto, "Zeta functions of finite graphs", 1989).
    """
    counts = [g.n]
    if max_len == 0:
        return counts, []
    ends = [[1] * g.n]
    # state: number of arcs of the current length ending with directed edge
    # (eid, head); indexed as 2*eid + (0 if head is the smaller endpoint).
    cur = [1] * (2 * g.m)
    counts.append(2 * g.m)
    adj = g.adjacency
    for _ in range(max_len - 1):
        into = [0] * g.n
        for eid, (u, v) in enumerate(g.edges):
            into[u] += cur[2 * eid]
            into[v] += cur[2 * eid + 1]
        ends.append(into)
        nxt = [0] * (2 * g.m)
        for v in range(g.n):
            base = into[v]
            if not base:
                continue
            for e, w in adj[v]:
                # the arc v -> w along e; k ^ 1 is the arc w -> v
                k = 2 * e + (w > v)
                nxt[k] += base - cur[k ^ 1]
        cur = nxt
        counts.append(sum(cur))
    return counts, ends


def count_arcs_by_length(g: Multigraph, max_len: int):
    """Counts of ell-arcs for ell = 0..max_len via dynamic programming."""
    return _walk_tables(g, max_len)[0]


def count_links(g: Multigraph, ell: int) -> int:
    """|L_ell(g)| without materializing; arcs pair up 2:1 for ell >= 1."""
    if ell == 0:
        return g.n
    return count_arcs_by_length(g, ell)[ell] // 2


def enumerate_links(g: Multigraph, ell: int):
    """All ell-links of g, sorted by canonical sequence."""
    return tuple(Link(s) for s in sorted(iter_links(g, ell)))


def enumerate_paths(g: Multigraph, ell: int):
    """All ell-paths of g, sorted by canonical sequence."""
    return tuple(Link(s) for s in sorted(iter_links(g, ell, distinct=True)))


def _sequence_girth(items) -> float:
    """Least distance between two equal items; INFINITE when all differ."""
    positions = {}
    best = INFINITE
    for i, x in enumerate(items):
        if x in positions:
            best = min(best, i - positions[x])
        positions[x] = i
    return best


def link_girth(link: Link) -> float:
    """Minimum length of a sub-cycle of the sequence; INFINITE for paths."""
    return _sequence_girth(link.vertices)


def induced_graph(g: Multigraph, link: Link) -> Multigraph:
    """The subgraph of g induced by the units of the link (ids relabeled)."""
    if not is_link_of(g, link):
        raise MultigraphError("not a link of the given graph")
    return g.induced_on(set(link.vertices), set(link.edge_ids))
