"""Constructors for the graph families used throughout the package."""

from __future__ import annotations

import random

from .multigraph import Multigraph, MultigraphError, subdivision


def empty_graph(t: int) -> Multigraph:
    """t isolated vertices."""
    return Multigraph(t)


def path(length: int) -> Multigraph:
    """Path with ``length`` edges on length + 1 vertices."""
    return Multigraph(length + 1, [(i, i + 1) for i in range(length)])


def cycle(t: int) -> Multigraph:
    """Cycle of length t >= 2; t = 2 is a pair of parallel edges."""
    if t < 2:
        raise MultigraphError("cycles need length >= 2")
    if t == 2:
        return Multigraph(2, [(0, 1), (0, 1)])
    return Multigraph(t, [(i, (i + 1) % t) for i in range(t)])


def complete(n: int) -> Multigraph:
    return Multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(k: int) -> Multigraph:
    """K_{1,k}: centre 0 with k leaves."""
    return Multigraph(k + 1, [(0, i) for i in range(1, k + 1)])


def subdivided_star(k: int, s: int) -> Multigraph:
    """K_{1,k} with every edge replaced by an s-path."""
    return subdivision(star(k), s)


def middle_joined_paths(s: int, bridge: int) -> Multigraph:
    """Two 2s-paths whose middle vertices are joined by a ``bridge``-path.

    The acyclic minimal root of a 4s-cycle (bridge = ell - s).
    """
    if s < 1 or bridge < 1:
        raise MultigraphError("need s >= 1 and bridge length >= 1")
    edges = [(i, i + 1) for i in range(2 * s)]
    offset = 2 * s + 1
    edges += [(offset + i, offset + i + 1) for i in range(2 * s)]
    chain = [s] + list(range(2 * offset, 2 * offset + bridge - 1)) + [offset + s]
    edges += [(chain[i], chain[i + 1]) for i in range(bridge)]
    return Multigraph(2 * offset + bridge - 1, edges)


def tailed_path(ell: int, i: int, tail: int) -> Multigraph:
    """An ell-path with an extra ``tail``-path pasted at vertex i by an end."""
    if not 0 <= i <= ell:
        raise MultigraphError("paste position outside the path")
    edges = [(j, j + 1) for j in range(ell)]
    chain = [i] + list(range(ell + 1, ell + tail + 1))
    edges += [(chain[j], chain[j + 1]) for j in range(tail)]
    return Multigraph(ell + 1 + tail, edges)


def random_multigraph(rng: random.Random, max_n: int, max_m: int) -> Multigraph:
    """A random loopless multigraph; parallel edges allowed."""
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m) if n >= 2 else 0
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v))
    return Multigraph(n, edges)
