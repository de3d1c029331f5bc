#!/usr/bin/env python3
"""Sweep random multigraphs and tabulate the structural invariants:

* cyclic-component invariance o(G) = o of the partitioned link graph,
* acyclic census a = number of link-graph components for forests,
* projection completeness of partitioned s-links,
* the degree-set chain on trees.

Usage:
    python3 scripts/invariance_sweep.py [--count 100] [--seed 7]

Exits 1, printing the graph, when an invariant fails; the checks are plain
tests, not asserts, so they also run under ``python -O``.
"""

import argparse
import heapq
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linkgraph.construct import partitioned_link_graph, project_link
from linkgraph.families import random_multigraph
from linkgraph.links import count_arcs_by_length, enumerate_links
from linkgraph.multigraph import Multigraph, metrics
from linkgraph.partition import (
    PartitionedGraph,
    count_cyclic_components,
    degree_set,
    graph_degree_set,
    partitioned_links,
)


def sample(rng, max_n=8, max_m=12):
    while True:
        g = random_multigraph(rng, max_n, max_m)
        counts = count_arcs_by_length(g, 7)
        if counts[5] // 2 <= 3000 and counts[7] // 2 <= 15000:
            return g


def random_tree(rng, n):
    if n <= 2:
        return Multigraph(n, [(0, 1)] if n == 2 else [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Multigraph(n, edges)


def check(held, what, g, **where):
    """Exit 1, printing the graph and ``where``, unless ``held``."""
    if not held:
        at = " ".join(f"{key}={value}" for key, value in where.items())
        print(f"{what} failed: n={g.n} edges={list(g.edges)} {at}")
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    census_checks = projection_checks = chain_checks = 0
    for i in range(args.count):
        g = sample(rng)
        o = metrics(g).cyclic_component_count
        for ell in (1, 2, 3):
            result, parts = partitioned_link_graph(g, ell)
            pg = PartitionedGraph.from_link_graph(result, parts)
            census = count_cyclic_components(pg)
            check(census.cyclic_count == o, "cyclic-component invariance", g, ell=ell)
            if g.is_acyclic():
                check(census.acyclic_count == len(result.graph.components()),
                      "acyclic census", g, ell=ell)
            census_checks += 1
            for s in (1, 2):
                projected = {
                    project_link(result, r).link.seq
                    for r in enumerate_links(g, ell + s)
                }
                check(projected == partitioned_links(pg, s),
                      "projection completeness", g, ell=ell, s=s)
                projection_checks += 1
    for _ in range(args.count):
        g = random_tree(rng, rng.randint(3, 9))
        diam = int(metrics(g).diameter)
        previous = None
        for ell in range(1, diam + 1):
            result, parts = partitioned_link_graph(g, ell)
            dset = degree_set(PartitionedGraph.from_link_graph(result, parts))
            if ell == 1:
                check(dset == graph_degree_set(g), "degree set at ell = 1", g)
            if previous is not None:
                check(dset <= previous, "degree-set chain", g, ell=ell)
            previous = dset
            chain_checks += 1

    print(f"{args.count} graphs: "
          f"{census_checks} census checks, "
          f"{projection_checks} projection checks, "
          f"{chain_checks} degree-chain checks — all held")


if __name__ == "__main__":
    main()
