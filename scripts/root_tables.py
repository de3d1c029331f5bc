#!/usr/bin/env python3
"""Reproduce the minimal-root tables by exhaustive search.

Covers Whitney's pair for the triangle, the cycle-root table, the
empty-pair family, and (with --slow) R_3(C6), the largest link-root search
here, and the full minimal 3-path-root set of the 4-cycle, which the
closed forms do not cover.

Usage:
    python3 scripts/root_tables.py [--slow]
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from linkgraph import families
from linkgraph.search import (
    cycle_roots,
    minimal_link_roots,
    minimal_path_roots,
    pair_empty_roots,
)


def describe(g):
    kind = "tree" if g.is_tree() else "forest" if g.is_acyclic() else "cyclic"
    extras = " parallel" if g.has_parallel_edges() else ""
    return f"n={g.n:2d} m={g.m:2d} {kind}{extras}"


def show(label, root_set, reference=None):
    print(f"{label}: {len(root_set)} minimal roots "
          f"({root_set.stats.elapsed_seconds:.2f}s, "
          f"{root_set.stats.explored} states, "
          f"{root_set.stats.orbit_skipped} orbit-skipped, "
          f"{root_set.stats.canon_searches} component searches)")
    for record in root_set:
        print(f"    {describe(record.graph)}")
    if reference is not None:
        agree = root_set.canonical_set() == reference.canonical_set()
        print(f"    closed form agrees: {agree}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--slow", action="store_true",
                        help="include R_3(C6) and the exhaustive Q_3(C4) run")
    args = parser.parse_args()

    show("R_1(K3)", minimal_link_roots(families.complete(3), 1))

    for t, ell in ((5, 1), (5, 2), (5, 3), (6, 2), (4, 3)):
        show(
            f"R_{ell}(C{t})",
            minimal_link_roots(families.cycle(t), ell),
            cycle_roots(t, ell),
        )

    for ell in range(1, 7):
        show(
            f"R_{ell}(2K1)",
            minimal_link_roots(families.empty_graph(2), ell),
            pair_empty_roots(ell),
        )

    for ell in (1, 2, 3, 4):
        show(f"Q_{ell}(K2)", minimal_path_roots(families.path(1), ell))

    if args.slow:
        show("R_3(C6)", minimal_link_roots(families.cycle(6), 3), cycle_roots(6, 3))
        started = time.time()
        roots = minimal_path_roots(families.cycle(4), 3)
        print(f"Q_3(C4): {len(roots)} minimal path roots "
              f"({time.time() - started:.1f}s)")
        for record in roots:
            print(f"    {describe(record.graph)}")


if __name__ == "__main__":
    main()
