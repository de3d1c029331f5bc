#!/usr/bin/env python3
"""Reproduce the minimal-root tables by exhaustive search.

Covers Whitney's pair for the triangle, the cycle-root table, the
empty-pair family, the path roots Q_1(K2) .. Q_4(K2), and (with --slow)
the larger link-root searches R_3(C6), R_3(C7), R_4(C12), R_4(C16),
R_5(C12), R_5(C8), R_6(C8) (the last two on the t = 4s, ell >= 2s + 1
branch of the cycle table), R_7(2K1) and R_9(2K1), and the path roots
Q_5(K2), each checked against its closed form, and the full minimal
3-path-root set of the 4-cycle, which the closed forms do not cover.

The path roots of K2 are the 2-bond and P_2 at ell = 1 and P_(ell + 1)
for ell >= 2: two ell-paths that form an (ell + 1)-cycle need ell + 1 >= 3
of them, so only an (ell + 1)-path can join two.

The 2-roots of n isolated vertices, nK1, for n = 6, 10, 15 and 20 (and 30
and 50 with --slow) are checked against their closed form too: a minimal
2-root of nK1 has n 2-links and no 3-link, a connected graph with no
3-link is a star, and K_{1,s} has C(s, 2) 2-links, so the roots are the
disjoint unions of stars K_{1,s_i} (s_i >= 2) whose C(s_i, 2) add up to n.

Usage:
    python3 scripts/root_tables.py [--slow]

Exits 1 when a search disagrees with its closed form.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linkgraph import families
from linkgraph.canon import canonical_form
from linkgraph.multigraph import Multigraph
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


def k2_path_roots(ell):
    """Certificates of the closed-form minimal ell-path roots of K2."""
    graphs = [families.path(ell + 1)] + ([families.cycle(2)] if ell == 1 else [])
    return {canonical_form(g).data for g in graphs}


def star_union_roots(n):
    """Certificates of the closed-form minimal 2-roots of n isolated
    vertices: the disjoint unions of stars K_{1,s_i}, s_i >= 2, whose
    C(s_i, 2) add up to n."""

    def splits(rest, most):
        # each non-increasing tuple of star sizes s <= most for rest 2-links
        if rest == 0:
            yield ()
        for s in range(2, most + 1):
            if s * (s - 1) // 2 <= rest:
                for tail in splits(rest - s * (s - 1) // 2, s):
                    yield (s,) + tail

    certificates = set()
    for sizes in splits(n, n + 1):
        g = Multigraph(0)
        for s in sizes:
            g = g.disjoint_union(families.star(s))
        certificates.add(canonical_form(g).data)
    return certificates


def show(label, root_set, reference=None) -> bool:
    """Print a root set; False when it disagrees with ``reference``, a
    set of certificates."""
    print(f"{label}: {len(root_set)} minimal roots "
          f"({root_set.stats.elapsed_seconds:.2f}s, "
          f"{root_set.stats.explored} states, "
          f"{root_set.stats.orbit_skipped} orbit-skipped)")
    for record in root_set:
        print(f"    {describe(record.graph)}")
    if reference is not None:
        agree = root_set.canonical_set() == reference
        print(f"    closed form agrees: {agree}")
        return agree
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--slow", action="store_true",
                        help="include R_3(C6), R_3(C7), R_4(C12), R_4(C16), "
                             "R_5(C12), R_5(C8), R_6(C8), R_7(2K1), R_9(2K1), "
                             "R_2(30K1), R_2(50K1), Q_5(K2) and the exhaustive "
                             "Q_3(C4) run")
    args = parser.parse_args()

    agree = True
    show("R_1(K3)", minimal_link_roots(families.complete(3), 1))

    for t, ell in ((5, 1), (5, 2), (5, 3), (6, 2), (4, 3)):
        agree &= show(
            f"R_{ell}(C{t})",
            minimal_link_roots(families.cycle(t), ell),
            cycle_roots(t, ell).canonical_set(),
        )

    for ell in range(1, 7):
        agree &= show(
            f"R_{ell}(2K1)",
            minimal_link_roots(families.empty_graph(2), ell),
            pair_empty_roots(ell).canonical_set(),
        )

    for ell in (1, 2, 3, 4) + ((5,) if args.slow else ()):
        agree &= show(
            f"Q_{ell}(K2)",
            minimal_path_roots(families.path(1), ell),
            k2_path_roots(ell),
        )

    for n in (6, 10, 15, 20) + ((30, 50) if args.slow else ()):
        agree &= show(
            f"R_2({n}K1)",
            minimal_link_roots(families.empty_graph(n), 2),
            star_union_roots(n),
        )

    if args.slow:
        for t, ell in ((6, 3), (7, 3), (12, 4), (16, 4), (12, 5), (8, 5), (8, 6)):
            agree &= show(
                f"R_{ell}(C{t})",
                minimal_link_roots(families.cycle(t), ell),
                cycle_roots(t, ell).canonical_set(),
            )
        for ell in (7, 9):
            agree &= show(
                f"R_{ell}(2K1)",
                minimal_link_roots(families.empty_graph(2), ell),
                pair_empty_roots(ell).canonical_set(),
            )
        started = time.time()
        roots = minimal_path_roots(families.cycle(4), 3)
        print(f"Q_3(C4): {len(roots)} minimal path roots "
              f"({time.time() - started:.1f}s)")
        for record in roots:
            print(f"    {describe(record.graph)}")

    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
