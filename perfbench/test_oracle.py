"""Tests of the benchmark's own reference checks.

    python3 -m pytest perfbench/test_oracle.py     (or: python3 perfbench/test_oracle.py)

A clean operation must count as passed and a wrong output or a reference
that misses one root must count as failed, so ``fail_ratio`` means what it
says.  Takes a few seconds: the roots cases run R_2(C5) for real.
"""

from __future__ import annotations

import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LG = run.load_library()


def measure(ops):
    measured = run.Measurement(ops)
    measured.run_pass()
    return measured.failed / measured.attempted


class RootsOracle(unittest.TestCase):
    def roots_ops(self, reference, workdir):
        spec = [("R_2(C5)", lambda f: f.cycle(5), 2, False, reference)]
        return workloads._roots_ops(LG, random.Random(5), workdir, spec)

    def test_clean_run_reports_no_failure(self):
        with tempfile.TemporaryDirectory() as workdir:
            self.assertEqual(measure(self.roots_ops(None, workdir)), 0.0)

    def test_reference_missing_one_root_raises_fail_ratio(self):
        with tempfile.TemporaryDirectory() as workdir:
            full = self.roots_ops(None, workdir)[0].reference()
            self.assertEqual(len(full), 1)
            short = frozenset()
            self.assertEqual(measure(self.roots_ops(short, workdir)), 1.0)


class CalculusOracle(unittest.TestCase):
    def test_clean_and_mismatched_results(self):
        g = LG.families.cycle(3).disjoint_union(LG.families.path(3))
        ops = [workloads.CalculusOp(LG, g, ell, 7, 3) for ell in (1, 2)]
        self.assertEqual(measure(ops), 0.0)
        wrong = ops[1].run()
        self.assertTrue(ops[0].check(wrong))

    def test_projection_outside_the_partitioned_links_is_caught(self):
        g = LG.families.cycle(4)
        op = workloads.CalculusOp(LG, g, 1, 7, 3)
        result = op.run()
        s, r, p = result.projected[0]
        result.projected[0] = (s, r, LG.construct.ProjectedLink(p.link, not p.closed, r))
        self.assertTrue(op.check(result))


class CanonOracle(unittest.TestCase):
    def test_relabelled_copy_passes_and_partner_fails(self):
        rng = random.Random(3)
        g = LG.construct.link_graph(LG.families.complete(5), 1).graph
        op = workloads.CanonOp(LG, "L(K5)", g, rng)
        self.assertEqual(measure([op]), 0.0)
        op.copy = op.partner
        self.assertEqual(measure([op]), 1.0)

    def test_partner_with_the_same_form_is_caught(self):
        g = LG.families.cycle(6)
        op = workloads.CanonOp(LG, "C6", g, random.Random(4))
        op.partner = op.copy
        self.assertEqual(measure([op]), 1.0)

    def test_partner_is_certified_non_isomorphic(self):
        rng = random.Random(11)
        Multigraph = LG.multigraph.Multigraph
        for g in (LG.families.cycle(12), LG.families.complete(4)):
            partner = oracle.non_isomorphic_partner(Multigraph, g, rng)
            self.assertNotEqual(oracle.invariant(partner), oracle.invariant(g))
            self.assertFalse(LG.canon.is_isomorphic(partner, g))

    def test_brute_force_isomorphism(self):
        rng = random.Random(2)
        Multigraph = LG.multigraph.Multigraph
        g = Multigraph(5, [(0, 1), (1, 2), (1, 2), (2, 3), (3, 4)])
        copy = oracle.relabelled(Multigraph, g, rng)
        mapping = oracle.brute_force_isomorphism(g, copy)
        self.assertTrue(oracle.mapping_is_isomorphism(g, copy, mapping))
        other = Multigraph(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4)])
        self.assertIsNone(oracle.brute_force_isomorphism(g, other))


if __name__ == "__main__":
    unittest.main()
