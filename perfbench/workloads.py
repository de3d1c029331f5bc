"""The benchmark workloads: inputs made from a seed, timed operations, checks.

Every operation has ``run()`` (timed, calls into linkgraph) and
``check(result)`` (untimed, returns a list of problems found against a
reference that does not come from the timed code path).

Graph structures are fixed by each workload's parameters; the run seed
renames vertices, reorders edges and picks the projected links.  The
algorithms' work does not depend on labels, so different seeds give
different inputs without changing how much work a run does, and runs with
different seeds can be compared.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass

import oracle

# RootSet.stats of each search at the seed commit:
# explored, candidates, pruned, duplicates, parent_rejected, accepted.
SEED_COMMIT_COUNTERS = {
    "R_2(C6)": (318, 15490, 11643, 2807, 723, 2),
    "R_2(C5)": (136, 4805, 3579, 850, 241, 1),
    "R_3(C3)": (89, 2701, 1921, 539, 153, 1),
    "R_5(2K1)": (243, 6059, 2644, 2361, 812, 3),
    "R_4(2K1)": (72, 1283, 582, 483, 147, 2),
    "Q_3(K2)": (132, 994, 460, 231, 172, 1),
    "Q_2(P2)": (59, 589, 342, 121, 68, 2),
    "Q_2(P3)": (250, 4283, 2813, 764, 457, 1),
    "Q_2(C4)": (265, 4523, 2980, 800, 479, 2),
    "Q_2(C3)": (65, 649, 389, 122, 74, 1),
}
COUNTER_FIELDS = (
    "explored", "candidates", "pruned", "duplicates", "parent_rejected", "accepted",
)

# Canonical certificates (hex) of minimal path-root sets no closed form
# covers, recorded at the seed commit.
RECORDED_PATH_ROOTS = {
    "Q_2(P2)": frozenset({"0400040001010202030203", "0500040002010302040304"}),
    "Q_2(P3)": frozenset({"06000500020103020403050405"}),
    "Q_2(C4)": frozenset({"0400040001000201030203", "04000500010002000201030103"}),
    "Q_2(C3)": frozenset({"030003000100020102"}),
}


def search_counters(stats):
    return (
        stats.explored, stats.candidates_generated, stats.pruned,
        stats.duplicates, stats.parent_rejected, stats.accepted,
    )


@dataclass
class RootsResult:
    exit_code: int
    stdout: str
    counters: tuple | None


class RootsOp:
    """``linkgraph roots`` run in-process through ``cli.main``."""

    def __init__(self, lg, name, target, ell, path_mode, reference, workdir):
        self.lg = lg
        self.name = name
        self.target = target
        self.ell = ell
        self.path_mode = path_mode
        self._reference = reference
        self.outdir = os.path.join(workdir, name)
        self.target_file = self.outdir + ".mg"
        with open(self.target_file, "w", encoding="utf-8") as fh:
            fh.write(oracle.format_mg(target))
        self.argv = ["roots", "-l", str(ell), self.target_file, "--outdir", self.outdir]
        if path_mode:
            self.argv.append("--path")

    def reference(self):
        """Canonical hex set every run must reproduce, from closed forms or
        the recorded set, never from the search."""
        if self._reference is None:
            search = self.lg.search
            if self.path_mode:
                expected = [self.lg.families.path(self.ell + 1)]
            elif self.target.m == 0:
                expected = [r.graph for r in search.pair_empty_roots(self.ell)]
            else:
                expected = [r.graph for r in search.cycle_roots(self.target.n, self.ell)]
            canonical_form = self.lg.canon.canonical_form
            self._reference = frozenset(canonical_form(g).hex() for g in expected)
        return self._reference

    def run(self):
        cli = self.lg.cli
        attr = "minimal_path_roots" if self.path_mode else "minimal_link_roots"
        search = getattr(cli, attr)
        captured = []

        def capture(*args, **kwargs):
            captured.append(search(*args, **kwargs))
            return captured[-1]

        out = io.StringIO()
        setattr(cli, attr, capture)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
        finally:
            setattr(cli, attr, search)
        counters = search_counters(captured[0].stats) if captured else None
        return RootsResult(code, out.getvalue(), counters)

    def counters(self, result):
        return {self.name: result.counters}

    def check(self, result):
        try:
            return self._check(result)
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)

    def _check(self, result):
        reference = self.reference()
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}"]
        kind = "path " if self.path_mode else ""
        if not result.stdout.startswith(f"{len(reference)} minimal {kind}roots\n"):
            return [f"unexpected summary line {result.stdout.splitlines()[:1]}"]
        with open(os.path.join(self.outdir, "roots.tsv"), encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
        found = {row[0] for row in rows}
        problems = []
        if found != reference:
            problems.append(
                f"root set differs: {len(found - reference)} unexpected, "
                f"{len(reference - found)} missing"
            )
        Multigraph = self.lg.multigraph.Multigraph
        construct = self.lg.construct
        for row in rows:
            with open(os.path.join(self.outdir, row[-1]), encoding="utf-8") as fh:
                root = oracle.parse_mg(Multigraph, fh.read())
            build = construct.path_graph if self.path_mode else construct.link_graph
            image = build(root, self.ell).graph
            witness = oracle.brute_force_isomorphism(image, self.target)
            if witness is None or not (
                self.lg.canon.verify_isomorphism(image, self.target, witness)
                and oracle.mapping_is_isomorphism(image, self.target, witness)
            ):
                problems.append(f"{row[-1]}: construction is not isomorphic to the target")
        return problems


def _roots_ops(lg, rng, workdir, specs):
    families = lg.families
    Multigraph = lg.multigraph.Multigraph
    ops = []
    for name, make_target, ell, path_mode, reference in specs:
        target = oracle.relabelled(Multigraph, make_target(families), rng)
        ops.append(RootsOp(lg, name, target, ell, path_mode, reference, workdir))
    return ops


# Targets from the root tables whose searches take about 0.1 to 1.5 s, so
# that each is repeated several times in a run (see run.py on noise).
ROOTS_LINK = (
    ("R_2(C6)", lambda f: f.cycle(6), 2, False, None),
    ("R_2(C5)", lambda f: f.cycle(5), 2, False, None),
    ("R_3(C3)", lambda f: f.cycle(3), 3, False, None),
    ("R_5(2K1)", lambda f: f.empty_graph(2), 5, False, None),
    ("R_4(2K1)", lambda f: f.empty_graph(2), 4, False, None),
)
ROOTS_PATH = (
    ("Q_3(K2)", lambda f: f.path(1), 3, True, None),
    ("Q_2(P2)", lambda f: f.path(2), 2, True, RECORDED_PATH_ROOTS["Q_2(P2)"]),
    ("Q_2(P3)", lambda f: f.path(3), 2, True, RECORDED_PATH_ROOTS["Q_2(P3)"]),
    ("Q_2(C4)", lambda f: f.cycle(4), 2, True, RECORDED_PATH_ROOTS["Q_2(C4)"]),
    ("Q_2(C3)", lambda f: f.cycle(3), 2, True, RECORDED_PATH_ROOTS["Q_2(C3)"]),
)


def roots_link(lg, seed, workdir):
    return _roots_ops(lg, random.Random(seed), workdir, ROOTS_LINK)


def roots_path(lg, seed, workdir):
    return _roots_ops(lg, random.Random(seed), workdir, ROOTS_PATH)


# --- calculus -------------------------------------------------------------

CALCULUS = {
    "corpus_seed": 20260809,
    "graphs": 300,
    "max_n": 8,
    "max_m": 12,
    "max_6_links": 1500,
    "ells": (1, 2, 3, 4),
    "projections_per_s": 3,
}


def calculus_corpus(lg, params):
    """Random multigraphs drawn with families.random_multigraph; a draw whose
    6-link count (the longest walks a projection batch uses) is above the
    cap is redrawn, as in the acceptance corpus."""
    rng = random.Random(params["corpus_seed"])
    corpus = []
    while len(corpus) < params["graphs"]:
        g = lg.families.random_multigraph(rng, params["max_n"], params["max_m"])
        if lg.links.count_links(g, 6) <= params["max_6_links"]:
            corpus.append(g)
    return corpus


@dataclass
class CalculusResult:
    link: object
    parts: object
    census: object
    path: object
    incidence: object
    projected: list  # (s, source link, ProjectedLink)


class CalculusOp:
    """Link-graph calculus on one (graph, ell): partitioned link graph, its
    census, the path graph, the incidence subgraph and a few projections."""

    def __init__(self, lg, g, ell, batch_seed, per_s):
        self.lg = lg
        self.g = g
        self.ell = ell
        self.batch_seed = batch_seed
        self.per_s = per_s

    def _batch(self, result, rng):
        """Up to ``per_s`` (ell+1)-links and (ell+2)-links of the source; the
        longer ones extend a chosen (ell+1)-link by one more step."""
        Link = self.lg.links.Link
        adjacency = self.g.adjacency
        longer = result.edge_provenance
        if not longer:
            return []
        batch = [(1, q) for q in rng.sample(longer, min(self.per_s, len(longer)))]
        for _ in range(self.per_s):
            seq = rng.choice(longer).seq
            for walk in (seq, seq[::-1]):
                steps = [(e, w) for e, w in adjacency[walk[-1]] if e != walk[-2]]
                if steps:
                    batch.append((2, Link(walk + rng.choice(steps))))
                    break
        return batch

    def run(self):
        construct = self.lg.construct
        partition = self.lg.partition
        result, parts = construct.partitioned_link_graph(self.g, self.ell)
        census = partition.count_cyclic_components(
            partition.PartitionedGraph.from_link_graph(result, parts)
        )
        path = construct.path_graph(self.g, self.ell)
        report = self.lg.incidence.incidence_subgraph(self.g, self.ell)
        rng = random.Random(self.batch_seed)
        projected = [
            (s, r, construct.project_link(result, r))
            for s, r in self._batch(result, rng)
        ]
        return CalculusResult(result, parts, census, path, report, projected)

    def check(self, res):
        lg, g, ell = self.lg, self.g, self.ell
        count_links = lg.links.count_links
        problems = []
        if (res.link.graph.n, res.link.graph.m) != (
            count_links(g, ell), count_links(g, ell + 1)
        ):
            problems.append("link graph size differs from the walk-count DP")
        if res.census.cyclic_count != lg.multigraph.metrics(g).cyclic_component_count:
            problems.append("census breaks o-invariance")
        if g.is_acyclic() and res.census.acyclic_count != len(
            res.link.graph.components()
        ):
            problems.append("census of an acyclic source miscounts components")
        vertex_seqs = [link.seq for link in res.link.vertex_provenance]
        edge_seqs = [link.seq for link in res.link.edge_provenance]
        paths = sum(1 for seq in vertex_seqs if len(set(seq[0::2])) == ell + 1)
        if (res.path.graph.n, res.path.graph.m) != (
            paths, len(oracle.path_graph_pairs(ell, edge_seqs))
        ):
            problems.append("path graph differs from the paths among the links")
        vset, eset = oracle.units_on_links(vertex_seqs)
        if res.incidence.vertex_flags != tuple(v in vset for v in range(g.n)) or (
            res.incidence.edge_flags != tuple(e in eset for e in range(g.m))
        ):
            problems.append("incidence flags differ from the units on ell-links")
        problems += self._check_projections(res)
        return problems

    def _check_projections(self, res):
        partition = self.lg.partition
        pg = partition.PartitionedGraph.from_link_graph(res.link, res.parts)
        owner = pg.edge_part_of()
        reference = {}
        problems = []
        for s in sorted({s for s, _, _ in res.projected}):
            reference[s] = partition.partitioned_links(pg, s)
            # projection is injective, so it is onto exactly when the counts agree
            if len(reference[s]) != self.lg.links.count_links(self.g, self.ell + s):
                problems.append(f"s={s}: partitioned links and (ell+s)-links differ in number")
        for s, r, p in res.projected:
            seq = p.link.seq
            eids = seq[1::2]
            cycle_like = seq[0] == seq[-1] and owner[eids[0]] != owner[eids[-1]]
            if seq not in reference[s] or p.closed != cycle_like or p.source_link != r:
                problems.append(f"projection of {r} is wrong")
        return problems


def calculus(lg, seed, workdir):
    params = CALCULUS
    rng = random.Random(seed)
    Multigraph = lg.multigraph.Multigraph
    ops = []
    for g in calculus_corpus(lg, params):
        copy = oracle.relabelled(Multigraph, g, rng)
        for ell in params["ells"]:
            ops.append(CalculusOp(lg, copy, ell, rng.getrandbits(32), params["projections_per_s"]))
    return ops


# --- canon-sym ------------------------------------------------------------

CANON_SYM = {
    "complete_line_graphs": ((5, 1), (6, 1), (5, 3)),  # L_ell(K_n) as (n, ell)
    "k4_ells": (2, 3, 4),
    "petersen_ells": (1, 2),
    "cycle_lengths": (24, 36),
    "doubled_cycle_lengths": (3, 4),  # L_2 of C_k with every edge doubled
    "corpus_seed": 20261017,
    "low_symmetry_graphs": 100,
    "low_symmetry_max_n": 10,
    "low_symmetry_max_m": 16,
    "low_symmetry_order": (8, 60),
}


def petersen(Multigraph):
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Multigraph(10, outer + inner + spokes)


def symmetric_graphs(lg, params):
    families = lg.families
    Multigraph = lg.multigraph.Multigraph
    link = lg.construct.link_graph
    graphs = []
    for n, ell in params["complete_line_graphs"]:
        graphs.append((f"L_{ell}(K{n})", link(families.complete(n), ell).graph))
    for ell in params["k4_ells"]:
        graphs.append((f"L_{ell}(K4)", link(families.complete(4), ell).graph))
    for ell in params["petersen_ells"]:
        graphs.append((f"L_{ell}(Petersen)", link(petersen(Multigraph), ell).graph))
    for n in params["cycle_lengths"]:
        graphs.append((f"C{n}", families.cycle(n)))
    for k in params["doubled_cycle_lengths"]:
        doubled = Multigraph(k, [e for e in families.cycle(k).edges for _ in range(2)])
        graphs.append((f"L_2(2C{k})", link(doubled, 2).graph))
    return graphs


def low_symmetry_graphs(lg, params):
    """Link graphs (ell = 1, 2 in turn) of random multigraphs with parallel
    edges merged, so that colour refinement settles most of them, of order
    inside the given range.  Parallel bundles, whose link graphs make the
    search blow up, enter through the doubled cycles at fixed sizes."""
    rng = random.Random(params["corpus_seed"])
    Multigraph = lg.multigraph.Multigraph
    lo, hi = params["low_symmetry_order"]
    graphs = []
    while len(graphs) < params["low_symmetry_graphs"]:
        g = lg.families.random_multigraph(
            rng, params["low_symmetry_max_n"], params["low_symmetry_max_m"]
        )
        g = Multigraph(g.n, sorted(set(g.edges)))
        ell = 1 + len(graphs) % 2
        h = lg.construct.link_graph(g, ell).graph
        if lo <= h.n <= hi:
            graphs.append((f"random-{len(graphs)}", h))
    return graphs


@dataclass
class CanonResult:
    copy_form: object
    isomorphism: dict | None


class CanonOp:
    """Canonical labelling of a relabelled copy and an isomorphism from the
    graph to that copy.  The check also labels, once, a partner that an
    invariant proves non-isomorphic."""

    def __init__(self, lg, name, g, rng):
        Multigraph = lg.multigraph.Multigraph
        self.lg = lg
        self.name = name
        self.g = g
        self.copy = oracle.relabelled(Multigraph, g, rng)
        self.partner = oracle.relabelled(
            Multigraph, oracle.non_isomorphic_partner(Multigraph, g, rng), rng
        )
        self._forms = None

    def run(self):
        canon = self.lg.canon
        copy_form, _ = canon.canonical_labeling(self.copy)
        return CanonResult(copy_form, canon.find_isomorphism(self.g, self.copy))

    def check(self, res):
        if self._forms is None:
            canonical_form = self.lg.canon.canonical_form
            self._forms = canonical_form(self.g), canonical_form(self.partner)
        form, partner_form = self._forms
        problems = []
        if res.copy_form != form:
            problems.append("relabelled copy got another canonical form")
        if partner_form == form:
            problems.append("non-isomorphic partner got the same canonical form")
        if res.isomorphism is None or not oracle.mapping_is_isomorphism(
            self.g, self.copy, res.isomorphism
        ):
            problems.append("no verified isomorphism to the relabelled copy")
        return problems


def canon_sym(lg, seed, workdir):
    rng = random.Random(seed)
    graphs = symmetric_graphs(lg, CANON_SYM) + low_symmetry_graphs(lg, CANON_SYM)
    return [CanonOp(lg, name, g, rng) for name, g in graphs]


WORKLOADS = {
    "roots-link": (roots_link, {"targets": [s[0] for s in ROOTS_LINK]}),
    "roots-path": (roots_path, {"targets": [s[0] for s in ROOTS_PATH]}),
    "calculus": (calculus, CALCULUS),
    "canon-sym": (canon_sym, CANON_SYM),
}
