"""Command-line surface: construction, incidence analysis, and root search.

Exit codes: 0 success, 1 negative decision (not minimal / not equivalent),
2 usage or input error, 3 budget or cap exceeded, 4 internal error (any
other exception, including a failed self-check), reported as one line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .canon import CanonBudgetExceeded, canonical_form
from .construct import (
    ConstructionError,
    link_graph,
    link_partitions,
    partitioned_link_graph,
    path_graph,
)
from .formats import (
    FormatError,
    format_multigraph,
    format_partitions,
    format_provenance,
    parse_recipe,
    read_multigraph,
    result_to_dot,
    write_root_set,
)
from .incidence import (
    RecipeError,
    expand_class,
    incidence_subgraph,
    is_l_equivalent,
    unit_flags,
)
from .links import LinkCountExceeded
from .multigraph import INFINITE, MultigraphError, metrics
from .partition import PartitionedGraph, count_cyclic_components, graph_degree_set
from .search import (
    BudgetExceeded,
    SearchOptions,
    SearchRefused,
    minimal_link_roots,
    minimal_path_roots,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class CliConfig:
    """Validated invocation: one subcommand, ell >= 0, positive budget."""

    command: str
    inputs: tuple
    ell: int = 0
    output: str | None = None
    dot: str | None = None
    provenance: str | None = None
    partitions: str | None = None
    recipe: str | None = None
    path_mode: bool = False
    trees_only: bool = False
    forests_only: bool = False
    connected_only: bool = False
    budget: float | None = None
    max_links: int = 10**6
    max_edges_limit: int = 20
    outdir: str = "roots"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown subcommand {self.command!r}")
        if self.ell < 0:
            raise ValueError("ell must be non-negative")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.max_links <= 0:
            raise ValueError("max-links must be positive")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkgraph",
        description="link graphs, path graphs, and minimal root enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("-l", "--ell", type=int, required=True)
        if output:
            p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument("--max-links", type=int, default=10**6)

    p = sub.add_parser("link", help="construct the ell-link graph")
    common(p)
    p.add_argument("input")
    p.add_argument("--partitions", help="write the link partitions here")
    p.add_argument("--provenance", help="write unit provenance TSV here")
    p.add_argument("--dot", help="write DOT with provenance labels here")

    p = sub.add_parser("pathgraph", help="construct the ell-path graph")
    common(p)
    p.add_argument("input")
    p.add_argument("--provenance")
    p.add_argument("--dot")

    p = sub.add_parser("incidence", help="ell-incidence subgraph and flags")
    common(p)
    p.add_argument("input")

    p = sub.add_parser("minimal", help="test ell-minimality")
    common(p, output=False)
    p.add_argument("input")

    p = sub.add_parser("equiv", help="test ell-equivalence of two graphs")
    common(p, output=False)
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("expand", help="apply an expansion recipe")
    common(p)
    p.add_argument("input")
    p.add_argument("recipe")

    p = sub.add_parser("analyze", help="metrics, degree sets, census")
    common(p, output=False)
    p.add_argument("input")

    p = sub.add_parser("roots", help="enumerate minimal roots")
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("input")
    p.add_argument("--path", action="store_true", help="path roots instead")
    p.add_argument("--outdir", default="roots")
    p.add_argument("--trees-only", action="store_true")
    p.add_argument("--forests-only", action="store_true")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--budget", type=float, help="time budget in seconds")
    p.add_argument("--max-links", type=int, default=10**6)
    p.add_argument("--max-edges-limit", type=int, default=20)

    p = sub.add_parser("canon", help="canonical form hex")
    p.add_argument("input")

    return parser


def _config_from(args: argparse.Namespace) -> CliConfig:
    if args.command == "equiv":
        inputs = (args.first, args.second)
    else:
        inputs = (args.input,)
    return CliConfig(
        command=args.command,
        inputs=inputs,
        ell=getattr(args, "ell", 0),
        output=getattr(args, "output", None),
        dot=getattr(args, "dot", None),
        provenance=getattr(args, "provenance", None),
        partitions=getattr(args, "partitions", None),
        recipe=getattr(args, "recipe", None),
        path_mode=getattr(args, "path", False),
        trees_only=getattr(args, "trees_only", False),
        forests_only=getattr(args, "forests_only", False),
        connected_only=getattr(args, "connected_only", False),
        budget=getattr(args, "budget", None),
        max_links=getattr(args, "max_links", 10**6),
        max_edges_limit=getattr(args, "max_edges_limit", 20),
        outdir=getattr(args, "outdir", "roots"),
    )


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(x):
    return "INF" if x == INFINITE else str(int(x))


def _cmd_link(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    result = link_graph(g, cfg.ell, max_links=cfg.max_links)
    _emit(format_multigraph(result.graph), cfg.output)
    if cfg.partitions:
        _emit(format_partitions(link_partitions(result)), cfg.partitions)
    if cfg.provenance:
        _emit(format_provenance(result), cfg.provenance)
    if cfg.dot:
        _emit(result_to_dot(result), cfg.dot)
    return EXIT_OK


def _cmd_pathgraph(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    result = path_graph(g, cfg.ell, max_links=cfg.max_links)
    _emit(format_multigraph(result.graph), cfg.output)
    if cfg.provenance:
        _emit(format_provenance(result), cfg.provenance)
    if cfg.dot:
        _emit(result_to_dot(result), cfg.dot)
    return EXIT_OK


def _cmd_incidence(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    report = incidence_subgraph(g, cfg.ell)
    out = [format_multigraph(report.graph).rstrip("\n")]
    for v in range(g.n):
        flag = "yes" if report.vertex_flags[v] else "no"
        out.append(f"# vertex {v} {cfg.ell}-incident: {flag}")
    for e in range(g.m):
        flag = "yes" if report.edge_flags[e] else "no"
        out.append(f"# edge {e} {cfg.ell}-incident: {flag}")
    _emit("\n".join(out) + "\n", cfg.output)
    return EXIT_OK


def _cmd_minimal(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    vflags, eflags = unit_flags(g, cfg.ell)
    for v, flag in enumerate(vflags):
        if not flag:
            print(f"not minimal: vertex {v} is not {cfg.ell}-incident")
            return EXIT_NEGATIVE
    for e, flag in enumerate(eflags):
        if not flag:
            print(f"not minimal: edge {e} is not {cfg.ell}-incident")
            return EXIT_NEGATIVE
    print("minimal")
    return EXIT_OK


def _cmd_equiv(cfg: CliConfig) -> int:
    a = read_multigraph(cfg.inputs[0])
    b = read_multigraph(cfg.inputs[1])
    if is_l_equivalent(a, b, cfg.ell):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_NEGATIVE


def _cmd_expand(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    with open(cfg.recipe, encoding="utf-8") as fh:
        recipe = parse_recipe(
            fh.read(), base_dir=os.path.dirname(cfg.recipe) or "."
        )
    out = expand_class(g, cfg.ell, recipe)
    _emit(format_multigraph(out), cfg.output)
    return EXIT_OK


def _cmd_analyze(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    m = metrics(g)
    lines = [
        f"n {g.n}",
        f"m {g.m}",
        f"components {m.component_count}",
        f"cyclic-components {m.cyclic_component_count}",
        f"acyclic-components {m.acyclic_component_count}",
        f"diameter {_fmt_value(m.diameter)}",
        f"radius {_fmt_value(m.radius)}",
        f"girth {_fmt_value(m.girth)}",
        "degree-set " + " ".join(str(d) for d in sorted(graph_degree_set(g))),
    ]
    result, parts = partitioned_link_graph(g, cfg.ell, max_links=cfg.max_links)
    pg = PartitionedGraph.from_link_graph(result, parts)
    census = count_cyclic_components(pg)
    lines += [
        f"link-graph-n {result.graph.n}",
        f"link-graph-m {result.graph.m}",
        f"link-census-cyclic {census.cyclic_count}",
        f"link-census-acyclic {census.acyclic_count}",
        "link-degree-set " + " ".join(str(d) for d in sorted(census.degree_set)),
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_roots(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    options = SearchOptions(
        trees_only=cfg.trees_only,
        forests_only=cfg.forests_only,
        connected_only=cfg.connected_only,
        budget_seconds=cfg.budget,
        max_edges_limit=cfg.max_edges_limit,
        max_links=cfg.max_links,
    )
    search = minimal_path_roots if cfg.path_mode else minimal_link_roots
    root_set = search(g, cfg.ell, options)
    written = write_root_set(root_set, cfg.outdir)
    print(f"{len(root_set)} minimal {'path ' if cfg.path_mode else ''}roots")
    for name in written:
        print(f"wrote {os.path.join(cfg.outdir, name)}")
    return EXIT_OK


def _cmd_canon(cfg: CliConfig) -> int:
    g = read_multigraph(cfg.inputs[0])
    print(canonical_form(g).hex())
    return EXIT_OK


_COMMANDS = {
    "link": _cmd_link,
    "pathgraph": _cmd_pathgraph,
    "incidence": _cmd_incidence,
    "minimal": _cmd_minimal,
    "equiv": _cmd_equiv,
    "expand": _cmd_expand,
    "analyze": _cmd_analyze,
    "roots": _cmd_roots,
    "canon": _cmd_canon,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        cfg = _config_from(args)
        return _COMMANDS[cfg.command](cfg)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, MultigraphError, RecipeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        BudgetExceeded,
        SearchRefused,
        LinkCountExceeded,
        ConstructionError,
        CanonBudgetExceeded,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as err:
        # Last resort at the process boundary: one line and a distinct exit
        # code instead of a traceback, so a crash never reads as exit 1.
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
