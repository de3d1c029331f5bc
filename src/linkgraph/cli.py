"""Command-line surface: construction, incidence analysis, and root search.

Exit codes: 0 success, 1 negative decision (not minimal / not equivalent),
2 usage or input error, 3 budget or cap exceeded, 4 internal error (any
other exception, including a failed self-check), reported as one line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .canon import CanonBudgetExceeded, canonical_form
from .construct import (
    DEFAULT_MAX_LINKS,
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
    minimal_link_roots,
    minimal_path_roots,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _common(p, output=True):
    p.add_argument("-l", "--ell", type=int, required=True)
    if output:
        p.add_argument("-o", "--output", help="output file (default stdout)")
    p.add_argument("--max-links", type=int, default=DEFAULT_MAX_LINKS)


def _check_values(args: argparse.Namespace):
    """The value rules argparse cannot state: ell >= 0, positive caps."""
    if getattr(args, "ell", 0) < 0:
        raise ValueError("ell must be non-negative")
    if getattr(args, "max_links", DEFAULT_MAX_LINKS) <= 0:
        raise ValueError("max-links must be positive")


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(x):
    return "INF" if x == INFINITE else str(int(x))


def _link_args(p):
    _common(p)
    p.add_argument("input")
    p.add_argument("--partitions", help="write the link partitions here")
    p.add_argument("--provenance", help="write unit provenance TSV here")
    p.add_argument("--dot", help="write DOT with provenance labels here")


def _cmd_link(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
    result = link_graph(g, args.ell, max_links=args.max_links)
    _emit(format_multigraph(result.graph), args.output)
    if args.partitions:
        _emit(format_partitions(link_partitions(result)), args.partitions)
    if args.provenance:
        _emit(format_provenance(result), args.provenance)
    if args.dot:
        _emit(result_to_dot(result), args.dot)
    return EXIT_OK


def _pathgraph_args(p):
    _common(p)
    p.add_argument("input")
    p.add_argument("--provenance")
    p.add_argument("--dot")


def _cmd_pathgraph(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
    result = path_graph(g, args.ell, max_links=args.max_links)
    _emit(format_multigraph(result.graph), args.output)
    if args.provenance:
        _emit(format_provenance(result), args.provenance)
    if args.dot:
        _emit(result_to_dot(result), args.dot)
    return EXIT_OK


def _graph_args(p):
    _common(p)
    p.add_argument("input")


def _cmd_incidence(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
    report = incidence_subgraph(g, args.ell)
    out = [format_multigraph(report.graph).rstrip("\n")]
    for v in range(g.n):
        flag = "yes" if report.vertex_flags[v] else "no"
        out.append(f"# vertex {v} {args.ell}-incident: {flag}")
    for e in range(g.m):
        flag = "yes" if report.edge_flags[e] else "no"
        out.append(f"# edge {e} {args.ell}-incident: {flag}")
    _emit("\n".join(out) + "\n", args.output)
    return EXIT_OK


def _graph_stdout_args(p):
    _common(p, output=False)
    p.add_argument("input")


def _cmd_minimal(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
    vflags, eflags = unit_flags(g, args.ell)
    for v, flag in enumerate(vflags):
        if not flag:
            print(f"not minimal: vertex {v} is not {args.ell}-incident")
            return EXIT_NEGATIVE
    for e, flag in enumerate(eflags):
        if not flag:
            print(f"not minimal: edge {e} is not {args.ell}-incident")
            return EXIT_NEGATIVE
    print("minimal")
    return EXIT_OK


def _equiv_args(p):
    _common(p, output=False)
    p.add_argument("first")
    p.add_argument("second")


def _cmd_equiv(args: argparse.Namespace) -> int:
    a = read_multigraph(args.first)
    b = read_multigraph(args.second)
    if is_l_equivalent(a, b, args.ell):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_NEGATIVE


def _expand_args(p):
    _common(p)
    p.add_argument("input")
    p.add_argument("recipe")


def _cmd_expand(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
    with open(args.recipe, encoding="utf-8") as fh:
        recipe = parse_recipe(
            fh.read(), base_dir=os.path.dirname(args.recipe) or "."
        )
    out = expand_class(g, args.ell, recipe)
    _emit(format_multigraph(out), args.output)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
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
    result, parts = partitioned_link_graph(g, args.ell, max_links=args.max_links)
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


def _roots_args(p):
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("input")
    p.add_argument("--path", action="store_true", help="path roots instead")
    p.add_argument("--outdir", default="roots")
    p.add_argument("--trees-only", action="store_true")
    p.add_argument("--forests-only", action="store_true")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--budget", type=float, help="time budget in seconds")
    p.add_argument(
        "--max-states", type=int, default=SearchOptions.max_states,
        help="most candidate states the search explores",
    )


def _cmd_roots(args: argparse.Namespace) -> int:
    options = SearchOptions(
        forests_only=args.forests_only or args.trees_only,
        connected_only=args.connected_only or args.trees_only,
        budget_seconds=args.budget,
        max_states=args.max_states,
    )
    g = read_multigraph(args.input)
    search = minimal_path_roots if args.path else minimal_link_roots
    try:
        root_set = search(g, args.ell, options)
    except BudgetExceeded as err:
        # keep what was found, under an index that cannot pass for roots.tsv
        name = "roots.partial.tsv"
        write_root_set(err.partial, args.outdir, name)
        index = os.path.join(args.outdir, name)
        print(
            f"error: {err}; {len(err.partial)} roots so far in {index}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    written = write_root_set(root_set, args.outdir)
    print(f"{len(root_set)} minimal {'path ' if args.path else ''}roots")
    for name in written:
        print(f"wrote {os.path.join(args.outdir, name)}")
    return EXIT_OK


def _canon_args(p):
    p.add_argument("input")


def _cmd_canon(args: argparse.Namespace) -> int:
    g = read_multigraph(args.input)
    print(canonical_form(g).hex())
    return EXIT_OK


# name -> (help, function adding its arguments, handler), in --help order
_COMMANDS = {
    "link": ("construct the ell-link graph", _link_args, _cmd_link),
    "pathgraph": ("construct the ell-path graph", _pathgraph_args, _cmd_pathgraph),
    "incidence": ("ell-incidence subgraph and flags", _graph_args, _cmd_incidence),
    "minimal": ("test ell-minimality", _graph_stdout_args, _cmd_minimal),
    "equiv": ("test ell-equivalence of two graphs", _equiv_args, _cmd_equiv),
    "expand": ("apply an expansion recipe", _expand_args, _cmd_expand),
    "analyze": ("metrics, degree sets, census", _graph_stdout_args, _cmd_analyze),
    "roots": ("enumerate minimal roots", _roots_args, _cmd_roots),
    "canon": ("canonical form hex", _canon_args, _cmd_canon),
}


def _parser(names=_COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each command in ``names``."""
    parser = argparse.ArgumentParser(
        prog="linkgraph",
        description="link graphs, path graphs, and minimal root enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    if len(names) < len(_COMMANDS):
        # the usage line of an "unrecognized arguments" error lists every
        # command, also when only some were built
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Build only the named command's subparser: building all of them costs
    # more than parsing.  Anything else (help, no or unknown command) gets
    # the full parser and its messages.
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args = _parser(names).parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        _check_values(args)
        return _COMMANDS[args.command][2](args)
    except (OSError, FormatError, MultigraphError, RecipeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        BudgetExceeded,
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
