"""Text formats: multigraph files, partition files, recipes, DOT, root sets.

The multigraph format is bit-exact UTF-8 with LF line endings:

    mg 1
    n <vertex_count>
    e <u> <v>        # one line per edge, ids 0-based, repeats allowed

``#`` starts a comment anywhere on a line; edge ids follow file order.
"""

from __future__ import annotations

import os
import re

from .canon import _unpack
from .construct import LinkGraphResult, LinkPartitions, provenance_lines
from .incidence import ExpansionRecipe, PasteInstruction
from .multigraph import Multigraph
from .partition import PartitionedGraph


class FormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _content_lines(text: str):
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_multigraph(text: str) -> Multigraph:
    n = None
    edges = []
    saw_magic = False
    for lineno, line in _content_lines(text):
        fields = line.split()
        if not saw_magic:
            if fields != ["mg", "1"]:
                raise FormatError("expected header 'mg 1'", lineno)
            saw_magic = True
            continue
        if fields[0] == "n":
            if n is not None:
                raise FormatError("duplicate 'n' line", lineno)
            if len(fields) != 2 or not fields[1].isdecimal():
                raise FormatError("malformed 'n' line", lineno)
            n = int(fields[1])
            continue
        if fields[0] == "e":
            if n is None:
                raise FormatError("edge before 'n' line", lineno)
            if len(fields) != 3:
                raise FormatError("malformed 'e' line", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError("edge endpoints must be integers", lineno)
            if u == v:
                raise FormatError("loops are not allowed", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"endpoint outside 0..{n - 1}", lineno)
            edges.append((u, v))
            continue
        raise FormatError(f"unknown directive {fields[0]!r}", lineno)
    if not saw_magic:
        raise FormatError("missing 'mg 1' header", 1)
    if n is None:
        raise FormatError("missing 'n' line", 1)
    return Multigraph(n, edges)


def format_multigraph(g: Multigraph) -> str:
    lines = ["mg 1", f"n {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def read_multigraph(path: str) -> Multigraph:
    with open(path, encoding="utf-8") as fh:
        return parse_multigraph(fh.read())


def write_multigraph(path: str, g: Multigraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_multigraph(g))


def format_partitions(parts: LinkPartitions) -> str:
    lines = []
    for part in parts.vertex_parts:
        lines.append("V: " + " ".join(str(v) for v in part))
    for part in parts.edge_parts:
        lines.append("E: " + " ".join(str(e) for e in part))
    return "\n".join(lines) + "\n"


def parse_partitions(text: str, g: Multigraph) -> PartitionedGraph:
    vparts, eparts = [], []
    for lineno, line in _content_lines(text):
        if line.startswith("V:"):
            bucket, body = vparts, line[2:]
        elif line.startswith("E:"):
            bucket, body = eparts, line[2:]
        else:
            raise FormatError("expected 'V:' or 'E:' line", lineno)
        try:
            ids = tuple(sorted(int(x) for x in body.split()))
        except ValueError:
            raise FormatError("part members must be integers", lineno)
        if not ids:
            raise FormatError("empty part", lineno)
        bucket.append(ids)
    return PartitionedGraph(g, tuple(vparts), tuple(eparts))


def format_provenance(result: LinkGraphResult) -> str:
    return "\n".join(provenance_lines(result)) + "\n"


def parse_recipe(text: str, base_dir: str = ".") -> ExpansionRecipe:
    """Recipe lines: ``paste <component> <vertex> <tree-file>`` and
    ``add <tree-file>``; pasted trees are rooted at their vertex 0."""
    pastes = []
    extras = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "paste" and len(fields) == 4:
            try:
                comp, vertex = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError("paste indices must be integers", lineno)
            tree = read_multigraph(os.path.join(base_dir, fields[3]))
            pastes.append(PasteInstruction(comp, vertex, tree, root=0))
        elif fields[0] == "add" and len(fields) == 2:
            extras.append(read_multigraph(os.path.join(base_dir, fields[1])))
        else:
            raise FormatError(f"unknown recipe line {fields[0]!r}", lineno)
    return ExpansionRecipe(pastes=tuple(pastes), extra_components=tuple(extras))


def to_dot(g: Multigraph, vertex_labels=None, name: str = "G") -> str:
    """DOT with parallel edges as distinct lines; labels annotate provenance."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if vertex_labels is not None:
            label = str(vertex_labels[v]).replace('"', r"\"")
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def result_to_dot(result: LinkGraphResult) -> str:
    labels = [str(link) for link in result.vertex_provenance]
    return to_dot(result.graph, vertex_labels=labels, name="linkgraph")


# the files write_root_set writes, under either index name
_ROOT_SET_FILE = re.compile(r"root_[0-9]{3,}\.mg|roots\.tsv|roots\.partial\.tsv")


def write_root_set(root_set, out_dir: str, index_name: str = "roots.tsv") -> list:
    """One multigraph file per root plus the index; returns paths.

    Each root is written as the canonical graph of its certificate, so the
    files depend on the isomorphism class alone, not on the graph the
    search kept for it.  Root-set files an earlier call left in
    ``out_dir`` are deleted first, so the directory never mixes two runs;
    other files are left alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if _ROOT_SET_FILE.fullmatch(name):
            os.remove(os.path.join(out_dir, name))
    rows = []
    written = []
    for i, record in enumerate(root_set):
        filename = f"root_{i:03d}.mg"
        graph = _unpack(record.canonical.data)
        write_multigraph(os.path.join(out_dir, filename), graph)
        written.append(filename)
        rows.append(
            "\t".join(
                (
                    record.canonical.hex(),
                    str(graph.n),
                    str(graph.m),
                    "tree" if graph.is_tree()
                    else "forest" if graph.is_acyclic()
                    else "cyclic",
                    filename,
                )
            )
        )
    index = os.path.join(out_dir, index_name)
    with open(index, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("canonical\tn\tm\tkind\twitness\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))
    written.append(index_name)
    return written
