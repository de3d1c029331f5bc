import random

import pytest

from linkgraph import families
from linkgraph.canon import canonical_form
from linkgraph.construct import link_graph, link_partitions
from linkgraph.formats import (
    FormatError,
    format_multigraph,
    format_partitions,
    parse_multigraph,
    parse_partitions,
    parse_recipe,
    to_dot,
    write_root_set,
)
from linkgraph.multigraph import Multigraph
from linkgraph.partition import PartitionError
from linkgraph.search import RootSet, minimal_link_roots

from util import random_graph_corpus


def test_round_trip_unit_identical():
    for g in random_graph_corpus(seed=139, count=30, max_n=7, max_m=9):
        assert parse_multigraph(format_multigraph(g)) == g


def test_parse_with_comments_and_blanks():
    text = "# a file\nmg 1\n\nn 3  # three vertices\ne 0 1\ne 0 1 # parallel\ne 1 2\n"
    g = parse_multigraph(text)
    assert g.n == 3 and g.m == 3
    assert g.edges == ((0, 1), (0, 1), (1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_multigraph("mg 1\nn 2\ne 0 0\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        parse_multigraph("mg 2\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_multigraph("mg 1\ne 0 1\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        parse_multigraph("mg 1\nn 2\ne 0 7\n")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        parse_multigraph("")


def test_format_is_deterministic_lf():
    g = families.cycle(3)
    text = format_multigraph(g)
    assert text == "mg 1\nn 3\ne 0 1\ne 1 2\ne 0 2\n"


def test_partition_files_round_trip():
    g = families.subdivided_star(3, 2)
    result = link_graph(g, 2)
    parts = link_partitions(result)
    text = format_partitions(parts)
    pg = parse_partitions(text, result.graph)
    assert set(pg.vertex_parts) == set(parts.vertex_parts)
    assert set(pg.edge_parts) == set(parts.edge_parts)


def test_parse_partitions_rejects_junk():
    g = families.path(1)
    with pytest.raises(FormatError):
        parse_partitions("X: 0\n", g)
    with pytest.raises(FormatError):
        parse_partitions("V: a\n", g)


def test_parse_partitions_rejects_an_uncovered_edge():
    text = "V: 0 1 2 3\nE: 0 1\nE: 3\n"
    with pytest.raises(PartitionError, match="^gap: edge id 2 uncovered$"):
        parse_partitions(text, families.cycle(4))


def test_recipe_parsing(tmp_path):
    tree = families.star(2)
    (tmp_path / "tree.mg").write_text(format_multigraph(tree), encoding="utf-8")
    recipe = parse_recipe(
        "paste 0 2 tree.mg\nadd tree.mg\n", base_dir=str(tmp_path)
    )
    assert len(recipe.pastes) == 1
    assert recipe.pastes[0].vertex == 2
    assert recipe.pastes[0].tree == tree
    assert len(recipe.extra_components) == 1
    with pytest.raises(FormatError):
        parse_recipe("paste 0 zero tree.mg\n", base_dir=str(tmp_path))
    with pytest.raises(FormatError):
        parse_recipe("nonsense\n", base_dir=str(tmp_path))


def test_dot_renders_parallel_edges():
    g = Multigraph(2, [(0, 1), (0, 1)])
    dot = to_dot(g)
    assert dot.count("0 -- 1;") == 2
    labeled = to_dot(g, vertex_labels=["a", 'b"x'])
    assert 'label="a"' in labeled and r"\"" in labeled


def test_write_root_set(tmp_path):
    roots = minimal_link_roots(families.complete(3), 1)
    written = write_root_set(roots, str(tmp_path))
    assert written == ["root_000.mg", "root_001.mg", "roots.tsv"]
    index = (tmp_path / "roots.tsv").read_text(encoding="utf-8").splitlines()
    assert index[0] == "canonical\tn\tm\tkind\twitness"
    assert len(index) == 3
    kinds = {row.split("\t")[3] for row in index[1:]}
    assert kinds == {"cyclic", "tree"}
    # deterministic byte-identical rewrite
    first = (tmp_path / "roots.tsv").read_bytes()
    write_root_set(roots, str(tmp_path))
    assert (tmp_path / "roots.tsv").read_bytes() == first


def test_root_files_depend_on_the_class_alone(tmp_path):
    # each root is written as the canonical graph of its certificate, so
    # roots kept under other labellings and edge orders write the same files
    roots = minimal_link_roots(families.cycle(6), 2)
    rng = random.Random(7)
    shuffled = []
    for record in roots:
        g = record.graph
        mapping = rng.sample(range(g.n), g.n)
        edges = [(mapping[u], mapping[v]) for u, v in g.edges]
        rng.shuffle(edges)
        shuffled.append(record._replace(graph=Multigraph(g.n, edges)))
    relabelled = RootSet(roots.target, roots.ell, roots.mode, tuple(shuffled),
                         roots.bounds, roots.stats)
    written = []
    for i, root_set in enumerate((roots, relabelled)):
        out = tmp_path / str(i)
        write_root_set(root_set, str(out))
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    rows = written[0]["roots.tsv"].decode().splitlines()[1:]
    for row in rows:
        cert, n, m, _, name = row.split("\t")
        g = parse_multigraph(written[0][name].decode())
        assert (g.n, g.m) == (int(n), int(m))
        assert canonical_form(g).hex() == cert
        assert list(g.edges) == sorted(g.edges)
