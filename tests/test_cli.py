import argparse
import sys

import pytest

from linkgraph import families
from linkgraph.canon import is_isomorphic
from linkgraph import cli
from linkgraph.cli import main
from linkgraph.formats import format_multigraph, parse_multigraph, read_multigraph
from linkgraph.multigraph import Multigraph
from linkgraph.search import BudgetExceeded, RootSet, cycle_roots


@pytest.fixture
def claw_file(tmp_path):
    path = tmp_path / "k13.mg"
    path.write_text(format_multigraph(families.star(3)), encoding="utf-8")
    return str(path)


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(format_multigraph(g), encoding="utf-8")
    return str(path)


def test_link_of_claw_emits_triangle(claw_file, capsys):
    assert main(["link", "-l", "1", claw_file]) == 0
    out = capsys.readouterr().out
    assert is_isomorphic(parse_multigraph(out), families.complete(3))


def test_link_side_outputs(claw_file, tmp_path):
    parts = tmp_path / "parts.txt"
    prov = tmp_path / "prov.tsv"
    dot = tmp_path / "graph.dot"
    out = tmp_path / "out.mg"
    code = main(
        [
            "link", "-l", "1", claw_file,
            "-o", str(out),
            "--partitions", str(parts),
            "--provenance", str(prov),
            "--dot", str(dot),
        ]
    )
    assert code == 0
    assert parts.read_text().startswith("V:")
    assert "\t" in prov.read_text()
    assert dot.read_text().startswith("graph")
    assert read_multigraph(str(out)).n == 3


def test_pathgraph_command(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.mg", families.complete(4))
    assert main(["pathgraph", "-l", "3", path]) == 0
    out = parse_multigraph(capsys.readouterr().out)
    assert out.n == 12 and out.m == 12


def test_pathgraph_cap_counts_paths_and_edges(tmp_path, capsys):
    # the 12-bundle has 1452 3-links but no 2-path, so its 2-path graph is
    # empty; it has 12 1-paths, and its 1-path graph is K12 with 66 edges
    path = write_graph(tmp_path, "bundle.mg", Multigraph(2, [(0, 1)] * 12))
    assert main(["pathgraph", "-l", "2", "--max-links", "100", path]) == 0
    assert "n 0" in capsys.readouterr().out.splitlines()
    for cap in (10, 20):
        assert main(["pathgraph", "-l", "1", "--max-links", str(cap), path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"exceeds the cap of {cap}" in err[0]


def test_pathgraph_cap_messages_name_the_cap(tmp_path, capsys):
    # the walk stops as soon as a count passes the cap, so the message says
    # which cap and "more than": the 12-bundle's 1-path graph is K12 (66
    # edges), and the first 1-path already makes 11 of them; a matching of
    # six edges has six 1-paths and no path-graph edge
    cases = [
        (Multigraph(2, [(0, 1)] * 12), 60,
         "error: enumeration of more than 60 path-graph edges exceeds the cap of 60"),
        (Multigraph(2, [(0, 1)] * 12), 10,
         "error: enumeration of more than 10 path-graph edges exceeds the cap of 10"),
        (Multigraph(12, [(2 * i, 2 * i + 1) for i in range(6)]), 5,
         "error: enumeration of more than 5 1-paths exceeds the cap of 5"),
    ]
    for graph, cap, message in cases:
        path = write_graph(tmp_path, "g.mg", graph)
        assert main(["pathgraph", "-l", "1", "--max-links", str(cap), path]) == 3
        assert capsys.readouterr().err.splitlines() == [message]


def test_link_cap_messages(tmp_path, capsys):
    # K4 has 4 0-links, 6 1-links and 12 2-links; the ell-link cap is
    # checked first, then the (ell + 1)-link cap
    path = write_graph(tmp_path, "k4.mg", families.complete(4))
    cases = [
        (1, 6, "error: enumeration of 12 links exceeds the cap of 6"),
        (1, 5, "error: |L_1(G)| = 6 exceeds the cap of 5"),
        (0, 5, "error: enumeration of 6 links exceeds the cap of 5"),
    ]
    for ell, cap, message in cases:
        assert main(["link", "-l", str(ell), "--max-links", str(cap), path]) == 3
        assert capsys.readouterr().err.splitlines() == [message]



def test_cap_messages_shorten_huge_counts(tmp_path, capsys):
    # a 50-edge bond has 50 * 49^(ell - 1) ell-links: 1691 digits at ell
    # 1000, and past the 4300 digits str() converts at ell 2600
    path = write_graph(tmp_path, "bond.mg", Multigraph(2, [(0, 1)] * 50))
    cases = [
        ("link", 1000, 1691),
        ("link", 2600, 4395),
        ("analyze", 2600, 4395),
    ]
    for command, ell, digits in cases:
        assert main([command, "-l", str(ell), path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: |L_{ell}(G)| = a {digits}-digit number exceeds the cap of 1000000"
        ]

def test_minimal_positive_and_negative(tmp_path, capsys):
    chord = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    good = write_graph(tmp_path, "chord.mg", chord)
    assert main(["minimal", "-l", "4", good]) == 0
    assert capsys.readouterr().out.strip() == "minimal"
    bad = write_graph(tmp_path, "claw.mg", families.star(3))
    assert main(["minimal", "-l", "3", bad]) == 1
    assert "not minimal" in capsys.readouterr().out


def test_equiv_command(tmp_path, capsys):
    a = write_graph(tmp_path, "a.mg", families.complete(3))
    b = write_graph(tmp_path, "b.mg", families.star(3))
    assert main(["equiv", "-l", "1", a, b]) == 1
    assert main(["equiv", "-l", "1", a, a]) == 0


def test_incidence_command(tmp_path, capsys):
    path = write_graph(tmp_path, "claw.mg", families.star(3))
    assert main(["incidence", "-l", "3", path]) == 0
    out = capsys.readouterr().out
    assert "n 0" in out
    assert "# vertex 0 3-incident: no" in out


def test_expand_command(tmp_path, capsys):
    base = write_graph(tmp_path, "p4.mg", families.path(4))
    write_graph(tmp_path, "star.mg", families.star(3))
    recipe = tmp_path / "recipe.txt"
    recipe.write_text("paste 0 2 star.mg\n", encoding="utf-8")
    assert main(["expand", "-l", "4", base, str(recipe)]) == 0
    out = parse_multigraph(capsys.readouterr().out)
    assert out.n == 8 and out.m == 7


def test_expand_rejects_bad_recipe(tmp_path, capsys):
    base = write_graph(tmp_path, "p4.mg", families.path(4))
    write_graph(tmp_path, "long.mg", families.path(4))
    recipe = tmp_path / "recipe.txt"
    recipe.write_text("add long.mg\n", encoding="utf-8")
    assert main(["expand", "-l", "4", base, str(recipe)]) == 2


def test_analyze_command(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.mg", families.cycle(6))
    assert main(["analyze", "-l", "2", path]) == 0
    out = capsys.readouterr().out
    assert "girth 6" in out
    assert "link-census-cyclic 1" in out
    assert "degree-set 1" in out


def test_roots_command(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.mg", families.cycle(6))
    outdir = tmp_path / "out"
    assert main(["roots", "-l", "2", path, "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 minimal roots")
    index = (outdir / "roots.tsv").read_text().splitlines()
    assert len(index) == 3
    graphs = [read_multigraph(str(outdir / f"root_{i:03d}.mg")) for i in (0, 1)]
    assert {is_isomorphic(g, families.cycle(6)) for g in graphs} == {True, False}


def test_roots_path_mode(tmp_path, capsys):
    path = write_graph(tmp_path, "k2.mg", families.path(1))
    outdir = tmp_path / "out"
    assert main(["roots", "-l", "1", path, "--path", "--outdir", str(outdir)]) == 0
    assert "2 minimal path roots" in capsys.readouterr().out


@pytest.mark.parametrize(
    "target, ell", [(families.cycle(6), 2), (families.empty_graph(2), 3)]
)
def test_roots_trees_only_is_forests_and_connected(tmp_path, capsys, target, ell):
    path = write_graph(tmp_path, "h.mg", target)
    written = []
    for flags in (["--trees-only"], ["--forests-only", "--connected-only"]):
        outdir = tmp_path / flags[-1]
        argv = ["roots", "-l", str(ell), path, "--outdir", str(outdir), *flags]
        assert main(argv) == 0
        written.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert written[0] == written[1]
    capsys.readouterr()


def test_roots_budget_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.mg", families.cycle(6))
    code = main(
        ["roots", "-l", "2", path, "--outdir", str(tmp_path / "x"),
         "--budget", "0.0001"]
    )
    assert code == 3
    assert (tmp_path / "x" / "roots.partial.tsv").exists()


def test_roots_budget_keeps_partial_roots(tmp_path, capsys, monkeypatch):
    # a search that runs out of time after finding both roots of C6
    found = cycle_roots(6, 2)

    def out_of_time(h, ell, options):
        raise BudgetExceeded("search budget of 1s exhausted", found.stats, found)

    monkeypatch.setattr(cli, "minimal_link_roots", out_of_time)
    path = write_graph(tmp_path, "c6.mg", families.cycle(6))
    outdir = tmp_path / "out"
    assert main(["roots", "-l", "2", path, "--outdir", str(outdir)]) == 3
    captured = capsys.readouterr()
    index = outdir / "roots.partial.tsv"
    assert captured.err.splitlines() == [
        f"error: search budget of 1s exhausted; 2 roots so far in {index}"
    ]
    assert not (outdir / "roots.tsv").exists()
    rows = index.read_text().splitlines()
    assert rows[0] == "canonical\tn\tm\tkind\twitness"
    assert {row.split("\t")[0] for row in rows[1:]} == {
        r.canonical.hex() for r in found
    }
    for row in rows[1:]:
        assert (outdir / row.split("\t")[-1]).exists()


def test_roots_outdir_holds_only_the_latest_run(tmp_path, capsys, monkeypatch):
    # complete, then budget-limited with fewer roots, then complete again
    path = write_graph(tmp_path, "c6.mg", families.cycle(6))
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "notes.txt").write_text("kept\n")
    (outdir / "root_a.mg").write_text("kept\n")
    args = ["roots", "-l", "2", path, "--outdir", str(outdir)]
    complete = {"notes.txt", "root_a.mg", "roots.tsv", "root_000.mg", "root_001.mg"}

    assert main(args) == 0
    assert {p.name for p in outdir.iterdir()} == complete

    found = cycle_roots(6, 2)
    partial = RootSet(found.target, found.ell, found.mode, found.roots[:1],
                      found.bounds, found.stats)

    def out_of_time(h, ell, options):
        raise BudgetExceeded("search budget of 1s exhausted", partial.stats, partial)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "minimal_link_roots", out_of_time)
        assert main(args) == 3
    assert {p.name for p in outdir.iterdir()} == {
        "notes.txt", "root_a.mg", "roots.partial.tsv", "root_000.mg"
    }

    assert main(args) == 0
    assert {p.name for p in outdir.iterdir()} == complete
    capsys.readouterr()


def test_large_edge_bound_exits_0(tmp_path, capsys):
    # R_3(C7) may grow 21 edges; only the state cap stops a search
    path = write_graph(tmp_path, "c7.mg", families.cycle(7))
    outdir = tmp_path / "x"
    assert main(["roots", "-l", "3", path, "--outdir", str(outdir)]) == 0
    assert (outdir / "roots.tsv").exists()
    capsys.readouterr()


def test_roots_state_cap_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "c12.mg", families.cycle(12))
    outdir = tmp_path / "x"
    argv = ["roots", "-l", "3", path, "--outdir", str(outdir), "--max-states", "10"]
    assert main(argv) == 3
    assert (outdir / "roots.partial.tsv").exists()
    assert not (outdir / "roots.tsv").exists()
    capsys.readouterr()


def test_many_components_are_answered_at_the_default_cap(tmp_path, capsys):
    # each union of block roots is built once, when its last part is
    # accepted: 50K1 has 50 blocks and 417 minimal 2-roots, the disjoint
    # unions of stars whose 2-link counts add up to 50
    path = write_graph(tmp_path, "50k1.mg", families.empty_graph(50))
    outdir = tmp_path / "x"
    assert main(["roots", "-l", "2", path, "--outdir", str(outdir)]) == 0
    assert capsys.readouterr().out.startswith("417 minimal roots\n")
    assert (outdir / "roots.tsv").exists()


def test_many_components_stop_at_a_small_cap(tmp_path, capsys):
    # the union phase counts its steps against the cap too
    path = write_graph(tmp_path, "50k1.mg", families.empty_graph(50))
    outdir = tmp_path / "x"
    argv = ["roots", "-l", "2", path, "--outdir", str(outdir), "--max-states", "300"]
    assert main(argv) == 3
    assert (outdir / "roots.partial.tsv").exists()
    assert not (outdir / "roots.tsv").exists()
    capsys.readouterr()


def test_target_past_the_certificate_size_exits_2(tmp_path, capsys):
    path = write_graph(tmp_path, "300k1.mg", families.empty_graph(300))
    assert main(["roots", "-l", "1", path, "--outdir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "300 vertices" in err and "at most 255" in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def crash(g):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cli, "canonical_form", crash)
    assert main(["canon", write_graph(tmp_path, "k3.mg", families.complete(3))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_canon_edge_count_limit(tmp_path, capsys):
    # the certificate stores the edge count in two bytes
    for edges, code in ((65_535, 0), (70_000, 2)):
        path = tmp_path / f"bundle{edges}.mg"
        path.write_text("mg 1\nn 2\n" + "e 0 1\n" * edges, encoding="utf-8")
        assert main(["canon", str(path)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: canonical form supports at most 65535 edges\n"
        else:
            assert captured.out.startswith("02ffff")


def test_canon_command(tmp_path, capsys):
    a = write_graph(tmp_path, "a.mg", families.cycle(3))
    b = write_graph(tmp_path, "b.mg", families.complete(3))
    assert main(["canon", a]) == 0
    hex_a = capsys.readouterr().out.strip()
    assert main(["canon", b]) == 0
    hex_b = capsys.readouterr().out.strip()
    assert hex_a == hex_b
    assert set(hex_a) <= set("0123456789abcdef")


def test_usage_errors(tmp_path, capsys):
    assert main(["nonsense"]) == 2
    assert main(["link"]) == 2
    missing = str(tmp_path / "nope.mg")
    assert main(["canon", missing]) == 2
    bad = tmp_path / "bad.mg"
    bad.write_text("mg 1\nn 2\ne 5 0\n", encoding="utf-8")
    assert main(["canon", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err



@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in cli._COMMANDS]
    + [["--help"], [], ["bogus"], ["ro"], ["link"], ["roots", "-l", "1", "x", "-q"]],
)
def test_per_command_parser_speaks_as_the_full_one(argv, capsys):
    # main builds only the named command's subparser; help, usage errors
    # and exit codes must read as those of the parser with every command
    with pytest.raises(SystemExit) as stop:
        cli._parser().parse_args(argv)
    expected = (2 if stop.value.code else 0, capsys.readouterr())
    assert (main(argv), capsys.readouterr()) == expected


def test_main_builds_one_subparser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["canon", write_graph(tmp_path, "k3.mg", families.complete(3))]) == 0
    assert built == ["linkgraph", "linkgraph canon"]


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, "k3.mg", families.complete(3))
    assert main(["canon", path]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["linkgraph", "canon", path])
    assert main() == 0
    assert capsys.readouterr() == expected

def test_io_errors_are_input_errors(tmp_path, capsys):
    # an unreadable input or an unusable --outdir exits 2 with one line
    path = write_graph(tmp_path, "c5.mg", families.cycle(5))
    for argv in (
        ["canon", str(tmp_path)],
        ["roots", "-l", "2", path, "--outdir", path],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "internal error" not in err, err


def test_negative_ell_rejected(tmp_path, capsys):
    path = write_graph(tmp_path, "a.mg", families.cycle(3))
    assert main(["link", "-l", "-1", path]) == 2


def test_output_determinism(tmp_path):
    path = write_graph(tmp_path, "c5.mg", families.cycle(5))
    outs = []
    for name in ("x.mg", "y.mg"):
        target = tmp_path / name
        assert main(["link", "-l", "2", path, "-o", str(target)]) == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


def test_cliconfig_invariants(tmp_path, capsys):
    path = write_graph(tmp_path, "a.mg", families.cycle(3))
    rejected = [
        ("ell", ["link", "-l", "-2", path]),
        ("budget", ["roots", "-l", "1", path, "--budget", "0"]),
        ("budget", ["roots", "-l", "1", path, "--budget", "nan"]),
        ("max_states", ["roots", "-l", "1", path, "--max-states", "0"]),
        ("max-links", ["analyze", "-l", "1", path, "--max-links", "0"]),
    ]
    for word, argv in rejected:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert word in err[0]
    assert main(["bogus", path]) == 2
    # roots has no --max-links: the constructions it runs are sized by H
    assert main(["roots", "-l", "1", path, "--max-links", "5"]) == 2
