"""Fuzz of the user-input surface: the multigraph parser and every CLI
subcommand.  Bad input must end in a clean exit code (0-3) with at most one
``error:`` line, never in exit 4 (internal error) or a traceback."""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from linkgraph.cli import main
from linkgraph.formats import FormatError, parse_multigraph
from linkgraph.multigraph import Multigraph

# values and lines that reach every branch of the parser, plus junk
_VALUES = st.sampled_from(["0", "1", "2", "3", "-1", "+1", "x", "²", "١", "1_0", ""])
_LINES = st.one_of(
    _VALUES.map("n {}".format),
    st.tuples(_VALUES, _VALUES).map(lambda e: "e {} {}".format(*e)),
    st.lists(st.sampled_from(["mg", "1", "n", "e", "#", "\t", "x"]), max_size=4).map(" ".join),
)
_GRAPH_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(_LINES, max_size=6).map("\n".join),
    st.lists(_LINES, max_size=6).map(lambda lines: "\n".join(["mg 1"] + lines)),
)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 4))
    if n < 2:
        return Multigraph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    return Multigraph(n, draw(st.lists(pair, max_size=5)))


def _graph_file_text(draw):
    """A well-formed small graph most of the time, else fuzzed text."""
    if draw(st.integers(0, 4)):
        g = draw(_small_graphs())
        return "mg 1\nn {}\n".format(g.n) + "".join(f"e {u} {v}\n" for u, v in g.edges)
    return draw(_GRAPH_TEXT)


@given(_GRAPH_TEXT)
@example("mg 1\nn ²\n")  # isdigit() but not an int() literal
@settings(max_examples=300, deadline=None)
def test_parse_multigraph_fails_only_with_format_errors(text):
    try:
        g = parse_multigraph(text)
    except FormatError:
        return
    assert isinstance(g, Multigraph)


_ELL = st.sampled_from(["0", "1", "2", "3", "-1", "x", "1.5"])
_BUDGET = st.sampled_from(["0.5", "5", "0", "-1", "nan", "inf", "x"])


@st.composite
def _invocations(draw, workdir):
    """argv for one CLI call over freshly written files in ``workdir``."""

    def graph_file(name):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_graph_file_text(draw))
        return path

    command = draw(
        st.sampled_from(
            ["link", "pathgraph", "incidence", "minimal", "equiv", "expand",
             "analyze", "roots", "canon"]
        )
    )
    argv = [command]
    if command != "canon":
        argv += ["-l", draw(_ELL)]
    argv.append(graph_file("a.mg"))
    if command == "equiv":
        argv.append(graph_file("b.mg"))
    if command == "expand":
        tree = os.path.basename(graph_file("t.mg"))
        lines = draw(
            st.lists(
                st.sampled_from(
                    [f"paste 0 0 {tree}", f"paste 1 2 {tree}", f"paste x 0 {tree}",
                     f"add {tree}", "add missing.mg", "paste 0", "bogus"]
                ),
                max_size=3,
            )
        )
        recipe = os.path.join(workdir, "r.txt")
        with open(recipe, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        argv.append(recipe)
    if command in ("link", "pathgraph", "incidence", "minimal", "equiv", "expand", "analyze"):
        if draw(st.booleans()):
            argv += ["--max-links", draw(st.sampled_from(["1", "5", "0", "-3", "x"]))]
    if command in ("link", "pathgraph", "incidence", "expand") and draw(st.booleans()):
        argv += ["-o", os.path.join(workdir, "out.mg")]
    if command in ("link", "pathgraph"):
        for flag in ("--provenance", "--dot"):
            if draw(st.booleans()):
                argv += [flag, os.path.join(workdir, flag[2:] + ".txt")]
    if command == "link" and draw(st.booleans()):
        argv += ["--partitions", os.path.join(workdir, "parts.txt")]
    if command == "roots":
        argv += ["--outdir", os.path.join(workdir, "roots")]
        for flag in ("--path", "--trees-only", "--forests-only", "--connected-only"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.booleans()):
            argv += ["--budget", draw(_BUDGET)]
        if draw(st.booleans()):
            argv += ["--max-states", draw(st.sampled_from(["1", "6", "0", "x"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "-l", "extra"])))
    return argv


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cli_exits_cleanly_on_any_input(data):
    with tempfile.TemporaryDirectory() as workdir:
        argv = data.draw(_invocations(workdir), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    messages = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, messages)
    assert "Traceback" not in messages + out.getvalue(), argv
    assert sum("error:" in line for line in messages.splitlines()) <= 1, (argv, messages)
