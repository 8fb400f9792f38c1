"""Property tests over generated graphs and covers, edge cases included:
no nodes, isolated nodes, no edges and covers with no communities; and over
generated CLI runs, malformed inputs and out-of-range flag values included."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wocd import (
    Cover,
    Graph,
    identify_weak_cliques,
    load_cover,
    load_edge_list,
    write_cover,
    write_edge_list,
)
from wocd.cli import main

from conftest import graph_to_adj
from oracles import graph_from_edges_naive, weak_cliques_reference

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def edge_lists(draw, max_nodes=30):
    """(pairs, n): any pairs over [0, n), with self-loops and repeats."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return [], 0
    node = st.integers(0, n - 1)
    return draw(st.lists(st.tuples(node, node), max_size=4 * n)), n


@st.composite
def covers(draw, max_nodes=20, max_communities=6):
    n = draw(st.integers(0, max_nodes))
    k = draw(st.integers(0, max_communities))
    bits = draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
    return Cover(memberships=np.array(bits, dtype=np.uint8).reshape(n, k))


def _same_graph(a: Graph, b: Graph) -> bool:
    return (a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices))


class TestFromEdges:
    @SETTINGS
    @given(edge_lists())
    def test_csr_invariants(self, case):
        pairs, n = case
        g = Graph.from_edges(pairs, n)
        assert g.indptr.size == n + 1 and g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert np.all(np.diff(g.indptr) >= 0)
        for u in range(n):
            nu = g.neighbors(u)
            assert np.all(np.diff(nu) > 0)  # strictly ascending: no duplicates
            assert u not in nu
            for v in nu:
                assert u in g.neighbors(int(v))  # symmetric

    @SETTINGS
    @given(edge_lists())
    def test_equals_naive_build(self, case):
        pairs, n = case
        want = graph_from_edges_naive(pairs, n)
        assert _same_graph(Graph.from_edges(pairs, n), want)
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert _same_graph(Graph.from_edges(array, n), want)
        assert _same_graph(Graph.from_edges(iter(pairs), n), want)


class TestRoundTrips:
    @SETTINGS
    @given(edge_lists())
    def test_edge_list(self, case):
        g = Graph.from_edges(*case)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.tsv"
            write_edge_list(g, path)
            assert _same_graph(load_edge_list(path), g)

    @SETTINGS
    @given(covers())
    def test_cover(self, cover):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cover.txt"
            write_cover(cover, path)
            got = load_cover(path)
        assert got.memberships.dtype == np.uint8
        assert np.array_equal(got.memberships, cover.memberships)
        assert got.memberships.shape == cover.memberships.shape


class TestWeakCliques:
    @SETTINGS
    @given(edge_lists(max_nodes=14))
    def test_matches_reference(self, case):
        g = Graph.from_edges(*case)
        got = [(r.seed_u, r.seed_v, tuple(r.members.tolist()))
               for r in identify_weak_cliques(g).cliques]
        assert got == weak_cliques_reference(graph_to_adj(g))

    @SETTINGS
    @given(edge_lists(max_nodes=14), st.integers(1, 20))
    def test_isolated_tail_changes_nothing(self, case, extra):
        pairs, n = case
        a = identify_weak_cliques(Graph.from_edges(pairs, n))
        b = identify_weak_cliques(Graph.from_edges(pairs, n + extra))
        assert np.array_equal(a.seed_u, b.seed_u) and np.array_equal(a.seed_v, b.seed_v)
        assert np.array_equal(a.incidence.indptr, b.incidence.indptr)
        assert np.array_equal(a.incidence.indices, b.incidence.indices)
        assert b.incidence.shape == (len(a), n + extra)


def _mostly(good, bad):
    """A value from ``good``, or one time in eight from ``bad``."""
    # not i == 0: hypothesis draws the ends of a range more often than the rest
    return st.integers(0, 7).flatmap(lambda i: bad if i == 5 else good)


# a flag value in range, or now and then one past it; None marks a switch
FRACTION = st.floats(0.05, 0.95).map(lambda x: f"{x:.2f}")
OUT_OF_UNIT = st.sampled_from(["-0.5", "0", "1", "1.5"])
CLI_FLAG_VALUES = {
    "--lambda1": _mostly(st.sampled_from(["0", "1", "2"]), st.just("-1")),
    "--lambda2": _mostly(st.sampled_from(["0", "1", "2"]), st.just("-1")),
    "--lr": _mostly(st.sampled_from(["0.001", "0.1"]), st.sampled_from(["-1", "1e6"])),
    "--seed": _mostly(st.integers(0, 3).map(str), st.just("-1")),
    "--alpha": _mostly(FRACTION, st.just("-1")),
    "--beta": _mostly(FRACTION, st.just("-1")),
    "--gamma": _mostly(FRACTION, st.sampled_from(["-0.5", "1.5"])),
    "--rc": _mostly(st.integers(1, 3).map(str), st.just("0")),
    "--tau": _mostly(FRACTION, OUT_OF_UNIT),
    "--binarize-threshold": _mostly(FRACTION, OUT_OF_UNIT),
    "--rho": _mostly(FRACTION, st.sampled_from(["-0.5", "1.5"])),
    "--activate-final": st.none(),
    "--refresh-union": st.none(),
}
SYNTH_FLAG_VALUES = {
    "--nodes": _mostly(st.integers(1, 12).map(str), st.just("0")),
    "--communities": _mostly(st.integers(1, 4).map(str), st.just("0")),
    "--overlap": _mostly(FRACTION, st.just("1.5")),
    "--p-in": _mostly(st.sampled_from(["0.5", "1"]), st.just("1.5")),
    "--p-out": _mostly(st.sampled_from(["0", "0.1"]), st.just("-0.5")),
    "--dims-per-community": _mostly(st.integers(1, 3).map(str), st.just("0")),
    "--attribute-only-overlap": st.none(),
    "--seed": _mostly(st.integers(0, 3).map(str), st.just("-1")),
}


def _flags(draw, values) -> list:
    chosen = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=5))
    argv = []
    for flag in chosen:
        value = draw(values[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


def _text(draw, header, lines, bad) -> str:
    """A file of ``header`` and ``lines``, where one line in about a quarter
    of the files is replaced by, or gains, a line from ``bad``."""
    lines = list(lines)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(bad)]
    return "".join(line + "\n" for line in header + lines)


@st.composite
def cli_runs(draw):
    """(argv with {dir} for the input directory, {file name: text}): a
    subcommand, its small generated input files and flag values."""
    command = draw(st.sampled_from(["train", "ablate", "pseudo", "synth", "cliques", "eval"]))
    out = ["--out", "{dir}/" + draw(_mostly(st.just("out"), st.just("edges.tsv")))]
    if command == "synth":
        required = ["--nodes", "10", "--communities", "2"]
        return ["synth", *required, *_flags(draw, SYNTH_FLAG_VALUES), *out], {}
    n = draw(st.integers(0, 8))
    k = draw(_mostly(st.integers(1, 3), st.just(0)))
    node = st.integers(0, max(n - 1, 0)).map(str)
    community = st.integers(0, max(k - 1, 0)).map(str)
    edges = draw(st.lists(st.tuples(node, node).map(" ".join), max_size=2 * n if n else 0))
    cover = {v: draw(st.lists(community, max_size=2 if k else 0)) for v in range(n)}
    d = draw(st.integers(1, 3))
    rows = [",".join(draw(st.lists(st.sampled_from(["0", "1", "0.5", "-2"]),
                                   min_size=d, max_size=d))) for _ in range(n)]
    files = {
        "edges.tsv": _text(draw, [f"#nodes={n}"], edges,
                           st.sampled_from(["x y", "1", "-1 2", "1.5 2", "#nodes=x", "9 0"])),
        "cover.txt": _text(draw, [f"#nodes={n}", f"#communities={k}"],
                           [f"{v}: {' '.join(cs)}" for v, cs in cover.items()],
                           st.sampled_from(["0 1", "x: 0", "0: 9", "0: 0", "#communities=x"])),
        "features.csv": _text(draw, [], rows,
                              st.sampled_from(["x", "nan", "1e200," * d + "1e200", ""])),
    }
    edges_flag = ["--edges", "{dir}/edges.tsv"]
    cover_flag = ["--cover", "{dir}/cover.txt"]
    if command == "cliques":
        return ["cliques", *edges_flag, *out], files
    if command == "eval":
        return ["eval", "--pred", "{dir}/cover.txt", "--truth", "{dir}/cover.txt"], files
    if command == "pseudo":
        flags = _flags(draw, {f: CLI_FLAG_VALUES[f] for f in ("--seed", "--rc")})
        return ["pseudo", *edges_flag, *cover_flag,
                "--rho", draw(CLI_FLAG_VALUES["--rho"]), *flags, *out], files
    sizes = ["--epochs-initial", draw(_mostly(st.integers(0, 2).map(str), st.just("-1"))),
             "--epochs-refined", draw(_mostly(st.integers(0, 2).map(str), st.just("-1"))),
             "--hidden", draw(_mostly(st.integers(1, 4).map(str), st.just("0")))]
    sweep = []
    if command == "ablate":
        rho, seed = draw(CLI_FLAG_VALUES["--rho"]), draw(CLI_FLAG_VALUES["--seed"])
        sweep = [f"--rhos={rho},0.2", f"--seeds={seed}"]
    return [command, *edges_flag, "--features", "{dir}/features.csv", *cover_flag, *sweep,
            *sizes, *_flags(draw, CLI_FLAG_VALUES), *out], files


class TestCliExitCodes:
    @settings(max_examples=50, deadline=None)
    @given(cli_runs())
    def test_documented_exit_code(self, case):
        """Every run exits 0-4 without a traceback; one that fails prints an
        ``error:`` line last, and a usage error writes no output."""
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main([tok.format(dir=tmp) for tok in argv])
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
            assert code in (0, 1, 2, 3, 4), argv
            assert "Traceback" not in err.getvalue()
            if code:
                assert "error:" in err.getvalue().splitlines()[-1], err.getvalue()
            if code == 2:
                assert not Path(tmp, "out").exists()
