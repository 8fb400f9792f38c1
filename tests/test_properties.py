"""Property tests over generated graphs and covers, edge cases included:
no nodes, isolated nodes, no edges and covers with no communities."""

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
