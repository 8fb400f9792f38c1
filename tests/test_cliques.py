import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from wocd import Graph, identify_weak_cliques
from wocd.cliques import _clique_incidence, _scores

from conftest import closed_adjacency, graph_to_adj, random_graph
from oracles import weak_cliques_reference


def triangle():
    return Graph.from_edges([(0, 1), (1, 2), (2, 0)], 3)


def path3():
    return Graph.from_edges([(0, 1), (1, 2)], 3)


def graph_scores(graph):
    deg = graph.degrees()
    src = np.repeat(np.arange(graph.n_nodes), deg)
    return _scores(graph.adjacency(), closed_adjacency(graph), deg, src)


def node_priority(graph, u):
    return graph_scores(graph)[0][u]


def salton_index(graph, u, v):
    adj = graph.adjacency()
    si = sp.csr_array((graph_scores(graph)[1], adj.indices, adj.indptr), shape=adj.shape)
    return si[u, v]


def weak_clique_members(graph, u, v):
    inc = _clique_incidence(closed_adjacency(graph), np.array([u]), np.array([v]))
    return inc.indices.tolist()


def k4():
    return Graph.from_edges([(u, v) for u in range(4) for v in range(u + 1, 4)], 4)


class TestNodePriority:
    def test_edge_endpoint(self):
        g = Graph.from_edges([(0, 1)], 2)
        assert node_priority(g, 0) == 0.5

    def test_triangle_vertex(self):
        assert node_priority(triangle(), 0) == 1.0

    def test_star_center(self):
        g = Graph.from_edges([(0, i) for i in range(1, 5)], 5)
        assert node_priority(g, 0) == pytest.approx(0.8)

    def test_isolated(self):
        g = Graph.from_edges([(0, 1)], 3)
        assert node_priority(g, 2) == 0.0


class TestSaltonIndex:
    def test_triangle_pair(self):
        assert salton_index(triangle(), 0, 1) == pytest.approx(0.5)

    def test_no_common_neighbor(self):
        assert salton_index(path3(), 0, 1) == 0.0

    def test_k4_pair(self):
        assert salton_index(k4(), 0, 1) == pytest.approx(2.0 / 3.0)

    def test_isolated_endpoint(self):
        g = Graph.from_edges([(0, 1)], 3)
        assert salton_index(g, 0, 2) == 0.0


class TestWeakClique:
    def test_triangle_edge(self):
        assert weak_clique_members(triangle(), 1, 2) == [0, 1, 2]

    def test_path_edge(self):
        assert weak_clique_members(path3(), 0, 1) == [0, 1]

    def test_k4_edge(self):
        assert weak_clique_members(k4(), 0, 1) == [0, 1, 2, 3]


class TestIdentifyWeakCliques:
    def test_triangle_trace(self):
        out = identify_weak_cliques(triangle())
        got = [(r.seed_u, r.seed_v, r.members.tolist()) for r in out.cliques]
        assert got == [(0, 1, [0, 1, 2]), (2, 0, [0, 1, 2])]

    def test_path_trace(self):
        out = identify_weak_cliques(path3())
        got = [(r.seed_u, r.seed_v, r.members.tolist()) for r in out.cliques]
        assert got == [(1, 0, [0, 1]), (2, 1, [1, 2])]

    def test_edgeless(self):
        out = identify_weak_cliques(Graph.from_edges([], 5))
        assert len(out) == 0

    def test_peak_memory_with_isolated_nodes(self):
        # one edge among 10**5 declared nodes: the scan's per-node arrays read
        # about 68 bytes a node; a Python list or loop over every node, isolated
        # ones included, read about 117
        n = 10**5
        g = Graph.from_edges([(0, 1)], n)
        identify_weak_cliques(g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = identify_weak_cliques(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.seed_u.tolist() == [0] and out.seed_v.tolist() == [1]
        assert peak / n <= 90

    @pytest.mark.parametrize("pairs, n", [
        ([], 0),
        ([], 4),
        # isolated nodes 0, 3, 4, 7 and 9 sit between and around connected ones
        ([(1, 2), (2, 5), (1, 5), (5, 6), (6, 8)], 10),
        # a star: every Salton index is 0, so ties go to the smallest id
        ([(0, i) for i in range(1, 6)], 6),
        # disjoint K4s
        ([(b + u, b + v) for b in (0, 4, 8) for u in range(4) for v in range(u + 1, 4)], 12),
        # one edge and an isolated node: priorities 1/2, 1/2 and 0
        ([(0, 1)], 3),
        # K4: every priority is 2 and every Salton index 2/3
        ([(u, v) for u in range(4) for v in range(u + 1, 4)], 4),
    ], ids=["no_nodes", "isolated_only", "isolated_between", "star", "disjoint_k4s",
            "edge_and_isolated", "k4"])
    def test_edge_cases_match_reference(self, pairs, n):
        g = Graph.from_edges(pairs, n)
        got = [(r.seed_u, r.seed_v, tuple(r.members.tolist()))
               for r in identify_weak_cliques(g).cliques]
        assert got == weak_cliques_reference(graph_to_adj(g))

    def test_seed_uniqueness(self, rng):
        # each node starts a clique at most once; consumed nodes may still
        # recur as the similar partner v of a later start
        for trial in range(5):
            g = random_graph(rng, 25, 0.25)
            out = identify_weak_cliques(g)
            seeds = [r.seed_u for r in out.cliques]
            assert len(seeds) == len(set(seeds))
            # a node picked as v while still unconsumed never starts later
            consumed = set()
            for r in out.cliques:
                assert r.seed_u not in consumed
                consumed.add(r.seed_u)
                consumed.add(r.seed_v)

    def test_clique_definition_invariant(self, rng):
        for trial in range(5):
            g = random_graph(rng, 20, 0.3)
            out = identify_weak_cliques(g)
            for rec in out.cliques:
                nu = set(g.neighbors(rec.seed_u).tolist())
                nv = set(g.neighbors(rec.seed_v).tolist())
                expect = sorted({rec.seed_u, rec.seed_v} | (nu & nv))
                assert rec.members.tolist() == expect

    def test_matches_reference(self, rng):
        for trial in range(30):
            g = random_graph(rng, 18, float(rng.choice([0.1, 0.3, 0.5])))
            got = [(r.seed_u, r.seed_v, tuple(r.members.tolist()))
                   for r in identify_weak_cliques(g).cliques]
            assert got == weak_cliques_reference(graph_to_adj(g))

    def test_bit_identical_reruns(self, rng):
        g = random_graph(rng, 30, 0.2)
        a = [(r.seed_u, r.seed_v, tuple(r.members)) for r in identify_weak_cliques(g).cliques]
        b = [(r.seed_u, r.seed_v, tuple(r.members)) for r in identify_weak_cliques(g).cliques]
        assert a == b
