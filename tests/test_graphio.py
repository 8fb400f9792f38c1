import hashlib
import warnings

import numpy as np
import pytest

from wocd import (
    Cover,
    FormatError,
    Graph,
    SynthConfig,
    load_cover,
    load_edge_list,
    load_features,
    sample_labels,
    synth_graph,
    write_cover,
    write_edge_list,
    write_features,
)

from conftest import random_cover
from oracles import load_cover_loop, load_edge_list_loop


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestEdgeList:
    def test_basic(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.tsv", "0\t1\n1\t2\n"))
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert g.neighbors(1).tolist() == [0, 2]

    def test_dedup_and_self_loop(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.tsv", "0\t1\n1\t0\n1\t1\n"))
        assert g.n_nodes == 2
        assert g.n_edges == 1

    def test_header_only(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "e.tsv", "#nodes=4\n"))
        assert g.n_nodes == 4
        assert g.n_edges == 0

    def test_malformed_line(self, tmp_path):
        with pytest.raises(FormatError):
            load_edge_list(_write(tmp_path, "e.tsv", "0 1 2\n"))

    def test_negative_id(self, tmp_path):
        with pytest.raises(FormatError):
            load_edge_list(_write(tmp_path, "e.tsv", "-1\t2\n"))

    def test_id_beyond_declared(self, tmp_path):
        with pytest.raises(FormatError):
            load_edge_list(_write(tmp_path, "e.tsv", "#nodes=2\n1\t5\n"))

    @pytest.mark.parametrize("line", ["0\t99999999999999999999", "99999999999999999999\t1",
                                      "0\t9223372036854775808"],
                             ids=["second", "first", "max_plus_one"])
    def test_id_past_int64_names_its_line(self, tmp_path, line):
        with pytest.raises(FormatError, match=r"e\.tsv:3: node id out of int64 range$"):
            load_edge_list(_write(tmp_path, "e.tsv", f"#nodes=2\n0\t1\n{line}\n"))

    @pytest.mark.parametrize("n", [3037000500, 2**63])
    def test_node_count_past_int64_keys(self, n):
        # 3037000500**2 > 2**63 - 1: the edge keys src * N + dst would wrap
        with pytest.raises(ValueError, match="too many for int64 edge keys"):
            Graph.from_edges([(0, 1)], n)

    @pytest.mark.parametrize("pairs, dtype", [
        ([(0.5, 1.7)], "float64"),
        (np.array([[0.0, 2.0], [1.0, 2.0]]), "float64"),
        (np.array([[True, False]]), "bool"),
    ], ids=["float_list", "float_array", "bool_array"])
    def test_non_integer_ids_rejected(self, pairs, dtype):
        # converting to int64 would truncate 0.5 and 1.7 to the edge (0, 1)
        with pytest.raises(FormatError, match=f"^node ids must be integers, not {dtype}$"):
            Graph.from_edges(pairs, 3)

    @pytest.mark.parametrize("pairs", [[(0, 2**63)], [(0, 2**70)], [(0, -2**63 - 1)]],
                             ids=["max_plus_one", "far_past_max", "min_minus_one"])
    def test_list_id_past_int64(self, pairs):
        # NumPy makes such a list a float64 or object array, not an integer one
        with pytest.raises(FormatError, match="^node id out of int64 range$"):
            Graph.from_edges(pairs, 3)

    @pytest.mark.parametrize("pairs", [[], np.array([[1, 255]], dtype=np.uint8), iter([(1, 255)])],
                             ids=["empty", "uint8_array", "iterator"])
    def test_integer_ids_of_any_form(self, pairs):
        # 255 * 300 + 1 overflows uint8: the edge keys are built in int64
        g = Graph.from_edges(pairs, 300)
        assert g.indices.dtype == np.int64
        assert g.indices.tolist() == ([] if isinstance(pairs, list) else [255, 1])

    def test_round_trip(self, tmp_path, rng):
        pairs = [(u, v) for u in range(15) for v in range(u + 1, 15) if rng.random() < 0.3]
        g = Graph.from_edges(pairs, 15)
        path = tmp_path / "rt.tsv"
        write_edge_list(g, path)
        g2 = load_edge_list(path)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)

    def test_written_text(self, tmp_path):
        # node 4 has no edge; (2, 0) and (0, 2) are one edge
        g = Graph.from_edges([(3, 1), (2, 0), (0, 2), (3, 0)], 5)
        path = tmp_path / "e.tsv"
        write_edge_list(g, path)
        assert path.read_bytes() == b"#nodes=5\n0\t2\n0\t3\n1\t3\n"

    def test_symmetry_and_sortedness(self, rng):
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.2]
        g = Graph.from_edges(pairs + [(3, 3), (0, 1), (1, 0)], 20)
        for u in range(g.n_nodes):
            nu = g.neighbors(u)
            assert np.all(np.diff(nu) > 0)
            assert u not in nu
            for v in nu:
                assert u in g.neighbors(int(v))
        assert g.indices.size == 2 * g.n_edges


class TestCover:
    def test_basic(self, tmp_path):
        c = load_cover(_write(tmp_path, "c.txt", "#communities=4\n0: 1 3\n"))
        assert c.n_communities == 4
        assert c.communities_of(0).tolist() == [1, 3]

    def test_empty_membership(self, tmp_path):
        c = load_cover(_write(tmp_path, "c.txt", "#communities=2\n2:\n0: 1\n"))
        assert c.communities_of(2).size == 0
        assert c.n_nodes == 3

    def test_duplicate_node_line(self, tmp_path):
        with pytest.raises(FormatError):
            load_cover(_write(tmp_path, "c.txt", "0: 1\n0: 2\n"))

    def test_community_beyond_declared(self, tmp_path):
        with pytest.raises(FormatError):
            load_cover(_write(tmp_path, "c.txt", "#communities=2\n0: 5\n"))

    @pytest.mark.parametrize("line", ["1: 99999999999999999999", "99999999999999999999: 1",
                                      "1: 0 9223372036854775808"],
                             ids=["community", "node", "max_plus_one"])
    def test_id_past_int64_names_its_line(self, tmp_path, line):
        with pytest.raises(FormatError, match=r"c\.txt:3: id out of int64 range$"):
            load_cover(_write(tmp_path, "c.txt", f"#communities=2\n0: 1\n{line}\n"))

    @pytest.mark.parametrize("memberships, text", [
        (np.zeros((0, 3)), "#nodes=0\n#communities=3\n"),
        (np.zeros((2, 0)), "#nodes=2\n#communities=0\n0:\n1:\n"),
        ([[0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0], [0, 0, 0]],
         "#nodes=5\n#communities=3\n0:\n1: 0 2\n2:\n3: 1\n4:\n"),
    ], ids=["no_nodes", "no_communities", "empty_rows"])
    def test_written_text(self, tmp_path, memberships, text):
        path = tmp_path / "c.txt"
        write_cover(Cover(memberships=np.asarray(memberships, dtype=np.uint8)), path)
        assert path.read_bytes() == text.encode()

    def test_round_trip(self, tmp_path, rng):
        c = random_cover(rng, 12, 5)
        path = tmp_path / "c.txt"
        write_cover(c, path)
        c2 = load_cover(path)
        assert np.array_equal(c.memberships, c2.memberships)


def _raises_like_loop(load, load_loop, path):
    with pytest.raises(FormatError) as want:
        load_loop(path)
    with pytest.raises(FormatError) as got:
        load(path)
    assert str(got.value) == str(want.value)


def _loads_like_loop(load, load_loop, path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. np.loadtxt's "input contained no data"
        got = load(path)
    want = load_loop(path)
    for name in ("indptr", "indices", "memberships"):
        if hasattr(want, name):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    return got


class TestEdgeListMatchesLoop:
    """The vectorised parser against the line-by-line one it replaced."""

    @pytest.mark.parametrize("text", [
        "", "\n\n", "#nodes=4\n", "#nodes=4", "# comment only\n",
        "0\t1\n1\t2\n", "0 1\n1     2\n", "0\t1", "  0\t1  \n\t2 3\t\n",
        "0\t1\r\n1\t2\r\n", "0\t1\r1\t2\r",
        "#nodes=9\n0\t1\n# mid-file comment\n  # indented #comment\n2\t3\n",
        "0\t1\n\n   \n2\t3\n\n",
        "#nodes=9\n0\t1\n#nodes=5\n",  # the last #nodes= wins
        "#communities=x\n0\t1\n",  # not a header of edge lists
        "0\t0\n1\t1\n#nodes=3\n", "+1\t2\n-0\t2\n007\t3\n",
        "0\xa01\n", "#nodes=2\n",
        "#nodes=+3\n0\t1\n", "# nodes=3\n0\t1\n", "#nodes\n0\t1\n", "#nodes3\n0\t1\n",
    ])
    def test_accepts(self, tmp_path, text):
        _loads_like_loop(load_edge_list, load_edge_list_loop, _write(tmp_path, "e.tsv", text))

    @pytest.mark.parametrize("text", [
        "0\n", "0\t1\n2\n", "0 1 2\n", "0\t1\n2\t3\t4\n5\t6\n",
        "1.5\t2\n", "0\t1\nx\t2\n", "0\t1e3\n", "0\t1#c\n", "0\t1 # c\n",
        "-1\t2\n", "0\t1\n3\t-2\n", "#nodes=2\n1\t5\n", "0\t5\n#nodes=3\n",
        "#nodes=x\n0\t1\n", "0\t1\n#nodes=\n", "0\tx\n#nodes=x\n",
        "#nodes=x\n0\tx\n", "0\t1\r\n2\r\n", "0\t1\n  3  \n",
        "#nodes=-1\n", "#nodes=3\n0\t1\n#nodes=-2\n",
        "#nodes==3\n0\t1\n", "#nodes=3=4\n0\t1\n",
    ])
    def test_rejects_with_same_message(self, tmp_path, text):
        _raises_like_loop(load_edge_list, load_edge_list_loop,
                          _write(tmp_path, "e.tsv", text))

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_ids_are_ascii_decimal(self, tmp_path, token):
        # narrower than Python's int(), which the line-by-line parser used
        path = _write(tmp_path, "e.tsv", f"0\t1\n{token}\t2\n")
        with pytest.raises(FormatError, match=r"e\.tsv:2: non-integer node id"):
            load_edge_list(path)

    def test_synth_file(self, tmp_path):
        g, _, _ = synth_graph(SynthConfig(n_nodes=300, n_communities=3, seed=4))
        path = tmp_path / "e.tsv"
        write_edge_list(g, path)
        got = _loads_like_loop(load_edge_list, load_edge_list_loop, path)
        assert np.array_equal(got.indices, g.indices)


class TestCoverMatchesLoop:
    """The vectorised parser against the line-by-line one it replaced."""

    @pytest.mark.parametrize("text", [
        "", "\n", "#nodes=3\n", "#nodes=3\n#communities=2", "#communities=2\n",
        "0: 1 3\n", "0:1 3\n2 :\n1:\t0\n", "0: 1\n3:\n",
        "#communities=4\n0: 1\r\n1: 2 3\r\n", "0: 1\r1: 0\r",
        "  0: 1   3  \n\n   \n1: 2\n",
        "0: 1\n# mid-file\n  #indented\n1: 0\n",
        "#nodes=2\n#communities=9\n0: 1\n#nodes=5\n#communities=3\n",
        "0: 1 1 2\n", "+1: +2\n-0: 0\n",
        "#nodes=+3\n0: 1\n", "# nodes=3\n0: 1\n", "#communities\n0: 1\n",
        "#nodes=2\n#communities=+4\n#community=1\n0: 3\n",
    ])
    def test_accepts(self, tmp_path, text):
        _loads_like_loop(load_cover, load_cover_loop, _write(tmp_path, "c.txt", text))

    @pytest.mark.parametrize("text", [
        "0 1\n", "0: 1\n2\n", "1.5: 2\n", "x: 1\n", "0: 1\n1: x\n", "0: 1.5\n",
        ": 1\n", "1 2: 3\n", "0: 1#c\n", "-1: 2\n", "0: 1\n1: 0 -2\n",
        "0: 1\n0: 2\n", "0: 1\n1: 0\n0:\n", "#communities=2\n0: 5\n",
        "#nodes=2\n3: 1\n", "0: 1\n#communities=1\n", "#communities=a\n0: 1\n",
        "0: x\n#nodes=y\n", "#nodes=y\n0: x\n", "0: 1\r\n2 3\r\n",
        "#nodes=-1\n", "#communities=-1\n", "#communities=-2\n", "0: 1\n#nodes=-3\n",
        "#nodes==3\n0: 1\n", "#nodes=3=4\n0: 1\n", "0: 1\n#communities==2\n",
    ])
    def test_rejects_with_same_message(self, tmp_path, text):
        _raises_like_loop(load_cover, load_cover_loop, _write(tmp_path, "c.txt", text))

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_ids_are_ascii_decimal(self, tmp_path, token):
        # narrower than Python's int(), which the line-by-line parser used
        path = _write(tmp_path, "c.txt", f"0: 1\n1: {token}\n")
        with pytest.raises(FormatError, match=r"c\.txt:2: non-integer id"):
            load_cover(path)

    def test_written_cover(self, tmp_path, rng):
        c = random_cover(rng, 200, 30, p=0.05)
        path = tmp_path / "c.txt"
        write_cover(c, path)
        _loads_like_loop(load_cover, load_cover_loop, path)


class TestFeatures:
    def test_round_trip(self, tmp_path, rng):
        x = rng.normal(size=(6, 4))
        path = tmp_path / "x.csv"
        write_features(x, path)
        x2 = load_features(path)
        assert x2.dtype == np.float64
        np.testing.assert_allclose(x2, x, rtol=1e-9)

    def test_header_comment_blank_and_crlf(self, tmp_path, rng):
        path = tmp_path / "x.csv"
        write_features(rng.normal(size=(6, 4)), path)
        rows = path.read_text().splitlines()
        text = "\r\n".join(["a,b,c,d", "# a comment", *rows[:3], "", *rows[3:]]) + "\r\n"
        (tmp_path / "h.csv").write_bytes(text.encode())
        got = load_features(tmp_path / "h.csv", header=True)
        assert got.tobytes() == load_features(path).tobytes()

    def test_non_finite_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0,nan\n0.0,2.0\n")
        with pytest.raises(FormatError):
            load_features(tmp_path / "x.csv")

    @pytest.mark.parametrize("text, header, where", [
        ("h\n# c\n\n1,2\n3,x\n", True, r"x\.csv:5: "),  # header, comment and blank lines count
        ("1,2\n3\n", False, r"x\.csv:2: "),
        ("1,2\n3,inf\n", False, r"x\.csv:2: "),
    ])
    def test_error_names_its_line(self, tmp_path, text, header, where):
        (tmp_path / "x.csv").write_text(text)
        with pytest.raises(FormatError, match=where):
            load_features(tmp_path / "x.csv", header=header)

    def test_whitespace_line_skipped(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n   \n3,4\n")
        (tmp_path / "y.csv").write_text("1,2\n3,4\n")
        got, want = load_features(tmp_path / "x.csv"), load_features(tmp_path / "y.csv")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSynth:
    def test_seed_determinism(self):
        cfg = SynthConfig(n_nodes=60, n_communities=3, seed=9)
        g1, x1, c1 = synth_graph(cfg)
        g2, x2, c2 = synth_graph(cfg)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(x1, x2)
        assert np.array_equal(c1.memberships, c2.memberships)

    def test_disjoint_cliques(self):
        cfg = SynthConfig(n_nodes=20, n_communities=4, overlap_fraction=0.0,
                          p_in=1.0, p_out=0.0, seed=1)
        g, _, c = synth_graph(cfg)
        # each community of 5 nodes becomes a K5; no cross edges
        assert g.n_edges == 4 * 10
        for u in range(20):
            cu = c.communities_of(u)
            assert cu.size == 1
            for v in g.neighbors(u):
                assert c.communities_of(int(v)).tolist() == cu.tolist()

    def test_membership_counts(self):
        cfg = SynthConfig(n_nodes=100, n_communities=4, overlap_fraction=0.15, seed=3)
        _, _, c = synth_graph(cfg)
        per_node = c.memberships.sum(axis=1)
        assert per_node.min() >= 1
        assert int((per_node == 2).sum()) == round(0.15 * 100)

    def test_intra_density(self):
        # empirical intra-community edge density close to p_in over 5 seeds
        cfg0 = SynthConfig(n_nodes=500, n_communities=4, overlap_fraction=0.15,
                           p_in=0.08, p_out=0.002)
        edges = 0
        pairs = 0
        for seed in range(5):
            cfg = SynthConfig(**{**cfg0.__dict__, "seed": seed})
            g, _, c = synth_graph(cfg)
            m = c.memberships.astype(np.int64)
            share = (m @ m.T) > 0
            iu, ju = np.triu_indices(500, k=1)
            mask = share[iu, ju]
            pairs += int(mask.sum())
            edges += int(g.adjacency().toarray()[iu, ju][mask].sum())
        density = edges / pairs
        assert abs(density - 0.08) <= 0.2 * 0.08

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(n_nodes=10, n_communities=2, p_in=0.1, p_out=0.2)
        with pytest.raises(ValueError):
            SynthConfig(n_nodes=10, n_communities=2, seed=-1)
        for bad in (dict(feature_signal=float("nan")), dict(feature_noise=float("inf")),
                    dict(p_in=float("nan"))):
            with pytest.raises(ValueError):
                SynthConfig(n_nodes=10, n_communities=2, **bad)
        for bad in (dict(n_nodes=40.0), dict(seed=1.5), dict(overlap_edges=1),
                    dict(p_in="0.1")):
            with pytest.raises(TypeError):
                SynthConfig(**{"n_nodes": 10, "n_communities": 2, **bad})

    @pytest.mark.parametrize("kwargs, n_edges, digest", [
        (dict(n_nodes=60, n_communities=3, seed=7), 58,
         "8c92de4afab5c5554e87c4075ddc6124d6f0777fb815346514b70986a1aca5a9"),
        (dict(n_nodes=500, n_communities=5, overlap_fraction=0.4, p_in=0.1, p_out=0.01,
              dims_per_community=3, seed=3), 5521,
         "8d2b71452157d45e34c7556a6c8206e3cf29a02df8d3f00816dce9a70549945f"),
        # several row blocks of the uniform draw
        (dict(n_nodes=1500, n_communities=6, overlap_fraction=0.2, dims_per_community=2,
              seed=11), 22896,
         "875d2f92b167b258debfd17894aca4f4fc5efae816a80a2896625271fa8c9042"),
        (dict(n_nodes=2100, n_communities=2, overlap_fraction=1.0, p_in=0.05,
              dims_per_community=1, seed=5), 110091,
         "dc1e3ea27718483561b49cf0cbdd41b39323f2d4bd89be0bd7dc6b259a50646c"),
        # K not dividing N, K > N (empty primary communities) and
        # primary-only edge probabilities, as the per-community loops made them
        (dict(n_nodes=103, n_communities=7, overlap_fraction=0.3, dims_per_community=2,
              seed=2), 106,
         "54c773af2b0d5f7bf1b516d27783468f12e81e8a0cc9d415283b024ca776a14d"),
        (dict(n_nodes=7, n_communities=9, overlap_fraction=0.4, p_in=0.9, p_out=0.2,
              dims_per_community=2, seed=1), 6,
         "1b0363c116591c3041ba25c81749b53bf591ba133cf59630ad4c01aa4c50e7e2"),
        (dict(n_nodes=301, n_communities=4, overlap_fraction=0.5, overlap_edges=False,
              seed=3), 1043,
         "98971e7f2155e3d8f884d43c5807c5989b688160d068a778f95f4eaee04c3bf4"),
    ], ids=["n60", "n500", "n1500_blocks", "n2100_all_overlap", "n_not_multiple_of_k",
            "k_above_n", "primary_edges_only"])
    def test_overlap_edges_outputs_pinned(self, kwargs, n_edges, digest):
        # sha256 of graph, features and cover as the int64 shared-community
        # product generated them; overlap_edges is True unless given
        g, x, c = synth_graph(SynthConfig(**kwargs))
        h = hashlib.sha256()
        for a in (g.indptr, g.indices, x, c.memberships):
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        assert g.n_edges == n_edges
        assert h.hexdigest() == digest

    def test_integer_feature_probabilities(self):
        # an int is a valid float field; it must not make the probabilities integral
        _, x_int, _ = synth_graph(SynthConfig(n_nodes=50, n_communities=3, feature_noise=0))
        _, x, _ = synth_graph(SynthConfig(n_nodes=50, n_communities=3, feature_noise=0.0))
        assert x_int.any()
        assert np.array_equal(x_int, x)



class TestSampleLabels:
    def test_disjoint_quota(self):
        m = np.zeros((100, 5), dtype=np.uint8)
        for k in range(5):
            m[20 * k:20 * (k + 1), k] = 1
        s = sample_labels(Cover(memberships=m), 0.1, seed=0)
        assert s.node_ids.size == 10  # q = ceil(10) / 5 communities = 2 each

    def test_rho_zero(self, rng):
        s = sample_labels(random_cover(rng, 10, 3), 0.0, seed=0)
        assert s.node_ids.size == 0
        assert s.node_ids.dtype == np.int64 and s.node_ids.shape == (0,)
        assert s.rows.dtype == np.uint8 and s.rows.shape == (0, 3)

    def test_no_communities(self):
        s = sample_labels(Cover(memberships=np.zeros((7, 0), dtype=np.uint8)), 0.3, seed=0)
        assert s.node_ids.size == 0
        assert s.node_ids.dtype == np.int64 and s.node_ids.shape == (0,)
        assert s.rows.dtype == np.uint8 and s.rows.shape == (0, 0)

    def test_determinism_and_subset(self, rng):
        c = random_cover(rng, 40, 4)
        s1 = sample_labels(c, 0.2, seed=5)
        s2 = sample_labels(c, 0.2, seed=5)
        assert np.array_equal(s1.node_ids, s2.node_ids)
        assert np.array_equal(s1.rows, s2.rows)
        members = set()
        for k in range(4):
            members.update(c.members(k).tolist())
        assert set(s1.node_ids.tolist()) <= members

    def test_overlap_dedup(self):
        # 6 nodes, 2 communities; node 0 in both can be quota-picked twice
        m = np.zeros((6, 2), dtype=np.uint8)
        m[[0, 1, 2], 0] = 1
        m[[0, 4, 5], 1] = 1
        c = Cover(memberships=m)
        q = 3  # ceil(1.0 * 6 / 2)
        for seed in range(10):
            s = sample_labels(c, 1.0, seed=seed)
            assert len(set(s.node_ids.tolist())) == s.node_ids.size
            assert s.node_ids.size <= 2 * q
            assert np.array_equal(s.rows, c.memberships[s.node_ids])

    def test_rows_are_ground_truth(self, rng):
        c = random_cover(rng, 30, 3)
        s = sample_labels(c, 0.3, seed=2)
        assert np.array_equal(s.rows, c.memberships[s.node_ids])
