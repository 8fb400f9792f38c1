import numpy as np
import pytest
import scipy.sparse as sp

from wocd import (
    CliqueSet,
    Cover,
    PseudoConfig,
    SampledLabels,
    construct_pseudo_labels,
    pseudo_coverage,
    refresh_pseudo_labels,
)

from conftest import random_cover, random_sampled
from oracles import pseudo_labels_reference


def make_cliques(member_lists, n_nodes):
    """CliqueSet of the given member lists, each seeded at its two smallest ids."""
    lists = [sorted(members) for members in member_lists]
    flat = np.array([v for members in lists for v in members], dtype=np.int64)
    incidence = sp.csr_array(
        (np.ones(flat.size, dtype=np.int32), flat, np.cumsum([0] + [len(m) for m in lists])),
        shape=(len(lists), n_nodes),
    )
    return CliqueSet(seed_u=np.array([m[0] for m in lists], dtype=np.int64),
                     seed_v=np.array([m[1] for m in lists], dtype=np.int64),
                     incidence=incidence)


def sampled_from(rows_by_node, k):
    ids = np.array(sorted(rows_by_node), dtype=np.int64)
    rows = np.zeros((ids.size, k), dtype=np.uint8)
    for i, node in enumerate(ids):
        rows[i, rows_by_node[node]] = 1
    return SampledLabels(node_ids=ids, rows=rows)


class TestConstructPseudoLabels:
    def test_single_retained_community(self):
        # votes: community 1 gets 2, community 3 gets 1 -> r_c=1 keeps {1}
        cliques = make_cliques([[0, 1, 2, 3]], 4)
        sampled = sampled_from({0: [1], 1: [1, 3]}, k=4)
        cover = construct_pseudo_labels(cliques, sampled, 4, 4, r_c=1)
        for v in range(4):
            assert cover.communities_of(v).tolist() == [1]

    def test_two_retained_communities(self):
        cliques = make_cliques([[0, 1, 2, 3]], 4)
        sampled = sampled_from({0: [1], 1: [1, 3]}, k=4)
        cover = construct_pseudo_labels(cliques, sampled, 4, 4, r_c=2)
        for v in range(4):
            assert cover.communities_of(v).tolist() == [1, 3]

    def test_no_sampled_members(self):
        cliques = make_cliques([[0, 1, 2]], 6)
        sampled = sampled_from({5: [0]}, k=2)
        cover = construct_pseudo_labels(cliques, sampled, 6, 2, r_c=1)
        assert not cover.memberships[:5].any()

    def test_zero_vote_never_emitted(self):
        # one vote only; r_c=3 must not pad with zero-vote communities
        cliques = make_cliques([[0, 1]], 2)
        sampled = sampled_from({0: [2]}, k=4)
        cover = construct_pseudo_labels(cliques, sampled, 2, 4, r_c=3)
        assert cover.communities_of(0).tolist() == [2]
        assert cover.communities_of(1).tolist() == [2]

    def test_tie_breaks_to_smaller_id(self):
        cliques = make_cliques([[0, 1]], 2)
        sampled = sampled_from({0: [3], 1: [1]}, k=4)  # both communities get 1 vote
        cover = construct_pseudo_labels(cliques, sampled, 2, 4, r_c=1)
        assert cover.communities_of(0).tolist() == [1]

    def test_order_invariance(self, rng):
        cover = random_cover(rng, 12, 3)
        sampled = random_sampled(rng, cover, 4)
        lists = [sorted(rng.choice(12, size=3, replace=False).tolist()) for _ in range(6)]
        a = construct_pseudo_labels(make_cliques(lists, 12), sampled, 12, 3, r_c=2)
        b = construct_pseudo_labels(make_cliques(lists[::-1], 12), sampled, 12, 3, r_c=2)
        assert np.array_equal(a.memberships, b.memberships)

    def test_matches_reference(self, rng):
        for trial in range(30):
            n, k = 15, int(rng.integers(2, 5))
            cover = random_cover(rng, n, k)
            sampled = random_sampled(rng, cover, int(rng.integers(1, 6)))
            lists = [sorted(rng.choice(n, size=int(rng.integers(2, 6)),
                                       replace=False).tolist())
                     for _ in range(int(rng.integers(1, 8)))]
            rc = int(rng.integers(1, 4))
            got = construct_pseudo_labels(make_cliques(lists, n), sampled, n, k, rc)
            want = pseudo_labels_reference(lists, sampled.node_ids, sampled.rows, n, k, rc)
            assert got.memberships.tolist() == want

    def test_incidence_width_mismatch_rejected(self):
        cliques = make_cliques([[0, 1, 2]], 4)
        sampled = sampled_from({0: [1]}, k=2)
        with pytest.raises(ValueError):
            construct_pseudo_labels(cliques, sampled, 5, 2, r_c=1)

    def test_labeled_nodes_touch_sampled_clique(self, rng):
        cover = random_cover(rng, 20, 3)
        sampled = random_sampled(rng, cover, 5)
        lists = [sorted(rng.choice(20, size=4, replace=False).tolist()) for _ in range(8)]
        pseudo = construct_pseudo_labels(make_cliques(lists, 20), sampled, 20, 3, r_c=1)
        sampled_set = set(sampled.node_ids.tolist())
        for v in range(20):
            if pseudo.memberships[v].any():
                assert any(v in m and (set(m) & sampled_set) for m in lists)


class TestRefreshPseudoLabels:
    def test_threshold_rule(self):
        pred = np.array([[0.95, 0.2, 0.91]])
        empty = SampledLabels(node_ids=np.empty(0, dtype=np.int64),
                              rows=np.empty((0, 3), dtype=np.uint8))
        cover = refresh_pseudo_labels(pred, empty, tau=0.9)
        assert cover.communities_of(0).tolist() == [0, 2]

    def test_all_below_threshold(self):
        pred = np.array([[0.5, 0.5, 0.5]])
        empty = SampledLabels(node_ids=np.empty(0, dtype=np.int64),
                              rows=np.empty((0, 3), dtype=np.uint8))
        cover = refresh_pseudo_labels(pred, empty, tau=0.9)
        assert not cover.memberships.any()

    def test_sampled_excluded(self):
        pred = np.array([[1.0, 1.0], [0.95, 0.1]])
        sampled = SampledLabels(node_ids=np.array([0]),
                                rows=np.array([[1, 1]], dtype=np.uint8))
        cover = refresh_pseudo_labels(pred, sampled, tau=0.9)
        assert not cover.memberships[0].any()
        assert cover.communities_of(1).tolist() == [0]

    def test_out_of_range_rejected(self):
        empty = SampledLabels(node_ids=np.empty(0, dtype=np.int64),
                              rows=np.empty((0, 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            refresh_pseudo_labels(np.array([[1.2]]), empty, tau=0.9)

    def test_saturated_predictor_matches_binarization(self, rng):
        pred = (rng.random((10, 3)) < 0.5).astype(np.float64)
        sampled = SampledLabels(node_ids=np.array([1, 4]),
                                rows=np.zeros((2, 3), dtype=np.uint8))
        cover = refresh_pseudo_labels(pred, sampled, tau=1 - 1e-9)
        want = pred.astype(np.uint8)
        want[[1, 4]] = 0
        assert np.array_equal(cover.memberships, want)


class TestPseudoCoverage:
    def test_all_zero(self):
        empty = SampledLabels(node_ids=np.empty(0, dtype=np.int64),
                              rows=np.empty((0, 2), dtype=np.uint8))
        assert pseudo_coverage(Cover(memberships=np.zeros((5, 2), dtype=np.uint8)), empty) == 0

    def test_counts_clique_example(self):
        sampled = sampled_from({4: [1]}, k=4)
        # give the clique a vote through node 4 by including it
        cliques = make_cliques([[0, 1, 2, 3, 4]], 5)
        cover = construct_pseudo_labels(cliques, sampled, 5, 4, r_c=1)
        assert pseudo_coverage(cover, sampled) == 4

    def test_only_sampled_labeled(self):
        m = np.zeros((4, 2), dtype=np.uint8)
        m[1, 0] = 1
        sampled = SampledLabels(node_ids=np.array([1]),
                                rows=np.array([[1, 0]], dtype=np.uint8))
        assert pseudo_coverage(Cover(memberships=m), sampled) == 0


class TestPseudoConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PseudoConfig(r_c=0)
        with pytest.raises(ValueError):
            PseudoConfig(tau=1.0)
