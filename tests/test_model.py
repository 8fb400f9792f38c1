import tracemalloc
import warnings

import numpy as np
import pytest

import wocd.model
import wocd.parallel

from wocd import (
    AdamState,
    Cover,
    DegenerateProjectionError,
    FusionParams,
    Graph,
    ModelParams,
    SampledLabels,
    adam_step,
    gcn_forward,
    gcn_norm,
    gt_forward,
    init_params,
    loss,
    loss_and_gradients,
    predict,
)

from wocd.model import CLAMP_EPS, RowBlockedCSR, _bce_term, _sigmoid, dense_blocks, param_layout
from wocd.parallel import row_blocks

from conftest import random_cover, random_graph, random_sampled
from oracles import (
    finite_difference_grads,
    gcn_dense_reference,
    _sigmoid_reference,
    gt_quadratic_reference,
    loss_and_gradients_reference,
    predict_reference,
)
from test_parallel import _graphs


def dense_adjacency(graph):
    a = np.zeros((graph.n_nodes, graph.n_nodes))
    for u in range(graph.n_nodes):
        a[u, graph.neighbors(u)] = 1.0
    return a


def _gcn_norm_from_coo(graph):
    """P built from the COO triplets of A and then I, which SciPy sorts into CSR."""
    n = graph.n_nodes
    inv_sqrt = 1.0 / np.sqrt(graph.degrees().astype(np.float64) + 1.0)
    rows = np.concatenate([np.repeat(np.arange(n), graph.degrees()), np.arange(n)])
    cols = np.concatenate([graph.indices, np.arange(n)])
    return RowBlockedCSR((inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)), shape=(n, n))


class TestGcnNorm:
    @pytest.mark.parametrize("name", [*_graphs(), "epoch_buffers"])
    def test_equals_coo_construction_byte_for_byte(self, name):
        if name == "epoch_buffers":  # the graph of TestEpochBuffers._instance
            graph = Graph.from_edges(np.random.default_rng(21).integers(0, 2000, (16000, 2)), 2000)
        else:
            graph = _graphs()[name]
        got, want = gcn_norm(graph), _gcn_norm_from_coo(graph)
        assert type(got) is RowBlockedCSR and got.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        assert got.has_canonical_format and want.has_canonical_format

    def test_isolated_node(self):
        p = gcn_norm(Graph.from_edges([], 1)).toarray()
        np.testing.assert_allclose(p, [[1.0]])

    def test_single_edge(self):
        p = gcn_norm(Graph.from_edges([(0, 1)], 2)).toarray()
        np.testing.assert_allclose(p, 0.5 * np.ones((2, 2)))

    def test_path_entry(self):
        p = gcn_norm(Graph.from_edges([(0, 1), (1, 2)], 3)).toarray()
        assert p[0, 1] == pytest.approx(1.0 / np.sqrt(2 * 3))

    def test_symmetry(self, rng):
        p = gcn_norm(random_graph(rng, 20, 0.3)).toarray()
        assert np.max(np.abs(p - p.T)) == 0.0


class TestGcnForward:
    def test_zero_weights(self, rng):
        g = random_graph(rng, 8, 0.4)
        params = init_params(5, 6, 3, seed=0)
        for w in params.gcn_w:
            w[:] = 0.0
        p = gcn_norm(g)
        out = gcn_forward(params, p, p @ rng.normal(size=(8, 5)))
        assert np.all(out == 0.0)

    def test_matches_dense_reference(self, rng):
        g = random_graph(rng, 12, 0.3)
        x = rng.normal(size=(12, 5))
        params = init_params(5, 7, 3, seed=1)
        p = gcn_norm(g)
        got = gcn_forward(params, p, p @ x)
        want = gcn_dense_reference(dense_adjacency(g), x, params.gcn_w, params.gcn_b)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_activations(self, rng):
        # the GCN branch overflows while the attention branch stays finite, so
        # the GCN's own check is the one that reports it
        g = random_graph(rng, 12, 0.4)
        x = rng.normal(size=(12, 5))
        params = init_params(5, 6, 3, seed=3)
        params.gcn_w1[:] = 1e200
        params.gcn_w2[:] = 1e200
        p = gcn_norm(g)
        assert np.all(np.isfinite(gt_forward(params, x, 0.1)))
        with pytest.raises(FloatingPointError, match="non-finite GCN activations"):
            predict(params, FusionParams(), p, x, p @ x)

    def test_activate_final_flag(self, rng):
        g = random_graph(rng, 10, 0.4)
        x = rng.normal(size=(10, 4))
        params = init_params(4, 6, 2, seed=2, activate_final=True)
        p = gcn_norm(g)
        got = gcn_forward(params, p, p @ x)
        assert got.min() >= 0.0
        want = gcn_dense_reference(dense_adjacency(g), x, params.gcn_w,
                                   params.gcn_b, activate_final=True)
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestGtForward:
    def test_gamma_zero_is_projection(self, rng):
        x = rng.normal(size=(6, 4))
        params = init_params(4, 5, 2, seed=3)
        out = gt_forward(params, x, gamma=0.0)
        np.testing.assert_allclose(out, x @ params.input_proj_w + params.input_proj_b)

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_matches_quadratic_reference(self, rng, n, gamma):
        x = rng.normal(size=(n, 6))
        params = init_params(6, 8, 3, seed=n)
        got = gt_forward(params, x, gamma)
        want = gt_quadratic_reference(x, params, gamma)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_single_node_closed_form(self, rng):
        x = rng.normal(size=(1, 3))
        params = init_params(3, 4, 2, seed=7)
        z0 = x @ params.input_proj_w + params.input_proj_b
        q = z0 @ params.gt_q_w + params.gt_q_b
        k = z0 @ params.gt_k_w + params.gt_k_b
        v = z0 @ params.gt_v_w + params.gt_v_b
        qt = q / np.linalg.norm(q)
        kt = k / np.linalg.norm(k)
        dot = (qt @ kt.T).item()
        want = 0.5 * (v + dot * v) / (1.0 + dot) + 0.5 * z0
        np.testing.assert_allclose(gt_forward(params, x, 0.5), want, atol=1e-12)

    def test_degenerate_projection(self, rng):
        params = init_params(3, 4, 2, seed=7)
        params.gt_q_w[:] = 0.0
        with pytest.raises(DegenerateProjectionError):
            gt_forward(params, rng.normal(size=(4, 3)), 0.5)

    @pytest.mark.filterwarnings("error")  # 0 / 0 is reported, not warned about
    def test_vanishing_normalizer(self):
        # one node whose Q~ is -K~ (h = 1): both 1 + Q~ K~^T 1 / N and U are 0
        params = init_params(2, 1, 1, seed=0)
        params.gt_q_w[:] = -params.gt_k_w
        with pytest.raises(DegenerateProjectionError, match="normalizer"):
            gt_forward(params, np.array([[0.0, 1.0]]), 0.5)

    @pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
    def test_non_finite_projection(self, rng):
        # every entry of Q is finite, but the sum of their squares overflows
        params = init_params(3, 4, 2, seed=7)
        with pytest.raises(DegenerateProjectionError, match="non-finite"):
            gt_forward(params, 1e200 * rng.normal(size=(4, 3)), 0.5)


class TestPredict:
    def test_zero_head(self, rng):
        g = random_graph(rng, 7, 0.4)
        params = init_params(4, 5, 3, seed=0)
        params.head_w[:] = 0.0
        p, x = gcn_norm(g), rng.normal(size=(7, 4))
        out = predict(params, FusionParams(), p, x, p @ x)
        np.testing.assert_allclose(out, 0.5)

    def test_beta_zero_ignores_gt(self, rng):
        g = random_graph(rng, 9, 0.4)
        x = rng.normal(size=(9, 4))
        params = init_params(4, 5, 3, seed=1)
        p = gcn_norm(g)
        base = predict(params, FusionParams(1.0, 0.0, 0.5), p, x, p @ x)
        params.gt_v_w[:] = rng.normal(size=params.gt_v_w.shape)
        again = predict(params, FusionParams(1.0, 0.0, 0.5), p, x, p @ x)
        np.testing.assert_allclose(base, again)

    def test_matches_composed_oracles(self, rng):
        g = random_graph(rng, 10, 0.35)
        x = rng.normal(size=(10, 5))
        params = init_params(5, 6, 3, seed=4)
        fusion = FusionParams(0.7, 0.4, 0.3)
        p = gcn_norm(g)
        got = predict(params, fusion, p, x, p @ x)
        z_gcn = gcn_dense_reference(dense_adjacency(g), x, params.gcn_w, params.gcn_b)
        z_gt = gt_quadratic_reference(x, params, fusion.gamma)
        logits = (fusion.alpha * z_gcn + fusion.beta * z_gt) @ params.head_w + params.head_b
        want = 1.0 / (1.0 + np.exp(-logits))
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_sigmoid_matches_masked_reference(self, rng):
        # one exp(-|x|) for both signs gives the bytes of the two masked branches
        special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf])
        for x in (special, rng.normal(size=(50, 4)) * 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _sigmoid(x).tobytes() == _sigmoid_reference(x).tobytes()

    def test_permutation_equivariance(self, rng):
        n = 9
        g = random_graph(rng, n, 0.4)
        x = rng.normal(size=(n, 4))
        params = init_params(4, 5, 2, seed=5)
        fusion = FusionParams()
        p = gcn_norm(g)
        base = predict(params, fusion, p, x, p @ x)
        perm = rng.permutation(n)
        pairs = [(int(perm[u]), int(perm[v])) for u in range(n) for v in g.neighbors(u)]
        g2 = Graph.from_edges(pairs, n)
        p2, x2 = gcn_norm(g2), x[np.argsort(perm)]
        out = predict(params, fusion, p2, x2, p2 @ x2)
        np.testing.assert_allclose(out[perm], base, atol=1e-10)


class TestLoss:
    def test_single_entry(self):
        sampled = SampledLabels(node_ids=np.array([0]),
                                rows=np.array([[1]], dtype=np.uint8))
        no_pseudo = Cover(memberships=np.zeros((1, 1), dtype=np.uint8))
        value, _ = loss(np.array([[0.5]]), sampled, no_pseudo, 1.0, 0.0)
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamp_bounds_get_no_gradient(self):
        # p clipped to [CLAMP_EPS, 1 - CLAMP_EPS] passes no gradient, at the
        # bounds themselves too
        p = np.array([[CLAMP_EPS, 1.0 - CLAMP_EPS, 0.5]])
        for y in (0, 1):
            _, grad = _bce_term(p, np.full(p.shape, y, dtype=np.uint8))
            assert grad[0, :2].tolist() == [0.0, 0.0]
            assert grad[0, 2] != 0.0

    def test_perfect_prediction(self, rng):
        cover = random_cover(rng, 8, 3)
        sampled = random_sampled(rng, cover, 5)
        pred = cover.memberships.astype(np.float64)
        value, _ = loss(pred, sampled, cover, 1.0, 1.0)
        assert value <= 3 * 1e-7 * abs(np.log(1e-7)) * 2

    def test_lambda_linearity(self, rng):
        cover = random_cover(rng, 10, 3)
        sampled = random_sampled(rng, cover, 4)
        pred = rng.random((10, 3)) * 0.9 + 0.05
        no_pseudo = Cover(memberships=np.zeros((10, 3), dtype=np.uint8))
        v1, _ = loss(pred, sampled, no_pseudo, 1.0, 0.0)
        v2, _ = loss(pred, sampled, no_pseudo, 2.0, 0.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_empty_pseudo_contributes_zero(self, rng):
        cover = random_cover(rng, 10, 3)
        sampled = random_sampled(rng, cover, 4)
        pred = rng.random((10, 3)) * 0.9 + 0.05
        zero = Cover(memberships=np.zeros((10, 3), dtype=np.uint8))
        assert loss(pred, sampled, zero, 1.0, 5.0)[0] == loss(pred, sampled, zero, 1.0, 0.0)[0]

    def test_lambda2_zero_adds_exact_zeros(self, rng):
        cover = random_cover(rng, 10, 3)
        sampled = random_sampled(rng, cover, 4)
        pred = rng.random((10, 3)) * 0.9 + 0.05
        value, grad = loss(pred, sampled, random_cover(rng, 10, 3), 1.0, 0.0)
        no_pseudo = Cover(memberships=np.zeros((10, 3), dtype=np.uint8))
        want_value, want_grad = loss(pred, sampled, no_pseudo, 1.0, 0.0)
        assert value == want_value and grad.tobytes() == want_grad.tobytes()

    def test_lambda2_ignores_sampled_rows(self, rng):
        # pseudo labels on sampled nodes must not enter the second term
        cover = random_cover(rng, 10, 3)
        sampled = random_sampled(rng, cover, 4)
        pred = rng.random((10, 3)) * 0.9 + 0.05
        pseudo = random_cover(rng, 10, 3)
        m2 = pseudo.memberships.copy()
        m2[sampled.node_ids] = 1 - m2[sampled.node_ids]
        # flipped pseudo rows on sampled nodes may change which rows are
        # nonempty; force them nonempty in both
        m1 = pseudo.memberships.copy()
        m1[sampled.node_ids] = 1
        m2[sampled.node_ids] = 0
        m2[sampled.node_ids, 0] = 1
        a, _ = loss(pred, sampled, Cover(memberships=m1), 1.0, 1.0)
        b, _ = loss(pred, sampled, Cover(memberships=m2), 1.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestGradients:
    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k, h = 12, 7, 3, 8
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph.from_edges(pairs, n)
        x = rng.normal(size=(n, d))
        params = init_params(d, h, k, seed=seed + 100)
        cover = Cover(memberships=(rng.random((n, k)) < 0.4).astype(np.uint8))
        ids = np.sort(rng.choice(n, 4, replace=False))
        sampled = SampledLabels(node_ids=ids, rows=cover.memberships[ids].copy())
        pseudo = Cover(memberships=(rng.random((n, k)) < 0.4).astype(np.uint8))
        return g, x, params, sampled, pseudo

    def test_matches_finite_differences(self):
        g, x, params, sampled, pseudo = self._instance(0)
        fusion = FusionParams(0.6, 0.5, 0.4)
        p = gcn_norm(g)
        _, grads = loss_and_gradients(params, fusion, p, x, p @ x, sampled, pseudo, 1.2, 0.8)
        fd = finite_difference_grads(
            lambda: loss(predict(params, fusion, p, x, p @ x), sampled, pseudo, 1.2, 0.8)[0],
            params,
        )
        for name in fd:
            g_a = getattr(grads, name)
            denom = np.maximum(np.abs(fd[name]), 1e-6)
            rel = np.abs(g_a - fd[name]) / denom
            small = np.abs(g_a) < 1e-6
            assert np.all(rel[~small] <= 1e-4), name
            assert np.all(np.abs(g_a - fd[name])[small] <= 1e-8), name

    def test_zero_loss_stationary(self, rng):
        # labels equal to predictions at the head's zero point: y = 0.5 is not
        # representable, so use a saturated-but-matching construction instead:
        # lambda weights of zero must produce zero gradients.
        g, x, params, sampled, pseudo = self._instance(3)
        p = gcn_norm(g)
        _, grads = loss_and_gradients(params, FusionParams(), p, x, p @ x,
                                      sampled, pseudo, 0.0, 0.0)
        for name, g_arr in grads.named_arrays():
            assert np.max(np.abs(g_arr)) <= 1e-6, name

    def test_lambda2_zero_ignores_pseudo(self):
        g, x, params, sampled, pseudo = self._instance(5)
        fusion = FusionParams()
        p = gcn_norm(g)
        _, g1 = loss_and_gradients(params, fusion, p, x, p @ x, sampled, pseudo, 1.0, 0.0)
        other = Cover(memberships=1 - pseudo.memberships)
        _, g2 = loss_and_gradients(params, fusion, p, x, p @ x, sampled, other, 1.0, 0.0)
        np.testing.assert_array_equal(g1.flat, g2.flat)


class TestEpochBuffers:
    """One epoch's arithmetic must leave its inputs alone, repeat exactly and
    hold few N x h buffers at once."""

    def _instance(self, n=2000, d=16, h=64, k=4):
        rng = np.random.default_rng(21)
        g = Graph.from_edges(rng.integers(0, n, size=(8 * n, 2)), n)
        x = rng.normal(size=(n, d))
        params = init_params(d, h, k, seed=22)
        cover = Cover(memberships=(rng.random((n, k)) < 0.3).astype(np.uint8))
        ids = np.sort(rng.choice(n, n // 10, replace=False))
        sampled = SampledLabels(node_ids=ids, rows=cover.memberships[ids].copy())
        p = gcn_norm(g)
        return p, x, p @ x, params, sampled, cover

    @staticmethod
    def _peak_n_by_h(call, x, params):
        """Traced peak of ``call()`` after a warm-up call, in N x h float64s."""
        call()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (x.shape[0] * params.dims[1] * 8)

    @staticmethod
    def _layouts(monkeypatch, h):
        """Set 1 and then 2 workers, each with the default dense row blocks
        (1024 rows at h = 64) and with 128-row blocks; yields a label."""
        default = wocd.model.DENSE_BLOCK_FLOATS
        for workers in (1, 2):
            monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: workers)
            for rows in (None, 128):
                monkeypatch.setattr(wocd.model, "DENSE_BLOCK_FLOATS", rows * h if rows else default)
                yield f"{workers} workers, {rows or 'default'} rows"

    def test_peak_memory_of_one_call(self, monkeypatch):
        p, x, px, params, sampled, pseudo = self._instance()
        args = (params, FusionParams(), p, x, px, sampled, pseudo, 1.0, 1.0)
        # the peak comes at the end of the forward pass: P @ Z of two layers,
        # two bool masks, Z0, Q, K, V, U, the fused output and the last GCN
        # layer's output, about 9.3; caching float pre-activations and
        # holding temporaries in the caller read about 12.4. A row block's
        # temporaries are a block's rows, not N
        for layout in self._layouts(monkeypatch, params.dims[1]):
            peak = self._peak_n_by_h(lambda: loss_and_gradients(*args), x, params)
            assert peak <= 10.5, layout

    def test_peak_memory_of_predict(self, monkeypatch):
        p, x, px, params, _, _ = self._instance()
        fusion = FusionParams()
        # Z0, Q, K, V and U, plus one temporary while they are alive
        for layout in self._layouts(monkeypatch, params.dims[1]):
            peak = self._peak_n_by_h(lambda: predict(params, fusion, p, x, px), x, params)
            assert peak <= 7.0, layout

    def test_peak_memory_of_blocked_product(self, monkeypatch):
        p, x, _, params, _, _ = self._instance()
        monkeypatch.setattr(wocd.model, "SPMM_BLOCK_NNZ", 4096)
        monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 2)
        assert len(row_blocks(p.indptr, 4096)) - 1 >= 8
        z = np.random.default_rng(23).normal(size=(x.shape[0], params.dims[1]))
        # the output plus the block products in flight, one per worker;
        # stacking every block's rows before copying them out reads about 2
        assert self._peak_n_by_h(lambda: p @ z, x, params) <= 1.5

    def test_peak_memory_of_one_worker_product(self, monkeypatch):
        p, x, _, params, _, _ = self._instance()
        monkeypatch.setattr(wocd.model, "SPMM_BLOCK_NNZ", 4096)
        monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 1)
        assert len(row_blocks(p.indptr, 4096)) - 1 >= 8
        z = np.random.default_rng(23).normal(size=(x.shape[0], params.dims[1]))
        # one worker takes SciPy's whole product, which writes the output
        # once; running the blocks in turn adds a block's copy, about 1.18
        assert self._peak_n_by_h(lambda: p @ z, x, params) <= 1.05

    def test_inputs_untouched(self):
        p, x, px, params, sampled, pseudo = self._instance(n=300)
        kept = [a.copy() for a in (x, px, p.data, params.flat)]
        fusion = FusionParams(0.6, 0.5, 0.4)
        predict(params, fusion, p, x, px)
        loss_and_gradients(params, fusion, p, x, px, sampled, pseudo, 1.0, 1.0)
        for before, after in zip(kept, (x, px, p.data, params.flat)):
            np.testing.assert_array_equal(after, before)

    @pytest.mark.parametrize("activate_final", [False, True])
    def test_repeat_calls_equal(self, activate_final):
        p, x, px, params, sampled, pseudo = self._instance(n=300)
        params.activate_final = activate_final
        fusion = FusionParams(0.6, 0.5, 0.4)
        v1, g1 = loss_and_gradients(params, fusion, p, x, px, sampled, pseudo, 1.0, 1.0)
        v2, g2 = loss_and_gradients(params, fusion, p, x, px, sampled, pseudo, 1.0, 1.0)
        assert v1 == v2
        np.testing.assert_array_equal(g1.flat, g2.flat)

    @pytest.mark.parametrize("activate_final", [False, True])
    @pytest.mark.parametrize("fusion", [(0.5, 0.5, 0.1), (0.6, 0.5, 0.4), (0.7, 0.0, 0.3)],
                             ids=["default", "mixed", "beta_0"])
    @pytest.mark.parametrize("lam2", [0.5, 0.0])
    def test_matches_reference_bit_for_bit(self, activate_final, fusion, lam2):
        p, x, px, params, sampled, pseudo = self._instance(n=300)
        params.activate_final = activate_final
        fusion = FusionParams(*fusion)
        args = (params, fusion, p, x, px, sampled, pseudo, 1.0, lam2)
        value, grads = loss_and_gradients(*args)
        value_ref, grads_ref = loss_and_gradients_reference(*args)
        assert value == value_ref
        for (name, got), (_, want) in zip(grads.named_arrays(), grads_ref.named_arrays()):
            assert np.array_equal(got, want), name
        assert np.array_equal(predict(*args[:5]), predict_reference(*args[:5]))

    @pytest.mark.parametrize("activate_final", [False, True])
    def test_row_blocks_equal_one_block(self, workers, monkeypatch, activate_final):
        # 1025 rows cut every 64 would leave row 1024 alone, a 1-row product
        # that BLAS computes another way, so it joins the block before it; a
        # budget of 62 rows is cut every 60. Byte equality with one block was
        # measured on OpenBLAS 0.3.31 (x86-64); another BLAS build may take
        # other kernels for short blocks
        n = 1025
        p, x, px, params, sampled, pseudo = self._instance(n=n)
        params.activate_final = activate_final
        h = params.dims[1]
        args = (params, FusionParams(0.6, 0.5, 0.4), p, x, px, sampled, pseudo, 1.0, 1.0)
        runs = []
        for rows, last in ((2 * n, 0), (64, 960), (62, 960)):
            monkeypatch.setattr(wocd.model, "DENSE_BLOCK_FLOATS", rows * h)
            bounds = dense_blocks(n, h)
            assert bounds[-2:] == [last, n]
            value, grads = loss_and_gradients(*args)
            runs.append((value, grads.flat.tobytes(), predict(*args[:5]).tobytes()))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_one_block_starts_no_thread(self, monkeypatch):
        # at the acceptance workload's size every dense stage and P @ Z is
        # one block, which the calling thread runs
        calls = []
        run_row_blocks = wocd.parallel.run_row_blocks

        def counted(fn, bounds):
            calls.append(len(bounds) - 1)
            run_row_blocks(fn, bounds)

        monkeypatch.setattr(wocd.parallel, "run_row_blocks", counted)
        monkeypatch.setattr(wocd.parallel, "cpu_count", lambda: 2)
        p, x, px, params, sampled, pseudo = self._instance(n=500, h=128)
        assert dense_blocks(500, 128) == [0, 500]
        loss_and_gradients(params, FusionParams(), p, x, px, sampled, pseudo, 1.0, 1.0)
        predict(params, FusionParams(), p, x, px)
        assert calls and max(calls) == 1


class TestDenseBlocks:
    @pytest.mark.parametrize("h", [1, 3, 16, 64, 128, 5000, 1 << 17])
    def test_bounds(self, h):
        for n in [0, 1, 2, 3, 4, 5, 9, 511, 512, 513, 1023, 1025, 1500, 5000, 1 << 17]:
            bounds = dense_blocks(n, h)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n
            assert np.all(sizes >= min(n, 2)), (n, h)
            # equal blocks of a multiple of 4 rows within the budget, then a
            # last one at least half as long
            full = sizes[:-1]
            assert np.all(full == full[:1]) and np.all(full % 4 == 0), (n, h)
            assert np.all(full * h <= max(wocd.model.DENSE_BLOCK_FLOATS, 4 * h)), (n, h)
            if full.size:
                assert sizes[-1] >= full[0] // 2, (n, h)

    def test_workload_sizes(self):
        # acceptance (N = 500) and scale (N = 5000) at h = 128
        assert dense_blocks(500, 128) == [0, 500]
        assert dense_blocks(5000, 128) == [*range(0, 4609, 512), 5000]


class TestAdam:
    def test_zero_gradient(self):
        params = init_params(3, 4, 2, seed=0)
        before = params.flat.copy()
        state = AdamState.for_params(params)
        adam_step(params, ModelParams(params.dims), state, lr=0.1)
        np.testing.assert_array_equal(params.flat, before)
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        params = init_params(3, 4, 2, seed=1)
        before = params.flat.copy()
        state = AdamState.for_params(params)
        rng = np.random.default_rng(0)
        # keep |g| well above Adam's eps so the t=1 ratio is a clean sign
        size = params.flat.size
        g = rng.uniform(0.5, 1.5, size=size) * rng.choice([-1.0, 1.0], size=size)
        grads = ModelParams(params.dims)
        grads.flat[:] = g
        adam_step(params, grads, state, lr=1e-3)
        np.testing.assert_allclose(before - params.flat, 1e-3 * np.sign(g), rtol=1e-6)

    def test_two_step_quadratic_trajectory(self):
        # minimize 0.5 x^2 from x0 = 1 with lr 0.1; hand recurrence
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x = 1.0
        m = v = 0.0
        want = []
        for t in (1, 2):
            g = x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            want.append(x)

        params = init_params(1, 1, 1, seed=0)
        params.flat[:] = 0.0
        params.head_w[:] = 1.0
        state = AdamState.for_params(params)
        got = []
        for _ in range(2):
            grads = ModelParams(params.dims)
            grads.head_w[:] = params.head_w
            adam_step(params, grads, state, lr=lr)
            got.append(params.head_w.item())
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestModelParams:
    def test_views_alias_flat(self):
        params = init_params(5, 6, 3, seed=8)
        before = params.flat.copy()
        for name, arr in params.named_arrays():
            assert np.shares_memory(arr, params.flat), name
            arr += 1.0
        # every entry of flat moved exactly once
        np.testing.assert_array_equal(params.flat, before + 1.0)
        assert params.gcn_w[1] is params.gcn_w1 and params.gcn_b[2] is params.gcn_b2

    def test_views_tile_flat_in_layout_order(self):
        params = init_params(5, 6, 3, seed=8)
        base = params.flat.__array_interface__["data"][0]
        offset = 0
        for (name, arr), (lname, shape) in zip(params.named_arrays(), param_layout(5, 6, 3)):
            assert name == lname and arr.shape == shape
            assert arr.flags.c_contiguous
            assert arr.__array_interface__["data"][0] - base == offset * 8, name
            offset += arr.size
        assert offset == params.flat.size


class TestInitParams:
    def test_determinism_and_shapes(self):
        a = init_params(7, 16, 3, seed=11)
        b = init_params(7, 16, 3, seed=11)
        shapes = {
            "input_proj_w": (7, 16), "gcn_w0": (7, 16), "gcn_w1": (16, 16),
            "gcn_w2": (16, 16), "gt_q_w": (16, 16), "head_w": (16, 3),
            "head_b": (3,),
        }
        for (name, arr_a), (_, arr_b) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(arr_a, arr_b)
            if name in shapes:
                assert arr_a.shape == shapes[name]
        for name, arr in a.named_arrays():
            if name.endswith("_b"):
                assert np.all(arr == 0.0)

    def test_matches_per_array_draws(self):
        # one uniform draw per weight matrix, in the order input_proj, gcn 0-2,
        # q, k, v, head, so a seed gives the same weights whatever the storage
        d, h, k = 5, 6, 3
        rng = np.random.default_rng(9)
        want = {}
        for name, fan_in, fan_out in [("input_proj_w", d, h), ("gcn_w0", d, h),
                                      ("gcn_w1", h, h), ("gcn_w2", h, h),
                                      ("gt_q_w", h, h), ("gt_k_w", h, h),
                                      ("gt_v_w", h, h), ("head_w", h, k)]:
            bound = 1.0 / np.sqrt(fan_in)
            want[name] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params = init_params(d, h, k, seed=9)
        for name, arr in params.named_arrays():
            np.testing.assert_array_equal(arr, want.get(name, 0.0), err_msg=name)

    def test_weight_mean_near_zero(self):
        params = init_params(256, 256, 4, seed=2)
        w = params.gcn_w[1]
        bound = 1.0 / np.sqrt(256)
        sigma = bound / np.sqrt(3.0)  # std of U(-bound, bound)
        assert abs(w.mean()) <= 5 * sigma / np.sqrt(w.size)
