"""GCN + single-layer linear-attention graph transformer, loss, and gradients.

Everything is float64 numpy with exact analytic gradients; the linear
attention never materializes the N x N score matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import parallel
from .graph import Cover, Graph, SampledLabels, check_field_types
from .pseudo import pseudo_rows

CLAMP_EPS = 1e-7
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
SPMM_BLOCK_NNZ = 1 << 16  # stored entries of P per row block of P @ Z
DENSE_BLOCK_FLOATS = 1 << 16  # entries of an N x h array per row block of the dense stages


class DegenerateProjectionError(ValueError):
    """Q or K is zero or has a non-finite Frobenius norm, so it cannot be
    normalized; or the attention normalizer vanished (one node, Q~ = -K~)."""


@dataclass(frozen=True)
class FusionParams:
    alpha: float = 0.5  # GCN branch weight
    beta: float = 0.5  # GT branch weight
    gamma: float = 0.1  # attention share of the GT output; the rest is the input projection

    def __post_init__(self):
        check_field_types(self)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")


def param_layout(d: int, h: int, k: int) -> list:
    """(name, shape) of every weight array, in buffer order."""
    layout = [("input_proj_w", (d, h)), ("input_proj_b", (h,))]
    for i, fan_in in enumerate((d, h, h)):
        layout += [(f"gcn_w{i}", (fan_in, h)), (f"gcn_b{i}", (h,))]
    for name in ("gt_q", "gt_k", "gt_v"):
        layout += [(f"{name}_w", (h, h)), (f"{name}_b", (h,))]
    return layout + [("head_w", (h, k)), ("head_b", (k,))]


class ModelParams:
    """All learnable weights for the fused GCN/GT predictor.

    The weights live in one contiguous float64 buffer ``flat``; each array
    (``input_proj_w``, ``gcn_w[l]``, ..., ``head_b``) is a view into it, laid
    out in ``param_layout`` order, so writing a view writes ``flat``.
    """

    def __init__(self, dims: tuple, activate_final: bool = False):
        self.dims = tuple(dims)  # (D, h, K)
        self.activate_final = activate_final  # rectify the last GCN layer too
        layout = param_layout(*self.dims)
        sizes = [int(np.prod(shape)) for _, shape in layout]
        self.flat = np.zeros(sum(sizes))
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            setattr(self, name, self.flat[offset:offset + size].reshape(shape))
            offset += size
        self.gcn_w = [self.gcn_w0, self.gcn_w1, self.gcn_w2]
        self.gcn_b = [self.gcn_b0, self.gcn_b1, self.gcn_b2]

    def named_arrays(self) -> list:
        """(name, view) pairs in layout order."""
        return [(name, getattr(self, name)) for name, _ in param_layout(*self.dims)]


def init_params(d: int, h: int, k: int, seed: int, activate_final: bool = False) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if min(d, h, k) < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    params = ModelParams((d, h, k), activate_final)
    for w in (a for _, a in params.named_arrays() if a.ndim == 2):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


class RowBlockedCSR(sp.csr_array):
    """A CSR array whose product with a 2-D ndarray runs in row blocks of
    at most SPMM_BLOCK_NNZ stored entries on every CPU (``wocd.parallel``).

    Each block is a plain ``csr_array`` over views of this array's arrays,
    and its public product with the operand fills its rows of one output, so
    the result equals the plain ``csr_array`` product bit for bit. A product
    on one CPU or with an array of one block (at most SPMM_BLOCK_NNZ entries),
    every other operand and a wrong-shaped one go to ``csr_array`` as they are.
    """

    def __matmul__(self, other):
        n_rows, n_cols = self.shape
        if not (type(other) is np.ndarray and other.ndim == 2 and other.shape[0] == n_cols
                and self.nnz > SPMM_BLOCK_NNZ and parallel.cpu_count() > 1):
            return super().__matmul__(other)
        bounds = parallel.row_blocks(self.indptr, SPMM_BLOCK_NNZ)
        out = np.empty((n_rows, other.shape[1]), dtype=np.result_type(self.dtype, other.dtype))

        def block(r0, r1):
            s, e = self.indptr[r0], self.indptr[r1]
            rows = sp.csr_array((self.data[s:e], self.indices[s:e], self.indptr[r0:r1 + 1] - s),
                                shape=(r1 - r0, n_cols), copy=False)
            out[r0:r1] = rows @ other

        parallel.run_row_blocks(block, bounds)
        return out


def gcn_norm(graph: Graph) -> RowBlockedCSR:
    """Symmetrically normalized self-looped adjacency D~^-1/2 (A + I) D~^-1/2."""
    closed = graph.adjacency() + sp.eye_array(graph.n_nodes, dtype=np.int32, format="csr")
    d_tilde = np.diff(closed.indptr)
    inv_sqrt = 1.0 / np.sqrt(d_tilde.astype(np.float64))
    vals = np.repeat(inv_sqrt, d_tilde) * inv_sqrt[closed.indices]
    return RowBlockedCSR((vals, closed.indices, closed.indptr), shape=closed.shape)


def dense_blocks(n: int, h: int) -> list:
    """Row bounds of the dense row-wise stages over n rows of width h.

    BLAS picks a kernel by shape, and a block's product equals the same rows
    of the whole product only where both take the same kernel. On OpenBLAS
    0.3.31 (x86-64), a 1-row block is a matrix-vector product, a
    matrix-vector product takes its rows in fours and finishes a remainder
    its own way, and a transposed product of a few rows takes a small-matrix
    kernel. So each block but the last holds the same multiple of 4 rows,
    about DENSE_BLOCK_FLOATS / h, and a last block shorter than half of that
    joins the one before it. The bounds never depend on the worker count.
    """
    rows = max(4, DENSE_BLOCK_FLOATS // h // 4 * 4)
    bounds = list(range(0, n, rows)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < rows // 2:
        del bounds[-2]
    return bounds


def gcn_forward(params: ModelParams, p_mat, px: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Three propagation layers over ``px = p_mat @ x``, which no weight
    touches and so is computed once by the caller; the last layer emits
    pre-activations unless activate_final is set."""
    n_layers = len(params.gcn_w)
    n, h = px.shape[0], params.dims[1]
    bounds = dense_blocks(n, h)
    if cache is not None:
        cache["gcn_m"] = []  # P @ Z_l per layer, px for the first
        cache["gcn_mask"] = []  # Z_l > 0 per rectified layer, which is pre > 0
    m = px
    for l, (w, b) in enumerate(zip(params.gcn_w, params.gcn_b)):
        if l > 0:
            m = p_mat @ z
            del z  # free Z_(l-1) before the next N x h allocation
        rectify = l < n_layers - 1 or params.activate_final
        z = np.empty((n, h))
        mask = np.empty((n, h), dtype=bool) if rectify and cache is not None else None

        def layer(r0, r1):
            z_b = np.matmul(m[r0:r1], w, out=z[r0:r1])
            z_b += b
            if rectify:
                np.maximum(z_b, 0.0, out=z_b)
                if mask is not None:
                    np.greater(z_b, 0.0, out=mask[r0:r1])

        parallel.run_row_blocks(layer, bounds)
        if cache is not None:
            cache["gcn_m"].append(m)
            if mask is not None:
                cache["gcn_mask"].append(mask)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite GCN activations (divergence)")
    return z


def _gcn_backward(params: ModelParams, p_mat, cache, d_fused, alpha, grads) -> None:
    """Gradients of the GCN branch from dL/d(fused) and its weight alpha;
    leaves d_fused alone and pops each layer's cache entries after their
    last read."""
    n_layers = len(params.gcn_w)
    bounds = dense_blocks(*d_fused.shape)
    d = alpha * d_fused
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1 or params.activate_final:
            d *= cache["gcn_mask"].pop()
        grads.gcn_w[l] += cache["gcn_m"].pop().T @ d
        grads.gcn_b[l] += d.sum(axis=0)
        if l > 0:
            # P is symmetric, so d(P @ Z) / dZ pulls back through P itself
            d_z, w_t = np.empty_like(d), params.gcn_w[l].T
            parallel.run_row_blocks(lambda r0, r1: np.matmul(d[r0:r1], w_t, out=d_z[r0:r1]),
                                    bounds)
            del d
            d = p_mat @ d_z
            del d_z


def gt_forward(params: ModelParams, x: np.ndarray, gamma: float, cache: dict | None = None) -> np.ndarray:
    """Single-head linear attention with Frobenius-normalized Q and K.

    Computed in the factored order Q(K^T V), O(N h^2).
    """
    x = np.asarray(x, dtype=np.float64)
    n, h = x.shape[0], params.dims[1]
    bounds = dense_blocks(n, h)
    z0, q, k, v = (np.empty((n, h)) for _ in range(4))

    def project(r0, r1):
        z0_b = np.matmul(x[r0:r1], params.input_proj_w, out=z0[r0:r1])
        z0_b += params.input_proj_b
        for out, w, b in ((q, params.gt_q_w, params.gt_q_b), (k, params.gt_k_w, params.gt_k_b),
                          (v, params.gt_v_w, params.gt_v_b)):
            out_b = np.matmul(z0_b, w, out=out[r0:r1])
            out_b += b

    parallel.run_row_blocks(project, bounds)
    with np.errstate(over="ignore"):  # an overflow is reported below
        qn = np.linalg.norm(q)
        kn = np.linalg.norm(k)
    if qn == 0.0 or kn == 0.0:
        raise DegenerateProjectionError("Q or K has zero Frobenius norm")
    if not (np.isfinite(qn) and np.isfinite(kn)):
        raise DegenerateProjectionError("Q or K has a non-finite Frobenius norm")
    k /= kn  # K~ from here on; Q~ is Q / qn block by block below
    s = k.sum(axis=0)  # K~^T 1
    w_kv = k.T @ v  # h x h
    denom = np.empty(n)  # diagonal of D
    u = np.empty((n, h))
    # the backward pass reads U, so only an uncached call may overwrite it
    z_gt = u if cache is None else np.empty((n, h))

    def attend(r0, r1):
        q_b, denom_b = q[r0:r1], denom[r0:r1]
        q_b /= qn
        np.matmul(q_b, s, out=denom_b)
        denom_b /= n
        denom_b += 1.0
        if not np.all(denom_b > 0.0):  # |Q~_i s| / N <= 1 / sqrt(N), so N is 1 here
            raise DegenerateProjectionError("the attention normalizer 1 + Q~ K~^T 1 / N is 0")
        u_b = np.matmul(q_b, w_kv, out=u[r0:r1])
        u_b /= n
        u_b += v[r0:r1]
        z_b = np.divide(u_b, denom_b[:, None], out=z_gt[r0:r1])
        z_b *= gamma
        z_b += (1.0 - gamma) * z0[r0:r1]

    parallel.run_row_blocks(attend, bounds)
    if cache is not None:
        cache.update(
            gt_z0=z0, gt_v=v, gt_qn=qn, gt_kn=kn, gt_qt=q, gt_kt=k, gt_s=s,
            gt_denom=denom, gt_wkv=w_kv, gt_u=u,
        )
    return z_gt


def _gt_backward(params: ModelParams, x, gamma, cache, d_out, grads) -> None:
    """Overwrites d_out and pops each cache entry after its last read."""
    n, h = d_out.shape
    bounds = dense_blocks(n, h)
    denom, u = cache.pop("gt_denom"), cache.pop("gt_u")
    d_u, d_denom = np.empty((n, h)), np.empty(n)
    d_z0 = d_out

    # Z_gt = gamma U / denom + (1 - gamma) Z0
    def through_output(r0, r1):
        d_out_b, denom_b, u_b = d_out[r0:r1], denom[r0:r1], u[r0:r1]
        d_u_b = np.multiply(gamma, d_out_b, out=d_u[r0:r1])
        d_u_b /= denom_b[:, None]
        u_b *= d_out_b
        d_denom[r0:r1] = -gamma * u_b.sum(axis=1) / denom_b**2
        d_out_b *= 1.0 - gamma  # dL/dZ0 so far

    parallel.run_row_blocks(through_output, bounds)
    del u, denom

    # U = V + Q~ (K~^T V) / N and denom = 1 + Q~ s / N, s = K~^T 1
    qt, kt = cache.pop("gt_qt"), cache.pop("gt_kt")
    d_wkv = (qt.T @ d_u) / n
    d_s = (qt.T @ d_denom) / n
    wkv_t, s, v = cache.pop("gt_wkv").T, cache.pop("gt_s"), cache.pop("gt_v")
    d_qt, d_kt = np.empty((n, h)), np.empty((n, h))
    d_v = d_u  # d_u's rows are read into d_qt before they become d_v's

    def through_attention(r0, r1):
        d_qt_b = np.matmul(d_u[r0:r1], wkv_t, out=d_qt[r0:r1])
        d_qt_b /= n
        d_kt_b = np.matmul(v[r0:r1], d_wkv.T, out=d_kt[r0:r1])
        d_v[r0:r1] += kt[r0:r1] @ d_wkv
        d_outer = np.outer(d_denom[r0:r1], s)
        d_outer /= n
        d_qt_b += d_outer
        d_kt_b += d_s

    parallel.run_row_blocks(through_attention, bounds)
    del v

    # Q~ = Q / ||Q||_F, K~ = K / ||K||_F: dL/dT = (dL/dT~ - T~ <dL/dT~, T~>) / ||T||_F
    normalized = [(d_qt, qt, (d_qt * qt).sum(), cache.pop("gt_qn")),
                  (d_kt, kt, (d_kt * kt).sum(), cache.pop("gt_kn"))]
    d_q, d_k = d_qt, d_kt

    def through_weights(r0, r1):
        for d_t, t, dot, norm in normalized:
            t_b, d_t_b = t[r0:r1], d_t[r0:r1]
            t_b *= dot
            d_t_b -= t_b
            d_t_b /= norm
        d_proj = d_q[r0:r1] @ params.gt_q_w.T
        d_proj += d_k[r0:r1] @ params.gt_k_w.T
        d_proj += d_v[r0:r1] @ params.gt_v_w.T
        d_z0[r0:r1] += d_proj

    parallel.run_row_blocks(through_weights, bounds)
    del qt, kt, normalized

    z0 = cache.pop("gt_z0")
    for grad_w, grad_b, m, d in ((grads.gt_q_w, grads.gt_q_b, z0, d_q),
                                 (grads.gt_k_w, grads.gt_k_b, z0, d_k),
                                 (grads.gt_v_w, grads.gt_v_b, z0, d_v),
                                 (grads.input_proj_w, grads.input_proj_b, x, d_z0)):
        grad_w += m.T @ d  # each a whole product over the N rows
        grad_b += d.sum(axis=0)


def _sigmoid(x):
    # exp(-|x|) cannot overflow, and -|x| is exactly x where x < 0
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def predict(params: ModelParams, fusion: FusionParams, p_mat, x: np.ndarray,
            px: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Fused community-probability matrix, logistic over the linear head.

    px is ``p_mat @ x``.
    """
    fused = gt_forward(params, x, fusion.gamma, cache)
    fused *= fusion.beta
    z_gcn = gcn_forward(params, p_mat, px, cache)
    z_gcn *= fusion.alpha
    fused += z_gcn
    del z_gcn
    logits = fused @ params.head_w
    logits += params.head_b
    if cache is not None:
        cache["fused"] = fused
    return _sigmoid(logits)


def _bce_term(p, y):
    """Mean BCE over one node-set grid and its gradient w.r.t. raw p."""
    if p.shape[0] == 0:
        return 0.0, np.zeros_like(p)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    y = y.astype(np.float64)
    value = -np.mean(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))
    inside = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
    grad = np.where(inside, (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size, 0.0)
    return value, grad


def loss(c_pred: np.ndarray, sampled: SampledLabels, pseudo: Cover,
         lam1: float, lam2: float) -> tuple[float, np.ndarray]:
    """(value, dL/dc_pred) of the dual-BCE loss: lam1 times the mean BCE over
    the sampled rows plus lam2 times that over the ``pseudo_rows``."""
    d_pred = np.zeros_like(c_pred)
    val1, g1 = _bce_term(c_pred[sampled.node_ids], sampled.rows)
    d_pred[sampled.node_ids] += lam1 * g1
    total = lam1 * val1
    rows = pseudo_rows(pseudo, sampled)
    val2, g2 = _bce_term(c_pred[rows], pseudo.memberships[rows])
    d_pred[rows] += lam2 * g2
    total += lam2 * val2
    return float(total), d_pred


def loss_and_gradients(params: ModelParams, fusion: FusionParams, p_mat, x, px,
                       sampled: SampledLabels, pseudo: Cover,
                       lam1: float, lam2: float):
    """Exact analytic gradients of the dual-BCE objective.

    px is ``p_mat @ x``. Returns (loss, grads); grads is a ModelParams laid
    out like params. The backward pass drops each cached activation after its
    last read, so the forward pass's buffers are freed as it goes.
    """
    cache: dict = {}
    c_pred = predict(params, fusion, p_mat, x, px, cache)
    value, d_logits = loss(c_pred, sampled, pseudo, lam1, lam2)

    grads = ModelParams(params.dims, params.activate_final)
    d_logits *= c_pred
    d_logits *= 1.0 - c_pred
    fused = cache.pop("fused")
    grads.head_w += fused.T @ d_logits
    grads.head_b += d_logits.sum(axis=0)
    d_fused = np.matmul(d_logits, params.head_w.T, out=fused)  # fused is not read again
    _gcn_backward(params, p_mat, cache, d_fused, fusion.alpha, grads)
    d_fused *= fusion.beta
    _gt_backward(params, x, fusion.gamma, cache, d_fused, grads)
    return value, grads


@dataclass
class AdamState:
    """First and second moment estimates over ``ModelParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update of every weight at once, in place."""
    state.t += 1
    t = state.t
    g = grads.flat
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    g2 = (1.0 - ADAM_BETA2) * g
    g2 *= g
    state.v *= ADAM_BETA2
    state.v += g2
    m_hat = state.m / (1.0 - ADAM_BETA1**t)
    v_hat = state.v / (1.0 - ADAM_BETA2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= lr
    m_hat /= v_hat
    params.flat -= m_hat
