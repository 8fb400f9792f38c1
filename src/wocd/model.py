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

    def __init__(self, dims: tuple, activate_final: bool = False, flat=None):
        self.dims = tuple(dims)  # (D, h, K)
        self.activate_final = activate_final  # rectify the last GCN layer too
        layout = param_layout(*self.dims)
        sizes = [int(np.prod(shape)) for _, shape in layout]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            setattr(self, name, self.flat[offset:offset + size].reshape(shape))
            offset += size
        self.gcn_w = [self.gcn_w0, self.gcn_w1, self.gcn_w2]
        self.gcn_b = [self.gcn_b0, self.gcn_b1, self.gcn_b2]

    def named_arrays(self) -> list:
        """(name, view) pairs in layout order."""
        return [(name, getattr(self, name)) for name, _ in param_layout(*self.dims)]

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.activate_final, self.flat.copy())


def init_params(d: int, h: int, k: int, seed: int, activate_final: bool = False) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    if min(d, h, k) < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    params = ModelParams((d, h, k), activate_final)
    for w in (params.input_proj_w, *params.gcn_w, params.gt_q_w, params.gt_k_w,
              params.gt_v_w, params.head_w):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


class RowBlockedCSR(sp.csr_matrix):
    """A CSR matrix whose product with a 2-D ndarray runs in row blocks of
    at most SPMM_BLOCK_NNZ stored entries on every CPU (``wocd.parallel``).

    Each block is a plain ``csr_matrix`` over views of this matrix's arrays,
    and its public product with the operand fills its rows of one output, so
    the result equals the plain ``csr_matrix`` product bit for bit. A product
    on one CPU or with a matrix of one block (at most SPMM_BLOCK_NNZ entries),
    every other operand and a wrong-shaped one go to ``csr_matrix`` as they are.
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
            rows = sp.csr_matrix((self.data[s:e], self.indices[s:e], self.indptr[r0:r1 + 1] - s),
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


def gcn_forward(params: ModelParams, p_mat, px: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Three propagation layers over ``px = p_mat @ x``, which no weight
    touches and so is computed once by the caller; the last layer emits
    pre-activations unless activate_final is set."""
    n_layers = len(params.gcn_w)
    if cache is not None:
        cache["gcn_m"] = []  # P @ Z_l per layer, px for the first
        cache["gcn_mask"] = []  # Z_l > 0 per rectified layer, which is pre > 0
    m = px
    for l, (w, b) in enumerate(zip(params.gcn_w, params.gcn_b)):
        if l > 0:
            m = p_mat @ z
            del z  # free Z_(l-1) before the next N x h allocation
        z = m @ w
        z += b
        if cache is not None:
            cache["gcn_m"].append(m)
        if l < n_layers - 1 or params.activate_final:
            np.maximum(z, 0.0, out=z)
            if cache is not None:
                cache["gcn_mask"].append(z > 0)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite GCN activations (divergence)")
    return z


def _gcn_backward(params: ModelParams, p_mat, cache, d_fused, alpha, grads) -> None:
    """Gradients of the GCN branch from dL/d(fused) and its weight alpha;
    leaves d_fused alone and pops each layer's cache entries after their
    last read."""
    n_layers = len(params.gcn_w)
    d = alpha * d_fused
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1 or params.activate_final:
            d *= cache["gcn_mask"].pop()
        grads.gcn_w[l] += cache["gcn_m"].pop().T @ d
        grads.gcn_b[l] += d.sum(axis=0)
        if l > 0:
            # P is symmetric, so d(P @ Z) / dZ pulls back through P itself
            d_z = d @ params.gcn_w[l].T
            del d
            d = p_mat @ d_z
            del d_z


def gt_forward(params: ModelParams, x: np.ndarray, gamma: float, cache: dict | None = None) -> np.ndarray:
    """Single-head linear attention with Frobenius-normalized Q and K.

    Computed in the factored order Q(K^T V), O(N h^2).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    z0 = x @ params.input_proj_w
    z0 += params.input_proj_b
    q = z0 @ params.gt_q_w
    q += params.gt_q_b
    k = z0 @ params.gt_k_w
    k += params.gt_k_b
    v = z0 @ params.gt_v_w
    v += params.gt_v_b
    with np.errstate(over="ignore"):  # an overflow is reported below
        qn = np.linalg.norm(q)
        kn = np.linalg.norm(k)
    if qn == 0.0 or kn == 0.0:
        raise DegenerateProjectionError("Q or K has zero Frobenius norm")
    if not (np.isfinite(qn) and np.isfinite(kn)):
        raise DegenerateProjectionError("Q or K has a non-finite Frobenius norm")
    q /= qn  # Q~ and K~ from here on
    k /= kn
    s = k.sum(axis=0)  # K~^T 1
    denom = q @ s  # diagonal of D
    denom /= n
    denom += 1.0
    if not np.all(denom > 0.0):  # |Q~_i s| / N <= 1 / sqrt(N), so N is 1 here
        raise DegenerateProjectionError("the attention normalizer 1 + Q~ K~^T 1 / N is 0")
    w_kv = k.T @ v  # h x h
    u = q @ w_kv
    u /= n
    u += v
    if cache is None:  # the backward pass reads U, so only an uncached call may overwrite it
        z_gt = np.divide(u, denom[:, None], out=u)
    else:
        z_gt = u / denom[:, None]
    z_gt *= gamma
    z_gt += (1.0 - gamma) * z0
    if cache is not None:
        cache.update(
            gt_z0=z0, gt_v=v, gt_qn=qn, gt_kn=kn, gt_qt=q, gt_kt=k, gt_s=s,
            gt_denom=denom, gt_wkv=w_kv, gt_u=u,
        )
    return z_gt


def _normalized_backward(d_t, t, norm):
    """Gradient w.r.t. T from d_t = dL/dT~ and T~ = T / norm, norm = ||T||_F.
    Overwrites d_t (which it returns) and t."""
    t *= (d_t * t).sum()
    d_t -= t
    d_t /= norm
    return d_t


def _gt_backward(params: ModelParams, x, gamma, cache, d_out, grads) -> None:
    """Overwrites d_out and pops each cache entry after its last read."""
    n = x.shape[0]
    denom, u = cache.pop("gt_denom"), cache.pop("gt_u")

    # Z_gt = gamma U / denom + (1 - gamma) Z0
    d_u = gamma * d_out
    d_u /= denom[:, None]
    u *= d_out
    d_denom = -gamma * u.sum(axis=1) / denom**2
    del u, denom
    d_z0 = d_out
    d_z0 *= 1.0 - gamma

    # U = V + Q~ (K~^T V) / N
    qt, kt = cache.pop("gt_qt"), cache.pop("gt_kt")
    d_qt = d_u @ cache.pop("gt_wkv").T
    d_qt /= n
    d_wkv = (qt.T @ d_u) / n
    d_kt = cache.pop("gt_v") @ d_wkv.T
    d_v = d_u
    d_v += kt @ d_wkv

    # denom = 1 + Q~ s / N, s = K~^T 1
    d_outer = np.outer(d_denom, cache.pop("gt_s"))
    d_outer /= n
    d_qt += d_outer
    d_s = (qt.T @ d_denom) / n
    d_kt += d_s[None, :]

    # Q~ = Q / ||Q||_F, K~ = K / ||K||_F
    d_q = _normalized_backward(d_qt, qt, cache.pop("gt_qn"))
    d_k = _normalized_backward(d_kt, kt, cache.pop("gt_kn"))
    del qt, kt

    z0 = cache.pop("gt_z0")
    grads.gt_q_w += z0.T @ d_q
    grads.gt_q_b += d_q.sum(axis=0)
    grads.gt_k_w += z0.T @ d_k
    grads.gt_k_b += d_k.sum(axis=0)
    grads.gt_v_w += z0.T @ d_v
    grads.gt_v_b += d_v.sum(axis=0)
    del z0

    d_proj = d_q @ params.gt_q_w.T
    d_proj += d_k @ params.gt_k_w.T
    d_proj += d_v @ params.gt_v_w.T
    d_z0 += d_proj
    grads.input_proj_w += x.T @ d_z0
    grads.input_proj_b += d_z0.sum(axis=0)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def loss(c_pred: np.ndarray, sampled: SampledLabels, pseudo: Cover | None,
         lam1: float, lam2: float) -> float:
    value, _ = _loss_with_pred_grad(c_pred, sampled, pseudo, lam1, lam2)
    return value


def _loss_with_pred_grad(c_pred, sampled, pseudo, lam1, lam2):
    d_pred = np.zeros_like(c_pred)
    val1, g1 = _bce_term(c_pred[sampled.node_ids], sampled.rows)
    d_pred[sampled.node_ids] += lam1 * g1
    total = lam1 * val1
    if lam2 != 0.0 and pseudo is not None and (rows := pseudo_rows(pseudo, sampled)).size:
        val2, g2 = _bce_term(c_pred[rows], pseudo.memberships[rows])
        d_pred[rows] += lam2 * g2
        total += lam2 * val2
    return float(total), d_pred


def loss_and_gradients(params: ModelParams, fusion: FusionParams, p_mat, x, px,
                       sampled: SampledLabels, pseudo: Cover | None,
                       lam1: float, lam2: float):
    """Exact analytic gradients of the dual-BCE objective.

    px is ``p_mat @ x``. Returns (loss, grads); grads is a ModelParams laid
    out like params. The backward pass drops each cached activation after its
    last read, so the forward pass's buffers are freed as it goes.
    """
    cache: dict = {}
    c_pred = predict(params, fusion, p_mat, x, px, cache)
    value, d_logits = _loss_with_pred_grad(c_pred, sampled, pseudo, lam1, lam2)

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


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float):
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
    return params, state
