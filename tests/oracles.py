"""Independent reference implementations used only as test oracles.

Deliberately naive: plain dicts/sets/loops and dense matrices, written
directly from the procedure definitions, sharing no code with the package
beyond its result types (``Graph``, ``Cover``, ``ModelParams``), its error
types and, for the training epoch, its loss head.
"""

import math

import numpy as np

from wocd import Cover, FormatError, Graph
from wocd.model import DegenerateProjectionError, ModelParams, loss


def weak_cliques_reference(adj):
    """Greedy weak-clique extraction over a dict node -> set of neighbors."""
    priority = {}
    for i, nbrs in adj.items():
        m = sum(1 for a in nbrs for b in nbrs if a < b and b in adj[a])
        d = len(nbrs)
        priority[i] = (m + d) / (d + 1) if d else 0.0
    remaining = set(adj)
    out = []
    while remaining:
        u = min(remaining, key=lambda i: (-priority[i], i))
        nu = adj[u]
        if not nu:
            remaining.discard(u)
            continue

        def si(w):
            return len(nu & adj[w]) / math.sqrt(len(nu) * len(adj[w]))

        v = min(nu, key=lambda w: (-si(w), w))
        out.append((u, v, tuple(sorted({u, v} | (nu & adj[v])))))
        remaining.discard(u)
        remaining.discard(v)
    return out


def pseudo_labels_reference(clique_members, sampled_ids, sampled_rows, n, k, rc):
    """Clique-vote pseudo-labels as nested Python lists."""
    row = {int(u): [int(x) for x in r] for u, r in zip(sampled_ids, sampled_rows)}
    acc = [[0] * k for _ in range(n)]
    for members in clique_members:
        votes = [0] * k
        for u in members:
            if int(u) in row:
                for j in range(k):
                    votes[j] += row[int(u)][j]
        order = sorted(range(k), key=lambda j: (-votes[j], j))
        label = [0] * k
        for j in order[:rc]:
            if votes[j] > 0:
                label[j] = 1
        for v in members:
            for j in range(k):
                acc[int(v)][j] += label[j]
    return [[1 if x > 0 else 0 for x in r] for r in acc]


def _plogp(count, n):
    if count <= 0:
        return 0.0
    p = count / n
    return -p * math.log(p)


def onmi_reference(x_sets, y_sets, n):
    """Overlapping NMI over two lists of node sets (empty sets dropped)."""
    xs = [s for s in x_sets if s]
    ys = [s for s in y_sets if s]
    if not xs or not ys:
        return 0.0

    def cond_norm(a_sets, b_sets):
        total = 0.0
        for a in a_sets:
            h_a = _plogp(len(a), n) + _plogp(n - len(a), n)
            best = h_a
            for b in b_sets:
                n11 = len(a & b)
                n10 = len(a) - n11
                n01 = len(b) - n11
                n00 = n - n11 - n10 - n01
                if _plogp(n11, n) + _plogp(n00, n) < _plogp(n10, n) + _plogp(n01, n):
                    continue
                joint = sum(_plogp(c, n) for c in (n11, n10, n01, n00))
                h_b = _plogp(len(b), n) + _plogp(n - len(b), n)
                best = min(best, joint - h_b)
            if h_a > 0:
                total += best / h_a
        return total / len(a_sets)

    return 1.0 - 0.5 * (cond_norm(xs, ys) + cond_norm(ys, xs))


def gcn_dense_reference(adj_matrix, x, weights, biases, activate_final=False):
    """Three-layer GCN via an explicit dense propagation matrix."""
    a = np.asarray(adj_matrix, dtype=np.float64)
    n = a.shape[0]
    a_tilde = a + np.eye(n)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    p = d_inv_sqrt @ a_tilde @ d_inv_sqrt
    z = np.asarray(x, dtype=np.float64)
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = p @ z @ w + b
        if l < len(weights) - 1 or activate_final:
            z = np.maximum(z, 0.0)
    return z


def gt_quadratic_reference(x, params, gamma):
    """Linear attention evaluated through the explicit N x N score matrix."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    z0 = x @ params.input_proj_w + params.input_proj_b
    q = z0 @ params.gt_q_w + params.gt_q_b
    k = z0 @ params.gt_k_w + params.gt_k_b
    v = z0 @ params.gt_v_w + params.gt_v_b
    qt = q / np.linalg.norm(q)
    kt = k / np.linalg.norm(k)
    scores = qt @ kt.T  # N x N, on purpose
    ones = np.ones(n)
    d = 1.0 + (scores @ ones) / n
    z = gamma * ((v + (scores @ v) / n) / d[:, None]) + (1.0 - gamma) * z0
    return z


def finite_difference_grads(fn, params, step=1e-4):
    """Central-difference gradient of fn() w.r.t. every parameter entry."""
    out = {}
    for name, arr in params.named_arrays():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + step
            fp = fn()
            arr[i] = orig - step
            fm = fn()
            arr[i] = orig
            fd[i] = (fp - fm) / (2.0 * step)
        out[name] = fd
    return out


def graph_from_edges_naive(pairs, n_nodes):
    """CSR graph from (u, v) pairs through a set of neighbors per node."""
    adj = [set() for _ in range(n_nodes)]
    for u, v in pairs:
        u, v = int(u), int(v)
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise FormatError("node id out of range")
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    indices = []
    for u, nbrs in enumerate(adj):
        indices.extend(sorted(nbrs))
        indptr[u + 1] = len(indices)
    return Graph(indptr=indptr, indices=np.array(indices, dtype=np.int64))


def _parse_header_loop(path, lineno, line, key):
    prefix = f"#{key}="
    if line.startswith(prefix):
        try:
            value = int(line[len(prefix):])
        except ValueError:
            value = -1
        if value < 0:
            raise FormatError(f"{path}:{lineno}: bad header line: {line!r}")
        return value
    return None


def load_edge_list_loop(path):
    """The line-by-line edge-list parser the vectorised one replaced."""
    declared_n = None
    pairs = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                n = _parse_header_loop(path, lineno, line, "nodes")
                if n is not None:
                    declared_n = n
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 'u\\tv', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer node id") from exc
            if u < 0 or v < 0:
                raise FormatError(f"{path}:{lineno}: negative node id")
            pairs.append((u, v))
            max_id = max(max_id, u, v)
    n_nodes = max_id + 1 if declared_n is None else declared_n
    if max_id >= n_nodes:
        raise FormatError(f"node id {max_id} >= declared #nodes={n_nodes}")
    return graph_from_edges_naive(pairs, n_nodes)


def load_cover_loop(path):
    """The line-by-line cover parser the vectorised one replaced."""
    declared_n = None
    declared_k = None
    rows = {}
    max_node = -1
    max_comm = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                n = _parse_header_loop(path, lineno, line, "nodes")
                if n is not None:
                    declared_n = n
                k = _parse_header_loop(path, lineno, line, "communities")
                if k is not None:
                    declared_k = k
                continue
            if ":" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'node: c1 c2 ...'")
            head, _, tail = line.partition(":")
            try:
                node = int(head)
                comms = [int(tok) for tok in tail.split()]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer id") from exc
            if node < 0 or any(c < 0 for c in comms):
                raise FormatError(f"{path}:{lineno}: negative id")
            if node in rows:
                raise FormatError(f"{path}:{lineno}: duplicate node line for {node}")
            rows[node] = comms
            max_node = max(max_node, node)
            if comms:
                max_comm = max(max_comm, max(comms))
    n_nodes = max_node + 1 if declared_n is None else declared_n
    n_comm = max_comm + 1 if declared_k is None else declared_k
    if max_node >= n_nodes:
        raise FormatError(f"node id {max_node} >= declared #nodes={n_nodes}")
    if max_comm >= n_comm:
        raise FormatError(f"community id {max_comm} >= declared #communities={n_comm}")
    m = np.zeros((n_nodes, max(n_comm, 0)), dtype=np.uint8)
    for node, comms in rows.items():
        m[node, comms] = 1
    return Cover(memberships=m)


def _h_scalar(count, n):
    if count <= 0:
        return 0.0
    p = count / n
    return -p * np.log(p)


def onmi_loop(x, y):
    """ONMI of two covers by the per-pair double loop the vectorised one
    replaced, in its exact float operation order."""
    if x.n_nodes != y.n_nodes:
        raise ValueError("covers disagree on the number of nodes")
    n = x.n_nodes
    ma = x.memberships.astype(np.float64)
    mb = y.memberships.astype(np.float64)
    a = ma[:, ma.sum(axis=0) > 0]
    b = mb[:, mb.sum(axis=0) > 0]
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0

    def cond_norm(a, b):
        overlap = a.T @ b
        size_a = a.sum(axis=0)
        size_b = b.sum(axis=0)
        total = 0.0
        for i in range(a.shape[1]):
            h_ai = _h_scalar(size_a[i], n) + _h_scalar(n - size_a[i], n)
            best = h_ai
            for j in range(b.shape[1]):
                n11 = overlap[i, j]
                n10 = size_a[i] - n11
                n01 = size_b[j] - n11
                n00 = n - n11 - n10 - n01
                if _h_scalar(n11, n) + _h_scalar(n00, n) < _h_scalar(n10, n) + _h_scalar(n01, n):
                    continue
                h_bj = _h_scalar(size_b[j], n) + _h_scalar(n - size_b[j], n)
                joint = (_h_scalar(n11, n) + _h_scalar(n10, n) + _h_scalar(n01, n)
                         + _h_scalar(n00, n))
                best = min(best, joint - h_bj)
            if h_ai > 0:
                total += best / h_ai
        return total / a.shape[1]

    value = 1.0 - 0.5 * (cond_norm(a, b) + cond_norm(b, a))
    return float(min(max(value, 0.0), 1.0))


# The training epoch's arithmetic written the straightforward way: every
# activation is cached as float64 and every step returns a fresh array. The
# package's epoch must match it bit for bit, so a change to its buffer
# handling cannot change a result. The loss head (masks and BCE) is the
# package's own; it is tested on its own.

def gcn_forward_reference(params, p_mat, px, cache=None):
    """GCN branch over ``px = p_mat @ x``; caches each rectified layer's
    input and pre-activation. Without activate_final, the linear last layer
    is folded into the head: the result is ``P (Z (W head)) + b head``, and
    the cache keeps Z."""
    n_rectified = len(params.gcn_w) - (0 if params.activate_final else 1)
    if cache is not None:
        cache["gcn_m"] = []
        cache["gcn_pre"] = []
    m = px
    for l in range(n_rectified):
        if l > 0:
            m = p_mat @ z
        pre = m @ params.gcn_w[l]
        pre += params.gcn_b[l]
        if cache is not None:
            cache["gcn_m"].append(m)
            cache["gcn_pre"].append(pre)
        z = np.maximum(pre, 0.0)
    if not params.activate_final:
        if cache is not None:
            cache["gcn_z"] = z
        w, b, head = params.gcn_w[-1], params.gcn_b[-1], params.head_w
        z = p_mat @ (z @ (w @ head)) + b @ head
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite GCN activations (divergence)")
    return z


def _gcn_backward_reference(params, p_mat, cache, d_out, grads):
    d = d_out
    if not params.activate_final:  # d_out is dL/dlogits of the folded last layer
        w, b, head = params.gcn_w[-1], params.gcn_b[-1], params.head_w
        e = p_mat @ d
        z_e = cache.pop("gcn_z").T @ e
        d_sum = d.sum(axis=0)
        grads.gcn_w[-1] += z_e @ head.T
        grads.gcn_b[-1] += head @ d_sum
        grads.head_w += w.T @ z_e
        grads.head_w += np.outer(b, d_sum)
        d = e @ (w @ head).T
    for l in reversed(range(len(cache["gcn_pre"]))):
        d *= cache["gcn_pre"].pop() > 0
        grads.gcn_w[l] += cache["gcn_m"].pop().T @ d
        grads.gcn_b[l] += d.sum(axis=0)
        if l > 0:
            d = p_mat @ (d @ params.gcn_w[l].T)


def _gt_forward_reference(params, x, gamma, cache=None):
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
    with np.errstate(over="ignore"):
        qn = np.linalg.norm(q)
        kn = np.linalg.norm(k)
    if qn == 0.0 or kn == 0.0:
        raise DegenerateProjectionError("Q or K has zero Frobenius norm")
    if not (np.isfinite(qn) and np.isfinite(kn)):
        raise DegenerateProjectionError("Q or K has a non-finite Frobenius norm")
    q /= qn
    k /= kn
    s = k.sum(axis=0)
    denom = q @ s
    denom /= n
    denom += 1.0
    w_kv = k.T @ v
    u = q @ w_kv
    u /= n
    u += v
    z_gt = u / denom[:, None]
    z_gt *= gamma
    z_gt += (1.0 - gamma) * z0
    if cache is not None:
        cache.update(
            gt_z0=z0, gt_v=v, gt_qn=qn, gt_kn=kn, gt_qt=q, gt_kt=k, gt_s=s,
            gt_denom=denom, gt_wkv=w_kv, gt_u=u,
        )
    return z_gt


def _normalized_backward_reference(d_t, t, norm):
    t *= (d_t * t).sum()
    d_t -= t
    d_t /= norm
    return d_t


def _gt_backward_reference(params, x, gamma, cache, d_out, grads):
    n = x.shape[0]
    denom, u = cache.pop("gt_denom"), cache.pop("gt_u")
    d_u = gamma * d_out
    d_u /= denom[:, None]
    u *= d_out
    d_denom = -gamma * u.sum(axis=1) / denom**2
    d_z0 = d_out
    d_z0 *= 1.0 - gamma

    qt, kt = cache.pop("gt_qt"), cache.pop("gt_kt")
    d_qt = d_u @ cache.pop("gt_wkv").T
    d_qt /= n
    d_wkv = (qt.T @ d_u) / n
    d_kt = cache.pop("gt_v") @ d_wkv.T
    d_v = d_u
    d_v += kt @ d_wkv

    d_outer = np.outer(d_denom, cache.pop("gt_s"))
    d_outer /= n
    d_qt += d_outer
    d_s = (qt.T @ d_denom) / n
    d_kt += d_s[None, :]

    d_q = _normalized_backward_reference(d_qt, qt, cache.pop("gt_qn"))
    d_k = _normalized_backward_reference(d_kt, kt, cache.pop("gt_kn"))

    z0 = cache.pop("gt_z0")
    grads.gt_q_w += z0.T @ d_q
    grads.gt_q_b += d_q.sum(axis=0)
    grads.gt_k_w += z0.T @ d_k
    grads.gt_k_b += d_k.sum(axis=0)
    grads.gt_v_w += z0.T @ d_v
    grads.gt_v_b += d_v.sum(axis=0)

    d_proj = d_q @ params.gt_q_w.T
    d_proj += d_k @ params.gt_k_w.T
    d_proj += d_v @ params.gt_v_w.T
    d_z0 += d_proj
    grads.input_proj_w += x.T @ d_z0
    grads.input_proj_b += d_z0.sum(axis=0)


def _sigmoid_reference(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def predict_reference(params, fusion, p_mat, x, px, cache=None):
    """Fused community probabilities: the GCN branch first, then attention.
    A linear last GCN layer is folded into the head, and the two branches
    meet in the logits."""
    z_gcn = gcn_forward_reference(params, p_mat, px, cache)
    fused = _gt_forward_reference(params, x, fusion.gamma, cache)
    fused *= fusion.beta
    if params.activate_final:
        fused += fusion.alpha * z_gcn
        logits = fused @ params.head_w
    else:
        logits = fused @ params.head_w
        logits += fusion.alpha * z_gcn
    logits += params.head_b
    if cache is not None:
        cache["fused"] = fused
    return _sigmoid_reference(logits)


def loss_and_gradients_reference(params, fusion, p_mat, x, px, sampled, pseudo, lam1, lam2):
    """(loss, grads) with grads a ``ModelParams`` laid out like params."""
    cache = {}
    c_pred = predict_reference(params, fusion, p_mat, x, px, cache)
    value, d_logits = loss(c_pred, sampled, pseudo, lam1, lam2)
    grads = ModelParams(params.dims, params.activate_final)
    d_logits *= c_pred
    d_logits *= 1.0 - c_pred
    grads.head_w += cache.pop("fused").T @ d_logits
    grads.head_b += d_logits.sum(axis=0)
    d_fused = d_logits @ params.head_w.T
    d_gcn = d_fused if params.activate_final else d_logits
    _gcn_backward_reference(params, p_mat, cache, fusion.alpha * d_gcn, grads)
    d_fused *= fusion.beta
    _gt_backward_reference(params, x, fusion.gamma, cache, d_fused, grads)
    return value, grads
