"""Weak-clique extraction: node priority, Salton similarity, greedy selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph


@dataclass(frozen=True)
class CliqueRecord:
    """A weak clique seeded at edge (seed_u, seed_v).

    members is always {seed_u, seed_v} plus every common neighbor, sorted.
    """

    seed_u: int
    seed_v: int
    members: np.ndarray


@dataclass(frozen=True)
class CliqueSet:
    """Weak cliques in extraction order.

    Clique i is seeded at edge (seed_u[i], seed_v[i]); row i of the
    clique x node CSR matrix ``incidence`` holds its members, with sorted
    column indices and every stored value 1.
    """

    seed_u: np.ndarray
    seed_v: np.ndarray
    incidence: sp.csr_array

    def __len__(self) -> int:
        return self.seed_u.size

    @property
    def cliques(self) -> tuple:
        """The cliques as read-only ``CliqueRecord``s with int64 members."""
        flat = self.incidence.indices.astype(np.int64)
        flat.flags.writeable = False
        members = np.split(flat, self.incidence.indptr[1:-1])
        return tuple(
            CliqueRecord(seed_u=u, seed_v=v, members=m)
            for u, v, m in zip(self.seed_u.tolist(), self.seed_v.tolist(), members)
        )


def _check_node(graph: Graph, u: int) -> None:
    if not (0 <= u < graph.n_nodes):
        raise IndexError(f"node id {u} out of range [0, {graph.n_nodes})")


def _common_neighbors(graph: Graph, u: int, v: int) -> np.ndarray:
    return np.intersect1d(graph.neighbors(u), graph.neighbors(v), assume_unique=True)


def node_priority(graph: Graph, u: int) -> float:
    """(m_u + d_u) / (d_u + 1), with m_u the edge count among u's neighbors."""
    _check_node(graph, u)
    d = graph.degree(u)
    if d == 0:
        return 0.0
    # each neighbor-neighbor edge is seen from both endpoints
    m = sum(_common_neighbors(graph, u, int(v)).size for v in graph.neighbors(u)) / 2
    return (m + d) / (d + 1)


def salton_index(graph: Graph, u: int, v: int) -> float:
    """|n_u ∩ n_v| / sqrt(d_u * d_v); zero when either endpoint is isolated."""
    _check_node(graph, u)
    _check_node(graph, v)
    if u == v:
        raise ValueError("salton_index requires u != v")
    du, dv = graph.degree(u), graph.degree(v)
    if du == 0 or dv == 0:
        return 0.0
    return _common_neighbors(graph, u, v).size / np.sqrt(du * dv)


def weak_clique(graph: Graph, u: int, v: int) -> CliqueRecord:
    """{u, v} plus all common neighbors of the edge (u, v)."""
    _check_node(graph, u)
    _check_node(graph, v)
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    members = np.union1d(np.array([u, v], dtype=np.int64), _common_neighbors(graph, u, v))
    return CliqueRecord(seed_u=u, seed_v=v, members=members)


# rows of A @ A computed at once; bounds the product's memory at
# O(ROW_BLOCK * n) instead of O(sum of squared degrees)
ROW_BLOCK = 512


def _slot_common(adj: sp.csr_array) -> np.ndarray:
    """Common-neighbor count of every directed edge slot, in ``indices`` order.

    The masked product (A @ A) o A, taken ROW_BLOCK rows at a time. Adding
    the block itself keeps the slots of edges with no common neighbor, which
    the elementwise product alone would drop.
    """
    out = np.empty(adj.nnz, dtype=np.int64)
    for r0 in range(0, adj.shape[0], ROW_BLOCK):
        blk = adj[r0:r0 + ROW_BLOCK]
        counted = (blk @ adj) * blk + blk
        counted.sort_indices()  # the product's rows come out unsorted
        out[adj.indptr[r0]:adj.indptr[r0] + blk.nnz] = counted.data - 1
    return out


def identify_weak_cliques(graph: Graph) -> CliqueSet:
    """Greedy weak-clique extraction.

    Repeatedly starts from the remaining node with the highest priority,
    pairs it with its most Salton-similar neighbor (already-consumed
    neighbors stay eligible), records the weak clique, and retires both
    endpoints as future starting points. Ties break toward the smaller id.
    Isolated nodes are retired without emitting anything.

    Work and memory are O(sum of squared degrees) and O(ROW_BLOCK * n) for
    the common-neighbor counts; the rest is linear in the edge count.
    """
    n = graph.n_nodes
    indptr, indices = graph.indptr, graph.indices
    adj = sp.csr_array((np.ones(indices.size, dtype=np.int32), indices, indptr), shape=(n, n))
    slot_common = _slot_common(adj)

    deg = np.diff(indptr)
    degrees = deg.astype(np.float64)
    src = np.repeat(np.arange(n), deg)
    m = np.bincount(src, weights=slot_common, minlength=n) / 2.0
    priority = np.where(degrees > 0, (m + degrees) / (degrees + 1.0), 0.0)

    # each node's partner is its first (smallest-id) most Salton-similar
    # neighbor; consumed neighbors stay eligible, so it is fixed up front
    inv_sqrt_d = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1.0)), 0.0)
    si = slot_common * inv_sqrt_d[src] * inv_sqrt_d[indices]
    partner = np.full(n, -1, dtype=np.int64)
    if si.size:
        linked = deg > 0  # reduceat mishandles the empty segments of isolated nodes
        row_max = np.zeros(n)
        row_max[linked] = np.maximum.reduceat(si, indptr[:-1][linked])
        hits = np.flatnonzero(si == row_max[src])
        rows, first = np.unique(src[hits], return_index=True)
        partner[rows] = indices[hits[first]]

    # priorities are fixed, so a single descending sort (smallest id first
    # among ties) enumerates argmax picks; isolated nodes emit nothing
    order = np.lexsort((np.arange(n), -priority))
    remaining = (deg > 0).tolist()
    partner_of = partner.tolist()
    seeds = []
    for u in order.tolist():
        if remaining[u]:
            v = partner_of[u]
            seeds.append(u)
            remaining[u] = remaining[v] = False

    seed_u = np.array(seeds, dtype=np.int64)
    seed_v = partner[seed_u]
    # closed neighborhoods N[u] o N[v] = {u, v} plus the common neighbors
    closed = adj + sp.eye_array(n, dtype=np.int32, format="csr")
    incidence = closed[seed_u] * closed[seed_v]
    incidence.sort_indices()
    return CliqueSet(seed_u=seed_u, seed_v=seed_v, incidence=incidence)
