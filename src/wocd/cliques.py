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


def _adjacency(graph: Graph) -> sp.csr_array:
    n, ones = graph.n_nodes, np.ones(graph.indices.size, dtype=np.int32)
    return sp.csr_array((ones, graph.indices, graph.indptr), shape=(n, n))


def _scores(adj: sp.csr_array) -> tuple:
    """Node priorities and the Salton index of every edge slot, in ``indices`` order.

    A node of degree d whose neighbors share m edges has priority
    (m + d) / (d + 1), or 0 when isolated; edge (u, v) has Salton index
    |N(u) & N(v)| / sqrt(d_u * d_v).
    """
    n = adj.shape[0]
    slot_common = _slot_common(adj)
    deg = np.diff(adj.indptr)
    degrees = deg.astype(np.float64)
    src = np.repeat(np.arange(n), deg)
    m = np.bincount(src, weights=slot_common, minlength=n) / 2.0
    priority = np.where(degrees > 0, (m + degrees) / (degrees + 1.0), 0.0)
    inv_sqrt_d = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1.0)), 0.0)
    return priority, slot_common * inv_sqrt_d[src] * inv_sqrt_d[adj.indices]


def _clique_incidence(adj: sp.csr_array, seed_u: np.ndarray, seed_v: np.ndarray) -> sp.csr_array:
    """Row i is N[u] o N[v] for u, v = seed_u[i], seed_v[i]: {u, v} and their
    common neighbors, from the closed neighborhoods, with sorted columns."""
    closed = adj + sp.eye_array(adj.shape[0], dtype=np.int32, format="csr")
    incidence = closed[seed_u] * closed[seed_v]
    incidence.sort_indices()
    return incidence


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
    adj = _adjacency(graph)
    priority, si = _scores(adj)

    # each node's partner is its first (smallest-id) most Salton-similar
    # neighbor; consumed neighbors stay eligible, so it is fixed up front
    deg = np.diff(indptr)
    src = np.repeat(np.arange(n), deg)
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
    incidence = _clique_incidence(adj, seed_u, seed_v)
    return CliqueSet(seed_u=seed_u, seed_v=seed_v, incidence=incidence)
