"""Weak-clique extraction: node priority, Salton similarity, greedy selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph
from .parallel import row_blocks, run_row_blocks


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


# scalar products of A @ A per row block: a block's product holds at most
# max(CLIQUE_BLOCK_WORK, n) entries, and each worker has one block in flight
CLIQUE_BLOCK_WORK = 1 << 18


def _clique_blocks(adj: sp.csr_array) -> list:
    """Row bounds of the blocks of ``_slot_common``: row u of A @ A takes
    (A @ d)[u] products, the degrees of u's neighbors summed."""
    work = adj @ np.diff(adj.indptr).astype(np.int64)
    return row_blocks(np.concatenate([[0], np.cumsum(work)]), CLIQUE_BLOCK_WORK)


def _slot_common(adj: sp.csr_array) -> np.ndarray:
    """Common-neighbor count of every directed edge slot, in ``indices`` order.

    The masked product (A @ A) o A, taken a block of ``_clique_blocks`` rows
    at a time on every CPU. Adding the block itself keeps the slots of edges
    with no common neighbor, which the elementwise product alone would drop.
    """
    out = np.empty(adj.nnz, dtype=np.int64)

    def block(r0, r1):
        blk = adj[r0:r1]
        counted = (blk @ adj) * blk + blk
        counted.sort_indices()  # the product's rows come out unsorted
        out[adj.indptr[r0]:adj.indptr[r1]] = counted.data - 1

    run_row_blocks(block, _clique_blocks(adj))
    return out


def _scores(adj: sp.csr_array, deg: np.ndarray, src: np.ndarray) -> tuple:
    """Node priorities and the Salton index of every edge slot, in ``indices`` order.

    With ``deg`` the degrees and ``src`` each slot's row, a node of degree d
    whose neighbors share m edges has priority (m + d) / (d + 1), which is 0
    when isolated; edge (u, v) has Salton index |N(u) & N(v)| / sqrt(d_u * d_v).
    """
    slot_common = _slot_common(adj)
    degrees = deg.astype(np.float64)
    m = np.bincount(src, weights=slot_common, minlength=deg.size) / 2.0
    priority = (m + degrees) / (degrees + 1.0)
    inv_sqrt_d = 1.0 / np.sqrt(np.maximum(degrees, 1.0))  # read only at edge slots
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

    The common-neighbor counts take O(sum of squared degrees) work, spread
    over every CPU, and each worker's block product holds at most
    max(CLIQUE_BLOCK_WORK, n) entries; the rest is linear in the edge count.
    """
    n = graph.n_nodes
    indptr, indices = graph.indptr, graph.indices
    adj, deg = graph.adjacency(), graph.degrees()
    src = np.repeat(np.arange(n), deg)
    priority, si = _scores(adj, deg, src)

    # each node's partner is its first (smallest-id) most Salton-similar
    # neighbor; consumed neighbors stay eligible, so it is fixed up front
    partner = np.full(n, -1, dtype=np.int64)
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
