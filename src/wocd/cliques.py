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


# scalar products of A @ (A + I) per row block: a block's product holds at
# most max(CLIQUE_BLOCK_WORK, n) entries, and each worker has one block in flight
CLIQUE_BLOCK_WORK = 1 << 18


def _clique_blocks(adj: sp.csr_array) -> list:
    """Row bounds of the blocks of ``_slot_common``: row u of A @ (A + I)
    takes (A @ (d + 1))[u] products, the closed degrees of u's neighbors summed."""
    work = adj @ (np.diff(adj.indptr).astype(np.int64) + 1)
    return row_blocks(np.concatenate([[0], np.cumsum(work)]), CLIQUE_BLOCK_WORK)


def _slot_common(adj: sp.csr_array, closed: sp.csr_array) -> np.ndarray:
    """Common-neighbor count of every directed edge slot, in ``indices`` order.

    The masked product (A @ (A + I)) o A, with ``closed`` = A + I, taken a
    block of ``_clique_blocks`` rows at a time on every CPU; each edge slot
    holds its count plus 1, so none drops out of the elementwise product.
    """
    out = np.empty(adj.nnz, dtype=np.int64)

    def block(r0, r1):
        blk = adj[r0:r1]
        counted = (blk @ closed) * blk
        counted.sort_indices()  # the product's rows come out unsorted
        out[adj.indptr[r0]:adj.indptr[r1]] = counted.data - 1

    run_row_blocks(block, _clique_blocks(adj))
    return out


def _scores(adj: sp.csr_array, closed: sp.csr_array, deg: np.ndarray, src: np.ndarray) -> tuple:
    """Node priorities and the Salton index of every edge slot, in ``indices`` order.

    With ``deg`` the degrees and ``src`` each slot's row, a node of degree d
    whose neighbors share m edges has priority (m + d) / (d + 1), which is 0
    when isolated; edge (u, v) has Salton index |N(u) & N(v)| / sqrt(d_u * d_v).
    """
    slot_common = _slot_common(adj, closed)
    degrees = deg.astype(np.float64)
    m = np.bincount(src, weights=slot_common, minlength=deg.size) / 2.0
    priority = (m + degrees) / (degrees + 1.0)
    inv_sqrt_d = 1.0 / np.sqrt(np.maximum(degrees, 1.0))  # read only at edge slots
    return priority, slot_common * inv_sqrt_d[src] * inv_sqrt_d[adj.indices]


def _clique_incidence(closed: sp.csr_array, seed_u: np.ndarray, seed_v: np.ndarray) -> sp.csr_array:
    """Row i is N[u] o N[v] for u, v = seed_u[i], seed_v[i]: {u, v} and their
    common neighbors, from the closed neighborhoods A + I, with sorted columns."""
    incidence = closed[seed_u] * closed[seed_v]
    incidence.sort_indices()
    return incidence


def identify_weak_cliques(graph: Graph) -> CliqueSet:
    """Greedy weak-clique extraction.

    One pass over the nodes that have edges, in descending priority with
    ties toward the smaller id: a node not yet taken starts a weak clique
    with its most Salton-similar neighbor (already-taken neighbors stay
    eligible), and that neighbor is taken, so it starts none later.
    Isolated nodes are never visited and emit nothing.

    The common-neighbor counts take O(sum of squared degrees) work, spread
    over every CPU, and each worker's block product holds at most
    max(CLIQUE_BLOCK_WORK, n) entries; the rest is linear in the edge count.
    """
    n = graph.n_nodes
    adj, deg = graph.adjacency(), graph.degrees()
    closed = adj + sp.eye_array(n, dtype=np.int32, format="csr")
    src = np.repeat(np.arange(n), deg)
    priority, si = _scores(adj, closed, deg, src)

    # each node's partner is its first (smallest-id) most Salton-similar
    # neighbor; taken neighbors stay eligible, so it is fixed up front
    partner = np.full(n, -1, dtype=np.int64)
    linked = np.flatnonzero(deg)  # reduceat mishandles the empty segments of isolated nodes
    row_max = np.zeros(n)
    row_max[linked] = np.maximum.reduceat(si, graph.indptr[linked])
    hits = np.flatnonzero(si == row_max[src])
    rows, first = np.unique(src[hits], return_index=True)
    partner[rows] = graph.indices[hits[first]]

    # priorities are fixed, so one stable descending sort of the linked ids
    # (smallest id first among ties) enumerates the argmax picks; each node
    # comes up once, so it starts a clique unless an earlier start took it
    order = linked[np.argsort(-priority[linked], kind="stable")]
    seeds, taken = [], set()
    for u, v in zip(order.tolist(), partner[order].tolist()):
        if u not in taken:
            seeds.append(u)
            taken.add(v)

    seed_u = np.array(seeds, dtype=np.int64)
    seed_v = partner[seed_u]
    incidence = _clique_incidence(closed, seed_u, seed_v)
    return CliqueSet(seed_u=seed_u, seed_v=seed_v, incidence=incidence)
