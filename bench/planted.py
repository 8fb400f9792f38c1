"""Seeded sparse planted overlapping partition for the ``pseudo_cli`` workload.

``wocd.synth_graph`` draws a dense N x N uniform matrix. This generator draws
each community's internal edges from its own member block instead, which keeps
memory at O(sum of community sizes squared) and the result fully determined by
``seed``.

Half of each node's intra-community degree comes from a ring lattice over the
community's members, so communities have the local clustering that weak
cliques look for. With Bernoulli edges alone, weak cliques have 3.6 members,
most of them get no sampled vote, and the clique-vote ONMI sits near 0.09 and
moves by +-30% from seed to seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

OVERLAP_FRACTION = 0.15  # nodes with a second community
LATTICE_REACH = 4  # ring-lattice neighbours on each side, inside each community
BERNOULLI_DEGREE = 8.0  # expected further neighbours inside each community
RANDOM_DEGREE = 2.0  # expected neighbours drawn uniformly from all nodes


@dataclass(frozen=True)
class PlantedConfig:
    n_nodes: int = 8_000
    n_communities: int = 100


@dataclass(frozen=True)
class Planted:
    edges: np.ndarray  # (M, 2) int64, u < v, lexicographic, unique
    memberships: np.ndarray  # (N, K) uint8

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.edges, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.memberships, dtype=np.uint8).tobytes())
        return h.hexdigest()


def planted_partition(config: PlantedConfig, seed: int) -> Planted:
    """Equal-size primary communities on shuffled ids, some nodes with one
    extra community, a ring lattice plus Bernoulli edges inside every
    community and a sprinkle of uniform random edges."""
    rng = np.random.default_rng(seed)
    n, k = config.n_nodes, config.n_communities
    primary = rng.permutation(n) % k
    memb = np.zeros((n, k), dtype=np.uint8)
    memb[np.arange(n), primary] = 1
    n_overlap = int(round(OVERLAP_FRACTION * n))
    if n_overlap and k > 1:
        chosen = rng.choice(n, size=n_overlap, replace=False)
        memb[chosen, (primary[chosen] + rng.integers(1, k, size=n_overlap)) % k] = 1

    parts = []
    for c in range(k):
        members = np.flatnonzero(memb[:, c])
        s = members.size
        if s < 2:
            continue
        ring = rng.permutation(members)
        for step in range(1, LATTICE_REACH + 1):
            parts.append(np.stack([ring, np.roll(ring, -step)], axis=1))
        iu, ju = np.triu_indices(s, k=1)
        keep = rng.random(iu.size) < min(1.0, BERNOULLI_DEGREE / (s - 1))
        parts.append(np.stack([members[iu[keep]], members[ju[keep]]], axis=1))
    n_random = int(round(RANDOM_DEGREE * n / 2))
    parts.append(rng.integers(0, n, size=(n_random, 2)))

    e = np.concatenate(parts)
    e = e[e[:, 0] != e[:, 1]]
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    key = np.unique(lo * n + hi)
    edges = np.stack([key // n, key % n], axis=1).astype(np.int64)
    return Planted(edges=edges, memberships=memb)
