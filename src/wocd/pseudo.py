"""Pseudo-label construction from weak cliques and confidence-based refresh."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cliques import CliqueSet
from .graph import Cover, SampledLabels, check_field_types


@dataclass(frozen=True)
class PseudoConfig:
    r_c: int = 1  # communities retained per clique vote
    tau: float = 0.9  # confidence threshold for the refresh round

    def __post_init__(self):
        check_field_types(self)
        if self.r_c < 1:
            raise ValueError("r_c must be >= 1")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must be in (0, 1)")


def construct_pseudo_labels(
    cliques: CliqueSet,
    sampled: SampledLabels,
    n_nodes: int,
    n_communities: int,
    r_c: int,
) -> Cover:
    """Clique-vote pseudo-labels.

    Each clique sums the revealed ground-truth rows of its sampled members,
    keeps the r_c most-voted communities (zero-vote communities are never
    kept; ties break toward the smaller id), and stamps that label onto all
    of its members. Accumulated stamps are binarized at the end, so the
    result is independent of clique order.
    """
    if r_c < 1:
        raise ValueError("r_c must be >= 1")
    if sampled.node_ids.size and sampled.node_ids.max() >= n_nodes:
        raise ValueError("sampled node id out of range")
    if sampled.rows.shape[1] != n_communities:
        raise ValueError("sampled rows do not match the community count")

    incidence = cliques.incidence
    if incidence.shape[1] != n_nodes:
        raise ValueError("clique incidence does not match the node count")

    # votes[i] = sum of the sampled rows of the members of clique voted[i]
    by_sampled = incidence[:, sampled.node_ids]
    voted = np.flatnonzero(np.diff(by_sampled.indptr))
    votes = by_sampled[voted] @ sampled.rows.astype(np.int32)
    ranked = np.argsort(-votes, axis=1, kind="stable")[:, :r_c]
    keep = np.take_along_axis(votes, ranked, axis=1) > 0
    clique_of, slot = np.nonzero(keep)
    labels = sp.csr_array(
        (np.ones(clique_of.size, dtype=np.int32), (clique_of, ranked[clique_of, slot])),
        shape=(voted.size, n_communities),
    )
    # stamp each clique's label on all of its members
    stamped = (incidence[voted].T @ labels).tocoo()
    memberships = np.zeros((n_nodes, n_communities), dtype=np.uint8)
    memberships[stamped.row, stamped.col] = 1
    return Cover(memberships=memberships)


def binarize(c_pred: np.ndarray, threshold: float) -> Cover:
    """Membership iff predicted probability >= threshold; empty rows allowed."""
    c_pred = np.asarray(c_pred, dtype=np.float64)
    if c_pred.size and (c_pred.min() < 0.0 or c_pred.max() > 1.0):
        raise ValueError("predictions must lie in [0, 1]")
    return Cover(memberships=(c_pred >= threshold).astype(np.uint8))


def refresh_pseudo_labels(c_pred: np.ndarray, sampled: SampledLabels, tau: float) -> Cover:
    """Threshold model predictions into a replacement pseudo cover.

    Sampled nodes are excluded entirely (their true rows drive the other
    loss term); a non-sampled node keeps community k iff its predicted
    probability is >= tau.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError("tau must be in (0, 1)")
    pseudo = binarize(c_pred, tau)
    pseudo.memberships[sampled.node_ids] = 0
    return pseudo


def pseudo_rows(cover: Cover, sampled: SampledLabels) -> np.ndarray:
    """Ascending ids of the non-sampled nodes carrying a pseudo community."""
    labeled = cover.memberships.any(axis=1)
    labeled[sampled.node_ids] = False
    return np.flatnonzero(labeled)


def pseudo_coverage(cover: Cover, sampled: SampledLabels) -> int:
    """Number of non-sampled nodes carrying at least one pseudo community."""
    return pseudo_rows(cover, sampled).size
