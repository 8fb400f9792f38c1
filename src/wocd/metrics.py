"""Overlapping NMI between covers, plus summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Cover


@dataclass(frozen=True)
class MetricReport:
    onmi: float
    n_pred_communities: int
    n_unassigned: int


def _h(count: np.ndarray, n: int) -> np.ndarray:
    """Elementwise -p log p of counts; 0 log 0 = 0, natural log."""
    p = count / n
    out = np.zeros_like(p)
    pos = count > 0
    out[pos] = -p[pos] * np.log(p[pos])
    return out


def _nonempty_columns(cover: Cover) -> np.ndarray:
    m = cover.memberships
    return m[:, m.any(axis=0)].astype(np.float64)


def _conditional_norm(n11: np.ndarray, size_a: np.ndarray, size_b: np.ndarray,
                      n: int) -> float:
    """Mean over communities A_i of H(A_i|B)/H(A_i), best-match per community,
    from the overlaps n11[i, j] = |A_i ∩ B_j| and the community sizes.

    A pairwise conditional entropy is admitted only under the
    lack-of-information constraint h(n11)+h(n00) >= h(n10)+h(n01); otherwise
    the unconditional H(A_i) is used. Zero-entropy columns contribute 0
    (their conditional entropy is necessarily 0 as well).
    """
    n10 = size_a[:, None] - n11
    n01 = size_b[None, :] - n11
    n00 = n - n11 - n10 - n01
    h11, h10, h01, h00 = _h(n11, n), _h(n10, n), _h(n01, n), _h(n00, n)
    h_a = _h(size_a, n) + _h(n - size_a, n)
    h_b = _h(size_b, n) + _h(n - size_b, n)
    joint = h11 + h10 + h01 + h00
    admitted = h11 + h00 >= h10 + h01
    best = np.minimum(h_a, np.where(admitted, joint - h_b, np.inf).min(axis=1))
    # a sequential sum, not np.sum's pairwise one, keeps the float reproducible
    # against the per-pair definition
    ratios = best[h_a > 0] / h_a[h_a > 0]
    total = np.add.accumulate(ratios)[-1] if ratios.size else 0.0
    return total / size_a.size


def onmi(x: Cover, y: Cover) -> float:
    """Overlapping NMI: 1 - [H(X|Y)_norm + H(Y|X)_norm] / 2.

    Each community is a binary variable over the node set; empty communities
    are dropped; either cover being empty yields 0.
    """
    if x.n_nodes != y.n_nodes:
        raise ValueError("covers disagree on the number of nodes")
    n = x.n_nodes
    a = _nonempty_columns(x)
    b = _nonempty_columns(y)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    n11 = a.T @ b  # integer counts, so exact in any summation order
    size_a, size_b = a.sum(axis=0), b.sum(axis=0)
    value = 1.0 - 0.5 * (_conditional_norm(n11, size_a, size_b, n)
                         + _conditional_norm(n11.T, size_b, size_a, n))
    return float(min(max(value, 0.0), 1.0))


def metric_report(pred: Cover, truth: Cover) -> MetricReport:
    nonempty = int((pred.memberships.sum(axis=0) > 0).sum())
    unassigned = int((~pred.memberships.any(axis=1)).sum())
    return MetricReport(
        onmi=onmi(pred, truth),
        n_pred_communities=nonempty,
        n_unassigned=unassigned,
    )
