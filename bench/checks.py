"""Output checks the benchmark applies to every operation, independent of wocd."""

from __future__ import annotations

import hashlib

import numpy as np

ONMI_TOLERANCE = 1e-9  # summation order differs from the program's loop


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _h(count, n):
    """-p log p, elementwise, with 0 log 0 = 0."""
    p = np.asarray(count, dtype=np.float64) / n
    return np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)


def _conditional_norm(a, b, n):
    n11 = a.T @ b
    size_a = a.sum(axis=0)[:, None]
    size_b = b.sum(axis=0)[None, :]
    n10, n01 = size_a - n11, size_b - n11
    n00 = n - n11 - n10 - n01
    admitted = _h(n11, n) + _h(n00, n) >= _h(n10, n) + _h(n01, n)
    joint = _h(n11, n) + _h(n10, n) + _h(n01, n) + _h(n00, n)
    h_b = _h(size_b, n) + _h(n - size_b, n)
    h_a = (_h(size_a, n) + _h(n - size_a, n))[:, 0]
    best = np.minimum(h_a, np.where(admitted, joint - h_b, np.inf).min(axis=1))
    ratio = np.where(h_a > 0, best / np.where(h_a > 0, h_a, 1.0), 0.0)
    return ratio.sum() / a.shape[1]


def reference_onmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Overlapping NMI with the lack-of-information constraint, vectorised
    over community pairs; the definition ``wocd.onmi`` documents."""
    n = pred.shape[0]
    a = pred[:, pred.sum(axis=0) > 0].astype(np.float64)
    b = truth[:, truth.sum(axis=0) > 0].astype(np.float64)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    value = 1.0 - 0.5 * (_conditional_norm(a, b, n) + _conditional_norm(b, a, n))
    return float(min(max(value, 0.0), 1.0))


def pseudo_counts(pseudo: np.ndarray, truth: np.ndarray, sampled_ids) -> tuple:
    """(true, all) pseudo memberships on non-sampled nodes."""
    keep = np.ones(truth.shape[0], dtype=bool)
    keep[sampled_ids] = False
    given = pseudo[keep].astype(bool)
    return int((given & truth[keep].astype(bool)).sum()), int(given.sum())


def check_cover(cover: np.ndarray, truth: np.ndarray, reported_onmi: float) -> list:
    """Problems with one operation's final cover; empty when it passes."""
    problems = []
    if cover.shape != truth.shape:
        problems.append(f"cover shape {cover.shape} != {truth.shape}")
        return problems
    if not np.isin(cover, (0, 1)).all():
        problems.append("cover is not binary")
    expected = reference_onmi(cover, truth)
    if not abs(expected - reported_onmi) <= ONMI_TOLERANCE:
        problems.append(f"onmi {reported_onmi!r} != recomputed {expected!r}")
    return problems


def read_cover(path) -> np.ndarray:
    """Parse a ``node: c1 c2`` cover file without going through wocd; the
    shape comes from its ``#nodes=`` and ``#communities=`` headers."""
    header, rows = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key] = int(value)
            elif line.strip():
                node, _, comms = line.partition(":")
                rows.extend((int(node), int(c)) for c in comms.split())
    m = np.zeros((header["nodes"], header["communities"]), dtype=np.uint8)
    if rows:
        idx = np.array(rows)
        m[idx[:, 0], idx[:, 1]] = 1
    return m
