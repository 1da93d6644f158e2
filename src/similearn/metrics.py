"""Clustering evaluation: Hungarian-matched accuracy and NMI.

Both metrics are invariant to how either side labels its groups.
Accuracy maps predicted clusters to true classes by optimal one-to-one
assignment on the contingency table; NMI is mutual information divided
by the larger of the two partition entropies (natural log, so the base
cancels).
"""

import numpy as np


def _check_pair(pred, truth):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size == 0:
        raise ValueError("empty assignment vectors")
    if pred.size != truth.size:
        raise ValueError(
            f"length mismatch: pred has {pred.size}, truth has {truth.size}"
        )
    return pred, truth


def contingency(pred, truth) -> np.ndarray:
    """Count matrix indexed (predicted group, true group).

    Group ids may be arbitrary hashables; rows and columns follow the
    sorted unique values of each side.
    """
    pred, truth = _check_pair(pred, truth)
    pu, pi = np.unique(pred, return_inverse=True)
    tu, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pu.size, tu.size), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return counts


def hungarian(cost) -> np.ndarray:
    """Minimum-cost injective row-to-column assignment.

    Every row is matched when rows do not outnumber columns; otherwise
    every column is. Returns, per row, the assigned column, or -1 for a
    row left unmatched. Shortest augmenting paths with row and column
    potentials (Jonker & Volgenant 1987), on the transpose when r > c.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or not np.all(np.isfinite(cost)):
        raise ValueError(f"cost matrix must be 2-D with finite entries, got shape {cost.shape}")
    transposed = cost.shape[0] > cost.shape[1]
    a = cost.T if transposed else cost
    r, c = a.shape
    u, v = np.zeros(r), np.zeros(c + 1)
    # row matched to each column, -1 if none; column c is each search's root
    row_of = np.full(c + 1, -1)
    for i in range(r):
        row_of[c], j = i, c
        minv, way, used = np.full(c, np.inf), np.zeros(c, dtype=int), np.zeros(c + 1, dtype=bool)
        while row_of[j] >= 0:  # grow the shortest-path tree until it reaches a free column
            used[j], i0 = True, row_of[j]
            reduced = a[i0] - u[i0] - v[:c]
            better = ~used[:c] & (reduced < minv)
            minv[better], way[better] = reduced[better], j
            j = int(np.where(used[:c], np.inf, minv).argmin())
            delta = minv[j]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used[:c]] -= delta
        while j != c:  # augment along the path back to the root
            row_of[j] = row_of[way[j]]
            j = way[j]
    cols = np.flatnonzero(row_of[:c] >= 0)
    return row_of[:c] if transposed else cols[np.argsort(row_of[cols])]


def accuracy(pred, truth) -> float:
    """Best achievable agreement under one-to-one cluster-to-class mapping."""
    w = contingency(pred, truth)
    # negate counts so minimum cost = maximum agreement; surplus clusters
    # stay unmatched, which is what they mean
    match = hungarian(-w.astype(float))
    total = sum(w[i, j] for i, j in enumerate(match) if j >= 0)
    return float(total) / int(w.sum())


def nmi(pred, truth) -> float:
    """Mutual information over max entropy, in [0, 1].

    Conventions for the degenerate cases: two single-group partitions
    are identical (1.0); a single-group partition against a real split
    carries no information (0.0).
    """
    w = contingency(pred, truth)
    p = w / int(w.sum())
    pi = p.sum(axis=1)
    pj = p.sum(axis=0)
    hi = float(-np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    hj = float(-np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if hi == 0.0 and hj == 0.0:
        return 1.0
    if hi == 0.0 or hj == 0.0:
        return 0.0
    nz = p > 0
    outer = pi[:, None] * pj[None, :]
    mi = float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))
    return max(mi, 0.0) / max(hi, hj)
