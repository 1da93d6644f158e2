"""Graph-based semi-supervised classification.

Implements local-and-global-consistency label propagation: given a
Laplacian L, a partial one-hot label matrix Y and a fitting weight
gamma, the score matrix solves (L + gamma I) F = gamma Y. ssl_experiment
predicts row argmaxes, with ties broken toward the lowest class id.

ssl_experiment runs the stratified-sampling protocol: per repeat, a
fraction of each class is labeled; all repeats' labels are propagated
in one solve over the graph built from a learned coefficient matrix,
and each repeat is scored on its own unlabeled samples only.
"""

import math
import numbers

import numpy as np

from .graph import build_graph, laplacian
from .solver import _solve_spd, require_number

DEFAULT_REPEATS = 20
DEFAULT_GAMMA = 1.0


def make_label_matrix(labels, mask, c) -> np.ndarray:
    """n x c partial label matrix: one-hot on masked rows, zero elsewhere."""
    labels = np.asarray(labels)
    Y = np.zeros((labels.shape[0], c))
    idx = np.flatnonzero(mask)
    Y[idx, labels[idx]] = 1.0
    return Y


def lgc_propagate(L, Y, gamma) -> np.ndarray:
    """Scores F solving (L + gamma I) F = gamma Y.

    Each column of F depends on its own column of Y alone, so Y may hold
    several label matrices side by side; ssl_experiment propagates all
    its repeats in one solve, which holds one n x n array besides L.
    L and Y must be finite. L's smallest eigenvalue is 0 and the rounding
    error of L + gamma I's Cholesky factor is about n eps d, d the largest
    degree (diagonal entry of L); so gamma <= n eps d, where the factoring
    fails or F is rounding noise, raises ValueError: rescale Z or raise gamma.
    """
    _check_gamma(gamma)
    if not (np.isfinite(L).all() and np.isfinite(Y).all()):
        raise ValueError("L and Y must be finite")
    degree = float(np.max(L.diagonal(), initial=0.0))
    if gamma <= len(L) * np.finfo(float).eps * degree:
        raise ValueError(
            f"L + gamma I is numerically singular: gamma = {gamma!r} <= n eps d, where "
            f"d = {degree:.3e} is the graph's largest degree; rescale Z or raise gamma"
        )
    msg = "L + gamma I is not positive definite; L must be a PSD Laplacian"
    return gamma * _solve_spd(L, Y, gamma, "L + gamma I", msg)  # ValueError on a shape mismatch


def check_protocol(fraction, repeats, gamma):
    """Raise ValueError unless fraction is in (0, 1), repeats an integer >= 1, gamma > 0."""
    if not 0 < require_number("fraction", fraction) < 1:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")
    if require_number("repeats", repeats, numbers.Integral) < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats!r}")
    _check_gamma(gamma)


def _check_gamma(gamma):
    if require_number("gamma", gamma) <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")


def _class_indices(labels):
    """Indices per class; labels must be integer ids 0..c-1, every class nonempty."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0:
        raise ValueError("labels must be nonnegative integer class ids; relabel densely first")
    c = int(labels.max()) + 1
    groups = [np.flatnonzero(labels == k) for k in range(c)]
    for k, g in enumerate(groups):
        if g.size == 0:
            raise ValueError(f"class {k} has no samples; relabel densely first")
    return groups, c


def ssl_experiment(
    Z, labels, fraction, repeats=DEFAULT_REPEATS, gamma=DEFAULT_GAMMA, seed=0
):
    """Stratified label-propagation protocol over a learned Z.

    Parameters
    ----------
    Z : ndarray of shape (n, n)
        Learned coefficient matrix.
    labels : integer ndarray of shape (n,)
        Ground-truth class ids 0..c-1, every class present, one per row
        of Z; a count mismatch raises ValueError before any label is drawn.
    fraction : float in (0, 1)
        Per-class share of samples to label, rounded up to at least one.
    repeats : int >= 1
        Number of random labeled sets; each gets its own rng spawned
        from the master seed, and all are propagated in one solve.
    gamma : float > 0
        LGC fitting weight.

    Returns
    -------
    (mean_acc, std_acc, per_repeat)
        Mean and population std of the accuracy on unlabeled samples,
        and the list of each repeat's accuracy.
    """
    check_protocol(fraction, repeats, gamma)
    labels = np.asarray(labels)
    n = labels.shape[0]
    groups, c = _class_indices(labels)
    L = laplacian(build_graph(Z))
    if n != L.shape[0]:
        raise ValueError(f"label count {n} does not match Z's sample count {L.shape[0]}")
    sizes = [max(1, math.ceil(fraction * g.size)) for g in groups]
    if sum(sizes) >= n:
        raise ValueError(
            "no unlabeled samples left to evaluate; lower the fraction"
        )

    masks = np.zeros((repeats, n), dtype=bool)
    for mask, ss in zip(masks, np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(ss)
        for g, k in zip(groups, sizes):
            mask[rng.choice(g, size=k, replace=False)] = True

    # one solve for every repeat: their label matrices side by side, c columns each
    Y = np.hstack([make_label_matrix(labels, mask, c) for mask in masks])
    F = lgc_propagate(L, Y, gamma)
    pred = F.reshape(n, repeats, c).argmax(axis=2)
    accs = [float((pred[~m, r] == labels[~m]).mean()) for r, m in enumerate(masks)]
    return float(np.mean(accs)), float(np.std(accs)), accs
