"""Graph-based semi-supervised classification.

Implements local-and-global-consistency label propagation: given a
Laplacian L, a partial one-hot label matrix Y and a fitting weight
gamma, the score matrix solves (L + gamma I) F = gamma Y. ssl_experiment
predicts row argmaxes, with ties broken toward the lowest class id.

ssl_experiment runs the stratified-sampling protocol: per repeat, a
fraction of each class is labeled, labels are propagated over the graph
built from a learned coefficient matrix, and accuracy is scored on the
unlabeled samples only.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import LinearSolveError
from .graph import build_graph, laplacian
from .solver import require_number

DEFAULT_REPEATS = 20
DEFAULT_GAMMA = 1.0


@dataclass
class SSLResult:
    mean_acc: float
    std_acc: float
    per_repeat: list = field(default_factory=list)


def make_label_matrix(labels, mask, c) -> np.ndarray:
    """n x c partial label matrix: one-hot on masked rows, zero elsewhere."""
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    Y = np.zeros((labels.shape[0], c))
    idx = np.flatnonzero(mask)
    Y[idx, labels[idx]] = 1.0
    return Y


def lgc_propagate(L, Y, gamma, factor=None) -> np.ndarray:
    """Scores F solving (L + gamma I) F = gamma Y.

    ``factor`` is an optional precomputed cho_factor of (L + gamma I);
    ssl_experiment shares one factorization across repeats.
    """
    _check_gamma(gamma)
    Y = np.asarray(Y, dtype=float)
    n = Y.shape[0]
    if L.shape != (n, n):
        raise ValueError(f"shape mismatch: L {L.shape}, Y {Y.shape}")
    if factor is None:
        factor = _lgc_factor(L, gamma)
    return gamma * cho_solve(factor, Y)


def _lgc_factor(L, gamma):
    """cho_factor of L + gamma I, else LinearSolveError."""
    try:
        return cho_factor(L + gamma * np.eye(L.shape[0]))
    except LinAlgError as e:
        raise LinearSolveError(
            "L + gamma I is not positive definite; L must be a PSD Laplacian"
        ) from e


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
    """Indices per class; labels must be dense ids 0..c-1, every class nonempty."""
    labels = np.asarray(labels)
    c = int(labels.max()) + 1
    groups = [np.flatnonzero(labels == k) for k in range(c)]
    for k, g in enumerate(groups):
        if g.size == 0:
            raise ValueError(f"class {k} has no samples; relabel densely first")
    return groups, c


def ssl_experiment(
    Z, labels, fraction, repeats=DEFAULT_REPEATS, gamma=DEFAULT_GAMMA, seed=0
) -> SSLResult:
    """Stratified label-propagation protocol over a learned Z.

    Parameters
    ----------
    Z : ndarray of shape (n, n)
        Learned coefficient matrix.
    labels : ndarray of shape (n,)
        Ground-truth class ids 0..c-1.
    fraction : float in (0, 1)
        Per-class share of samples to label, rounded up to at least one.
    repeats : int >= 1
        Number of random labeled sets; each gets its own rng spawned
        from the master seed.
    gamma : float > 0
        LGC fitting weight.

    Returns
    -------
    SSLResult
        Mean and population std of accuracy on unlabeled samples.
    """
    check_protocol(fraction, repeats, gamma)
    labels = np.asarray(labels)
    n = labels.shape[0]
    groups, c = _class_indices(labels)
    sizes = [max(1, math.ceil(fraction * g.size)) for g in groups]
    if sum(sizes) >= n:
        raise ValueError(
            "no unlabeled samples left to evaluate; lower the fraction"
        )

    L = laplacian(build_graph(Z))
    factor = _lgc_factor(L, gamma)

    accs = []
    for ss in np.random.SeedSequence(seed).spawn(repeats):
        rng = np.random.default_rng(ss)
        mask = np.zeros(n, dtype=bool)
        for g, k in zip(groups, sizes):
            mask[rng.choice(g, size=k, replace=False)] = True
        Y = make_label_matrix(labels, mask, c)
        pred = lgc_propagate(L, Y, gamma, factor=factor).argmax(axis=1)
        unlabeled = ~mask
        accs.append(float((pred[unlabeled] == labels[unlabeled]).mean()))
    return SSLResult(
        mean_acc=float(np.mean(accs)),
        std_acc=float(np.std(accs)),
        per_repeat=accs,
    )
