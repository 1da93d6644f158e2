"""From coefficient matrix to clusters.

The learned Z is symmetrized into a nonnegative similarity graph
S = (|Z| + |Z'|)/2, turned into the unnormalized Laplacian
L = diag(rowsum(S)) - S, embedded by its c smallest eigenpairs (the only
ones computed), and finished with k-means (k-means++ seeding, restarts),
whose squared distances are summed in numpy as scipy's cdist sums them.
"""

import numpy as np
from scipy.linalg import eigh

from .kernels import _sqeuclidean

# k-means restarts per call; each restart's Lloyd iteration cap and center-move tolerance
_RESTARTS, _MAX_ITER, _TOL = 20, 300, 1e-6


def require_square(Z: np.ndarray):
    """Raise ValueError unless Z is a square matrix."""
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"Z must be square, got shape {Z.shape}")


def build_graph(Z: np.ndarray) -> np.ndarray:
    """S = (|Z| + |Z'|)/2; exactly symmetric, nonnegative, zero diagonal.

    Raises ValueError when Z is not square or not finite, or S overflows.
    """
    A = np.abs(np.asarray(Z, dtype=float))
    require_square(A)
    with np.errstate(over="ignore"):
        S = (A + A.T) / 2.0
    if not np.isfinite(S).all():
        if not np.isfinite(A).all():
            raise ValueError("Z must be finite")
        raise ValueError("Z is too large: S = (|Z| + |Z'|)/2 overflows; rescale Z")
    return S


def laplacian(S: np.ndarray) -> np.ndarray:
    """Unnormalized graph Laplacian diag(rowsum(S)) - S.

    Raises ValueError when a degree (row sum of S) overflows.
    """
    with np.errstate(over="ignore"):
        degrees = S.sum(axis=1)
    if not np.isfinite(degrees).all():
        raise ValueError("Z is too large: a degree of S = (|Z| + |Z'|)/2 overflows; rescale Z")
    return np.diag(degrees) - S


def spectral_embed(L: np.ndarray, c: int) -> np.ndarray:
    """n x c eigenvectors of the c smallest eigenvalues of a symmetric L."""
    n = L.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    return eigh(L, subset_by_index=[0, c - 1])[1]


def _kmeanspp(X, c, rng):
    """k-means++ seeding: centers drawn proportionally to squared distance."""
    n = X.shape[0]
    centers = np.empty((c, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, c):
        total = d2.sum()
        if total > 0:
            j = rng.choice(n, p=d2 / total)
        else:
            # every point coincides with a chosen center
            j = rng.integers(n)
        centers[k] = X[j]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))
    return centers


def _assign(X, centers):
    """Nearest-center assignment with empty-cluster repair.

    An empty cluster steals the point currently farthest from its own
    center, which can only lower the objective. Returns (assignments,
    inertia, possibly-updated centers).
    """
    n = X.shape[0]
    d2 = _sqeuclidean(X, centers)
    assign = d2.argmin(axis=1)
    for k in range(centers.shape[0]):
        if not np.any(assign == k):
            far = d2[np.arange(n), assign].argmax()
            centers[k] = X[far]
            assign[far] = k
            d2[:, k] = ((X - centers[k]) ** 2).sum(axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, inertia, centers


def _lloyd(X, centers):
    c = centers.shape[0]
    prev = np.inf
    for _ in range(_MAX_ITER):
        assign, inertia, centers = _assign(X, centers)
        # Lloyd steps cannot increase the objective (up to rounding)
        assert inertia <= prev * (1 + 1e-12) + 1e-12
        prev = inertia
        new_centers = np.stack([X[assign == k].mean(axis=0) for k in range(c)])
        move = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if move < _TOL:
            break
    return assign, inertia


def kmeans(X, c, seed):
    """Best-of-restarts k-means on the rows of X: (assignments, inertia).

    assignments holds each row's cluster id in 0..c-1 and inertia the
    sum of squared distances to the assigned centers. Each restart gets
    its own rng spawned from the master seed, so the result is
    deterministic and restart order does not matter.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    best_assign, best_inertia = None, np.inf
    for ss in np.random.SeedSequence(seed).spawn(_RESTARTS):
        rng = np.random.default_rng(ss)
        centers = _kmeanspp(X, c, rng)
        assign, inertia = _lloyd(X, centers.copy())
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign, best_inertia


def cluster(Z: np.ndarray, c: int, seed: int):
    """Full pipeline: graph, Laplacian, spectral embedding, k-means.

    Returns kmeans' (assignments, inertia) on the embedding.
    """
    V = spectral_embed(laplacian(build_graph(Z)), c)
    return kmeans(V, c, seed)
