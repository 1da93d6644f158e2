"""From coefficient matrix to clusters.

The learned Z is symmetrized into a nonnegative similarity graph
S = (|Z| + |Z'|)/2, turned into the unnormalized Laplacian
L = diag(rowsum(S)) - S, embedded by its c smallest eigenpairs (the only
ones computed, by LAPACK dsyevr as scipy's eigh computes them), and
finished with k-means (k-means++ seeding, restarts), whose squared
distances are summed in numpy as scipy's cdist sums them.
"""

import ctypes

import numpy as np

from .kernels import _sqeuclidean
from .solver import _CHAR, _DOUBLE, _INT, _PTR, _bind, cython_lapack

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


# jobz range uplo n a lda vl vu il iu abstol m w z ldz isuppz work lwork iwork liwork info
_DSYEVR = _bind(cython_lapack, "dsyevr", *[_CHAR] * 3, _INT, _PTR, _INT, *[_DOUBLE] * 2,
                *[_INT] * 2, _DOUBLE, _INT, *[_PTR] * 2, _INT, *[_PTR] * 2, _INT, _PTR, *[_INT] * 2)


def spectral_embed(L: np.ndarray, c: int) -> np.ndarray:
    """n x c eigenvectors of the c smallest eigenvalues of a symmetric L.

    dsyevr on L's lower triangle with the arguments and queried workspace of
    scipy's eigh(L, subset_by_index=[0, c - 1]), so bit for bit eigh's result.
    Raises ValueError on a non-square or non-finite L or a c out of range,
    and numpy's LinAlgError (a ValueError) when dsyevr fails.
    """
    A = np.array(L, dtype=float, order="F")  # dsyevr overwrites it
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"L must be square, got shape {A.shape}")
    n = A.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    V, w, isuppz = np.empty((n, c), order="F"), np.empty(n), np.empty(2 * n, dtype=np.intc)
    size, zero, m, info = ctypes.c_int(n), ctypes.c_double(0.0), ctypes.c_int(), ctypes.c_int()
    head = (b"V", b"I", b"L", size, A.ctypes.data, size, zero, zero, ctypes.c_int(1),
            ctypes.c_int(c), zero, m, w.ctypes.data, V.ctypes.data, size, isuppz.ctypes.data)
    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    _DSYEVR(*head, work.ctypes.data, ctypes.c_int(-1), iwork.ctypes.data, ctypes.c_int(-1), info)
    work, iwork = np.empty(int(work[0])), np.empty(iwork[0], dtype=np.intc)  # the optimal sizes
    _DSYEVR(*head, work.ctypes.data, ctypes.c_int(len(work)), iwork.ctypes.data,
            ctypes.c_int(len(iwork)), info)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"spectral_embed: dsyevr failed with info = {info.value}")
    return V


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

    An empty cluster steals the point farthest from its own center among
    those not alone in their cluster: that can only lower the objective and
    empties no other cluster, even when every distance is 0. Returns
    (assignments, inertia, possibly-updated centers).
    """
    n, c = X.shape[0], centers.shape[0]
    d2 = _sqeuclidean(X, centers)
    assign = d2.argmin(axis=1)
    for k in range(c):
        if not np.any(assign == k):
            shared = np.bincount(assign, minlength=c)[assign] > 1
            far = np.where(shared, d2[np.arange(n), assign], -np.inf).argmax()
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
