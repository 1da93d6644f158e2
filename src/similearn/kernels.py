"""Kernel bank construction and normalization.

Samples are stored row-major: a dataset is an n x m array with one sample
per row. Three kernel families are supported:

    gaussian(t):     k(x, y) = exp(-||x - y||^2 / (t * d_max^2))
    linear:          k(x, y) = x . y
    polynomial(a,b): k(x, y) = (a + x . y)^b

where d_max is the largest pairwise Euclidean distance over the dataset.
Kernels are normalized by dividing every entry by the largest
kernel-induced squared distance d2_ij = K_ii + K_jj - 2 K_ij; when that
maximum is zero for a linear or polynomial kernel the largest absolute
entry is used instead and the fallback is flagged.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateKernelError

# Squared distances below this are treated as rounding noise and clamped
# to zero; anything more negative indicates a broken kernel matrix.
NEG_DIST_TOL = 1e-10

# bank name -> (gaussian t values, polynomial degrees b for a in {0, 1})
BANKS = {
    "clustering12": ((0.01, 0.05, 0.1, 1.0, 10.0, 50.0, 100.0), (2, 4)),
    "ssl7": ((0.1, 1.0, 10.0, 100.0), (2,)),
}


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family plus its parameters."""

    family: str
    t: Optional[float] = None
    a: Optional[int] = None
    b: Optional[int] = None

    @property
    def name(self):
        if self.family == "gaussian":
            return f"gaussian_t{self.t:g}"
        if self.family == "linear":
            return "linear"
        return f"poly_a{self.a}_b{self.b}"

    def params(self):
        """Parameter dict for serialization (empty for linear)."""
        if self.family == "gaussian":
            return {"t": self.t}
        if self.family == "polynomial":
            return {"a": self.a, "b": self.b}
        return {}


@dataclass
class KernelMatrix:
    values: np.ndarray
    spec: KernelSpec
    fallback_used: bool = False


def _check_finite(X):
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")


def compute_kernel(X, spec: KernelSpec) -> KernelMatrix:
    """Evaluate an un-normalized kernel matrix over all sample pairs.

    Parameters
    ----------
    X : ndarray of shape (n, m)
        Features, one sample per row; must be finite.
    spec : KernelSpec

    Returns
    -------
    KernelMatrix
        Not yet normalized.

    Raises
    ------
    DegenerateKernelError
        Gaussian kernel requested on a dataset whose samples are all
        identical (the bandwidth d_max is zero).
    """
    X = np.asarray(X, dtype=float)
    _check_finite(X)
    if spec.family == "gaussian":
        # imported here, not at module level: only Gaussian kernels need scipy.spatial
        from scipy.spatial.distance import cdist

        sq = cdist(X, X, "sqeuclidean")
        d2max = sq.max()
        if d2max == 0.0:
            raise DegenerateKernelError(
                "gaussian kernel undefined: all samples identical (d_max = 0)"
            )
        K = np.exp(-sq / (spec.t * d2max))
    elif spec.family == "linear":
        K = X @ X.T
    elif spec.family == "polynomial":
        K = (spec.a + X @ X.T) ** spec.b
    else:
        raise ValueError(f"unknown kernel family {spec.family!r}")
    # enforce exact symmetry lost to floating-point in the gram products
    K = (K + K.T) / 2.0
    return KernelMatrix(values=K, spec=spec)


def kernel_squared_distances(K: np.ndarray) -> np.ndarray:
    """Matrix of kernel-induced squared distances K_ii + K_jj - 2 K_ij.

    Small negatives (above -1e-10) are clamped to zero; larger ones
    raise, since they mean the input is not a valid kernel matrix.
    """
    d = np.diag(K)
    sq = d[:, None] + d[None, :] - 2.0 * K
    if sq.min() < -NEG_DIST_TOL:
        raise DegenerateKernelError(
            f"kernel-induced squared distance is negative ({sq.min():.3e})"
        )
    np.maximum(sq, 0.0, out=sq)
    return sq


def normalize_kernel(km: KernelMatrix) -> KernelMatrix:
    """Scale a kernel so its largest induced squared distance becomes 1.

    When the largest induced squared distance is zero (possible for
    linear and polynomial kernels on degenerate data) the matrix is
    divided by its largest absolute entry instead and ``fallback_used``
    is set. A zero matrix cannot be normalized at all.
    """
    K = km.values
    sq = kernel_squared_distances(K)
    scale = sq.max()
    fallback = False
    if scale == 0.0:
        if km.spec.family == "gaussian":
            # only reachable on hand-built input; compute_kernel already
            # rejects the all-identical-samples case
            raise DegenerateKernelError(
                "gaussian kernel with zero distance spread cannot be normalized"
            )
        scale = np.abs(K).max()
        fallback = True
        if scale == 0.0:
            raise DegenerateKernelError("zero kernel matrix cannot be normalized")
    return KernelMatrix(values=K / scale, spec=km.spec, fallback_used=fallback)


def bank_specs(bank: str):
    """Kernel specs for a named bank.

    ``clustering12`` is the 12-kernel design (7 gaussian, 1 linear, 4
    polynomial); ``ssl7`` is the 7-kernel design (4 gaussian, 1 linear,
    2 polynomial).
    """
    if not isinstance(bank, str) or bank not in BANKS:
        raise ValueError(f"unknown kernel bank {bank!r}")
    ts, degrees = BANKS[bank]
    return [
        *(KernelSpec("gaussian", t=t) for t in ts),
        KernelSpec("linear"),
        *(KernelSpec("polynomial", a=a, b=b) for a in (0, 1) for b in degrees),
    ]


def build_kernel_bank(X, bank: str):
    """Compute and normalize every kernel in a named bank over the rows of X.

    Returns a list of normalized KernelMatrix in the bank's canonical
    order (gaussians by increasing t, then linear, then polynomials).
    """
    return [normalize_kernel(compute_kernel(X, s)) for s in bank_specs(bank)]
