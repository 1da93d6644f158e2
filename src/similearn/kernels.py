"""Kernel bank construction and normalization.

Samples are stored row-major: a dataset is an n x m array with one sample
per row. Three kernel families are supported:

    gaussian(t):     k(x, y) = exp(-||x - y||^2 / (t * d_max^2))
    linear:          k(x, y) = x . y
    polynomial(a,b): k(x, y) = (a + x . y)^b

where d_max is the largest pairwise Euclidean distance over the dataset
(squared, summed feature by feature: the bits of scipy's cdist).
Kernels are normalized by dividing every entry by the largest
kernel-induced squared distance d2_ij = K_ii + K_jj - 2 K_ij; when that
maximum is zero for a linear or polynomial kernel the largest absolute
entry is used instead and the fallback is flagged. A Gaussian d_max^2 or
a scale below the smallest normal float is rejected as short of precision.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateKernelError

# Squared distances below this are treated as rounding noise and clamped
# to zero; anything more negative indicates a broken kernel matrix.
NEG_DIST_TOL = 1e-10

# rows per block of kernel_squared_distances' 2K temporary
_ROW_BLOCK = 64

_TINY = np.finfo(float).tiny  # smallest normal float: below it, precision is lost

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


def _sqeuclidean(A, B):
    """Row-to-row squared distances, adding (a_k - b_k)^2 in feature order as cdist does."""
    D = np.zeros((A.shape[0], B.shape[0]))
    diff = np.empty_like(D)
    for k in range(A.shape[1]):
        np.subtract(A[:, k, None], B[None, :, k], out=diff)
        diff *= diff
        D += diff
    return D


def compute_kernel(X, spec: KernelSpec) -> np.ndarray:
    """Evaluate an un-normalized kernel matrix over all sample pairs.

    Parameters
    ----------
    X : ndarray of shape (n, m)
        Features, one sample per row; must be finite.
    spec : KernelSpec

    Returns
    -------
    ndarray of shape (n, n)
        Not yet normalized.

    Raises
    ------
    DegenerateKernelError
        Gaussian kernel whose largest squared distance d_max^2 is zero
        (all samples identical) or subnormal (features too small), or a
        kernel with a non-finite entry (features too large or too small
        for it); the message names the kernel.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    # the arithmetic runs in place where that leaves every bit unchanged; an
    # overflow surfaces as the non-finite check below, not as a numpy warning
    with np.errstate(all="ignore"):
        if spec.family == "gaussian":
            K = _sqeuclidean(X, X)
            d2max = K.max()
            if d2max < _TINY:
                raise DegenerateKernelError(
                    f"{spec.name} kernel undefined: d_max^2 = {d2max:.3e} is zero or subnormal "
                    "(all samples identical, or features too small); rescale the features"
                )
            K /= -(spec.t * d2max)  # == -K / (t d2max) bit for bit: the sign flip is exact
            np.exp(K, out=K)
        elif spec.family == "linear":
            K = X @ X.T
        elif spec.family == "polynomial":
            K = X @ X.T
            K += spec.a
            K **= spec.b
        else:
            raise ValueError(f"unknown kernel family {spec.family!r}")
        # enforce exact symmetry lost to floating-point in the gram products
        K = K + K.T
        K /= 2.0
    if not np.isfinite(K).all():
        raise DegenerateKernelError(
            f"{spec.name} kernel is not finite: the features are too large or too "
            "small for it; rescale them"
        )
    return K


def kernel_squared_distances(K: np.ndarray) -> np.ndarray:
    """Matrix of kernel-induced squared distances K_ii + K_jj - 2 K_ij.

    Small negatives (above -1e-10) are clamped to zero; larger ones
    raise, since they mean the input is not a valid kernel matrix. An
    overflow gives inf or nan entries, without a numpy warning.
    """
    d = np.diag(K)
    with np.errstate(all="ignore"):
        sq = d[:, None] + d[None, :]
        # by row blocks, so that 2K is never a second n x n array
        for i in range(0, len(K), _ROW_BLOCK):
            sq[i : i + _ROW_BLOCK] -= 2.0 * K[i : i + _ROW_BLOCK]
    if sq.min() < -NEG_DIST_TOL:
        raise DegenerateKernelError(
            f"kernel-induced squared distance is negative ({sq.min():.3e})"
        )
    np.maximum(sq, 0.0, out=sq)
    return sq


def normalize_kernel(K: np.ndarray, spec: KernelSpec):
    """(K scaled so its largest induced squared distance becomes 1, fallback_used).

    When the largest induced squared distance is zero (possible for
    linear and polynomial kernels on degenerate data) the matrix is
    divided by its largest absolute entry instead and ``fallback_used``
    is True. A zero matrix cannot be normalized at all, nor can a kernel
    with a negative induced squared distance, a subnormal scale, or a
    scale or scaled entries that are not finite; the error names spec.
    """
    name = spec.name
    try:
        # only the maximum is kept: the n x n distances go before K / scale is built
        scale = kernel_squared_distances(K).max()
    except DegenerateKernelError as e:
        raise DegenerateKernelError(f"{name} kernel cannot be normalized: {e}") from None
    fallback = False
    if scale == 0.0:
        if spec.family == "gaussian":
            # only reachable on hand-built input; compute_kernel already
            # rejects the all-identical-samples case
            raise DegenerateKernelError(
                f"{name} kernel with zero distance spread cannot be normalized"
            )
        scale = np.abs(K).max()
        fallback = True
        if scale == 0.0:
            raise DegenerateKernelError(
                f"{name} kernel is a zero matrix and cannot be normalized: the features are "
                "zero or too small for it; rescale them"
            )
    with np.errstate(all="ignore"):
        values = K / scale
    if not (_TINY <= scale < np.inf and np.isfinite(values).all()):
        raise DegenerateKernelError(
            f"{name} kernel cannot be normalized: its scale {scale:.3e} is subnormal or not "
            "finite, or a scaled entry is not finite; rescale the features"
        )
    return values, fallback


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
    """(spec, normalized K, fallback_used) of each kernel in a named bank, built lazily.

    Canonical order: gaussians by increasing t, then linear, then
    polynomials. A kernel that cannot be built raises and ends the bank.
    """
    # no name holds K between kernels: a caller that drops its reference
    # before asking for the next kernel holds one kernel at a time
    return ((spec, *normalize_kernel(compute_kernel(X, spec), spec)) for spec in bank_specs(bank))
