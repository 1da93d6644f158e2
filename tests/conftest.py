import numpy as np
import pytest
from scipy.linalg import blas, lapack


def two_blobs(n_per=20, sep=10.0, sigma=1.0, seed=0):
    """(X, y): two Gaussian blobs in the plane, `sep` sigmas apart, labeled 0 and 1."""
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(0.0, sigma, size=(n_per, 2)),
            rng.normal([sep * sigma, 0.0], sigma, size=(n_per, 2)),
        ]
    )
    y = np.repeat([0, 1], n_per)
    return X, y


def random_psd_kernel(n, rng, normalize=True):
    A = rng.standard_normal((n, n))
    K = A @ A.T
    if normalize:
        K /= np.diag(K).max()
    return K


def f2py_spd_solve(A, B):
    """A^-1 B from scipy's f2py dpotrf and two right-side dtrsm: X' = B' U^-1 U^-T.

    The reference for _lapack.solve_spd, which calls the same routines
    through another binding.
    """
    U, info = lapack.dpotrf(A)
    assert info == 0, info
    return blas.dtrsm(1.0, U, blas.dtrsm(1.0, U, B.T, side=1), side=1, trans_a=1).T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
