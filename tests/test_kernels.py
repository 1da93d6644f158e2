import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import two_blobs
from similearn.errors import DegenerateKernelError
from similearn.kernels import (
    KernelSpec,
    _sqeuclidean,
    bank_specs,
    build_kernel_bank,
    compute_kernel,
    kernel_squared_distances,
    normalize_kernel,
)


def test_gaussian_pinned_values():
    # two points at the maximum distance: k = exp(-1) there, 1 on the diagonal
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    K = compute_kernel(X, KernelSpec("gaussian", t=1.0))
    assert K[0, 0] == 1.0 and K[1, 1] == 1.0
    np.testing.assert_allclose(K[0, 1], np.exp(-1.0), rtol=1e-12)


def test_gaussian_diagonal_exactly_one(rng):
    X = rng.standard_normal((15, 4))
    K = compute_kernel(X, KernelSpec("gaussian", t=0.1))
    assert np.all(np.diag(K) == 1.0)


def test_linear_orthogonal_vectors():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    K = compute_kernel(X, KernelSpec("linear"))
    assert K[0, 1] == 0.0
    assert K[0, 0] == 1.0


def test_polynomial_pinned_value():
    # inner product 1, a=1, b=2 -> (1+1)^2 = 4
    X = np.array([[1.0], [1.0], [2.0]])
    K = compute_kernel(X, KernelSpec("polynomial", a=1, b=2))
    assert K[0, 1] == 4.0


def test_gaussian_monotone_in_distance(rng):
    X = rng.standard_normal((12, 3))
    K = compute_kernel(X, KernelSpec("gaussian", t=1.0))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    iu = np.triu_indices(12, 1)
    order = np.argsort(d[iu])
    ks = K[iu][order]
    # larger distance never yields a larger kernel value
    assert np.all(np.diff(ks) <= 1e-15)


def test_gaussian_identical_samples_degenerate():
    X = np.zeros((3, 2))
    with pytest.raises(DegenerateKernelError):
        compute_kernel(X, KernelSpec("gaussian", t=1.0))


def test_nonfinite_features_rejected():
    X = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        compute_kernel(X, KernelSpec("linear"))


def _textbook_kernel(X, spec):
    """The kernel as its formula reads, one new array per operation."""
    G = X @ X.T
    if spec.family == "gaussian":
        sq = cdist(X, X, "sqeuclidean")
        K = np.exp(-sq / (spec.t * sq.max()))
    elif spec.family == "linear":
        K = G
    else:
        K = (spec.a + G) ** spec.b
    K = (K + K.T) / 2.0
    d = np.diag(K)
    return K / np.maximum(d[:, None] + d[None, :] - 2.0 * K, 0.0).max()


def test_in_place_arithmetic_leaves_every_bit_unchanged(rng):
    X = 3.0 * rng.standard_normal((40, 6))
    for spec in bank_specs("clustering12"):
        got, _ = normalize_kernel(compute_kernel(X, spec), spec)
        assert np.array_equal(got.view(np.uint64), _textbook_kernel(X, spec).view(np.uint64)), spec.name


# 1e160: every squared distance overflows, so the first kernel fails; 1e100: only
# the polynomials overflow. A leaked numpy warning fails the test (pyproject.toml)
@pytest.mark.parametrize("scale, name", [(1e160, "gaussian_t0.01"), (1e100, "poly_a0_b2")])
def test_overflowing_bank_names_the_kernel(scale, name):
    X, _ = two_blobs(n_per=4)
    with pytest.raises(DegenerateKernelError, match=f"^{name} kernel is not finite"):
        list(build_kernel_bank(scale * X, "clustering12"))


def test_normalize_rejects_an_overflowing_scale():
    # finite entries whose squared distance K_00 + K_11 - 2 K_01 is inf
    K = np.array([[1e308, -1e308], [-1e308, 1e308]])
    with pytest.raises(DegenerateKernelError, match="^linear kernel cannot be normalized"):
        normalize_kernel(K, KernelSpec("linear"))


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 30)),
    exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
    seed=st.integers(0, 2**32 - 1),
    same=st.booleans(),
    zeros=st.booleans(),
    repeats=st.booleans(),
)
def test_sqeuclidean_is_bitwise_cdist(shape, exponents, seed, same, zeros, repeats):
    """Byte for byte scipy's cdist(A, B, "sqeuclidean"), B = A included."""
    n, l, m = shape
    lo, hi = sorted(exponents)
    rng = np.random.default_rng(seed)

    def draw(rows):
        M = rng.standard_normal((rows, m)) * 10.0 ** rng.integers(lo, hi + 1, size=(rows, m))
        if zeros:
            M[rng.random((rows, m)) < 0.3] = -0.0
            M[rng.random((rows, m)) < 0.1] = 0.0
        if repeats:
            M[rng.integers(rows, size=rows // 2)] = M[rng.integers(rows, size=rows // 2)]
        return M

    A = draw(n)
    B = A if same else draw(l)
    assert _sqeuclidean(A, B).tobytes() == cdist(A, B, "sqeuclidean").tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: compute_kernel(np.ones((3, 2)), KernelSpec("gaussian", t=1.0)),
         r"^gaussian_t1 kernel undefined: d_max\^2 = 0\.000e\+00 is zero or subnormal "
         r"\(all samples identical, or features too small\); rescale the features$"),
        (lambda: normalize_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), KernelSpec("linear")),
         r"^linear kernel cannot be normalized: kernel-induced squared distance is negative "
         r"\(-2\.000e\+00\)$"),
        (lambda: normalize_kernel(np.zeros((3, 3)), KernelSpec("polynomial", a=0, b=2)),
         "^poly_a0_b2 kernel is a zero matrix and cannot be normalized: the features are zero "
         "or too small for it; rescale them$"),
        (lambda: normalize_kernel(np.ones((2, 2)), KernelSpec("gaussian", t=0.1)),
         "^gaussian_t0.1 kernel with zero distance spread cannot be normalized$"),
        # features and X X' are normal at 1e-150, but every (X X')^2 entry underflows to 0
        (lambda: list(build_kernel_bank(1e-150 * two_blobs(n_per=4)[0], "clustering12")),
         "^poly_a0_b2 kernel is a zero matrix and cannot be normalized: the features are zero "
         "or too small for it; rescale them$"),
    ],
    ids=["identical_samples", "negative_distance", "zero_matrix", "zero_spread", "underflow"],
)
def test_degenerate_kernel_errors_name_the_kernel(build, message):
    with pytest.raises(DegenerateKernelError, match=message):
        build()


# the normalized Gaussian kernel is scale-invariant, but once d_max^2 or X X' is
# subnormal its bits are short of precision: 1e-160 put gaussian_t1 off by 3.7e-5
@pytest.mark.parametrize("scale", [1e-160, 1e-162])
def test_subnormal_features_are_rejected(scale):
    X, _ = two_blobs(n_per=4)
    with pytest.raises(
        DegenerateKernelError, match=r"^gaussian_t1 kernel undefined: d_max\^2 = \S+ is zero or subnormal"
    ):
        compute_kernel(scale * X, KernelSpec("gaussian", t=1.0))
    with pytest.raises(
        DegenerateKernelError, match=r"^linear kernel cannot be normalized: its scale \S+ is subnormal"
    ):
        normalize_kernel(compute_kernel(scale * X, KernelSpec("linear")), KernelSpec("linear"))


def test_normalize_rejects_a_subnormal_fallback_scale():
    # every induced distance is 0, so the largest |K| is the scale: the fallback
    # still holds at the smallest normal float, and is rejected just below it
    tiny = np.finfo(float).tiny
    K, fallback_used = normalize_kernel(np.full((2, 2), tiny), KernelSpec("linear"))
    assert fallback_used and np.all(K == 1.0)
    with pytest.raises(
        DegenerateKernelError, match=r"^linear kernel cannot be normalized: its scale 1\.000e-310 is subnormal"
    ):
        normalize_kernel(np.full((2, 2), 1e-310), KernelSpec("linear"))


def test_kernel_symmetry(rng):
    X = rng.standard_normal((10, 5))
    for spec in bank_specs("clustering12"):
        K = compute_kernel(X, spec)
        assert np.array_equal(K, K.T)


def test_normalize_identity_example():
    K, fallback_used = normalize_kernel(np.eye(2), KernelSpec("linear"))
    np.testing.assert_allclose(K, [[0.5, 0.0], [0.0, 0.5]])
    assert abs(kernel_squared_distances(K).max() - 1.0) <= 1e-12
    assert not fallback_used


def test_normalize_fallback_all_identical():
    K, fallback_used = normalize_kernel(np.ones((2, 2)), KernelSpec("linear"))
    np.testing.assert_allclose(K, np.ones((2, 2)))
    assert fallback_used


def test_normalize_zero_matrix_degenerate():
    with pytest.raises(DegenerateKernelError):
        normalize_kernel(np.zeros((3, 3)), KernelSpec("linear"))


def test_normalize_preserves_symmetry(rng):
    X = rng.standard_normal((9, 3))
    spec = KernelSpec("polynomial", a=1, b=4)
    K, _ = normalize_kernel(compute_kernel(X, spec), spec)
    assert np.array_equal(K, K.T)


def test_normalize_idempotent_up_to_rounding(rng):
    # after one pass the largest induced squared distance is 1, so a
    # second pass changes entries by at most a few ulps
    X = rng.standard_normal((8, 2))
    spec = KernelSpec("gaussian", t=0.1)
    once, _ = normalize_kernel(compute_kernel(X, spec), spec)
    twice, _ = normalize_kernel(once, spec)
    np.testing.assert_allclose(twice, once, rtol=1e-12)


def test_negative_squared_distance_rejected():
    # diag 0 with positive off-diagonal gives d2 = -2 K_ij < 0
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateKernelError):
        kernel_squared_distances(K)


def test_bank_sizes_and_flags():
    X, _ = two_blobs(n_per=6)
    bank12 = list(build_kernel_bank(X, "clustering12"))
    bank7 = list(build_kernel_bank(X, "ssl7"))
    assert len(bank12) == 12
    assert len(bank7) == 7
    for _, K, _ in bank12 + bank7:
        assert abs(kernel_squared_distances(K).max() - 1.0) <= 1e-12


def test_bank_composition():
    specs = bank_specs("clustering12")
    fams = [s.family for s in specs]
    assert fams.count("gaussian") == 7
    assert fams.count("linear") == 1
    assert fams.count("polynomial") == 4
    assert [s.t for s in specs[:7]] == [0.01, 0.05, 0.1, 1.0, 10.0, 50.0, 100.0]
    assert {(s.a, s.b) for s in specs if s.family == "polynomial"} == {
        (0, 2), (0, 4), (1, 2), (1, 4),
    }

    specs7 = bank_specs("ssl7")
    fams7 = [s.family for s in specs7]
    assert fams7.count("gaussian") == 4
    assert [s.t for s in specs7[:4]] == [0.1, 1.0, 10.0, 100.0]
    assert {(s.a, s.b) for s in specs7 if s.family == "polynomial"} == {
        (0, 2), (1, 2),
    }


def test_unknown_bank_and_family():
    X, _ = two_blobs(n_per=4)
    with pytest.raises(ValueError):
        build_kernel_bank(X, "nope")
    with pytest.raises(ValueError):
        compute_kernel(X, KernelSpec("rbf", t=1.0))


def test_spec_names():
    assert KernelSpec("gaussian", t=0.01).name == "gaussian_t0.01"
    assert KernelSpec("linear").name == "linear"
    assert KernelSpec("polynomial", a=1, b=4).name == "poly_a1_b4"
