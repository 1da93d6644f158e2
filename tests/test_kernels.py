import numpy as np
import pytest

from conftest import two_blobs
from similearn.errors import DegenerateKernelError
from similearn.kernels import (
    Dataset,
    KernelMatrix,
    KernelSpec,
    bank_specs,
    build_kernel_bank,
    compute_kernel,
    kernel_squared_distances,
    normalize_kernel,
)


def test_gaussian_pinned_values():
    # two points at the maximum distance: k = exp(-1) there, 1 on the diagonal
    data = Dataset(features=np.array([[0.0, 0.0], [3.0, 4.0]]))
    km = compute_kernel(data, KernelSpec("gaussian", t=1.0))
    assert km.values[0, 0] == 1.0 and km.values[1, 1] == 1.0
    np.testing.assert_allclose(km.values[0, 1], np.exp(-1.0), rtol=1e-12)


def test_gaussian_diagonal_exactly_one(rng):
    X = rng.standard_normal((15, 4))
    km = compute_kernel(Dataset(features=X), KernelSpec("gaussian", t=0.1))
    assert np.all(np.diag(km.values) == 1.0)


def test_linear_orthogonal_vectors():
    data = Dataset(features=np.array([[1.0, 0.0], [0.0, 1.0]]))
    km = compute_kernel(data, KernelSpec("linear"))
    assert km.values[0, 1] == 0.0
    assert km.values[0, 0] == 1.0


def test_polynomial_pinned_value():
    # inner product 1, a=1, b=2 -> (1+1)^2 = 4
    data = Dataset(features=np.array([[1.0], [1.0], [2.0]]))
    km = compute_kernel(data, KernelSpec("polynomial", a=1, b=2))
    assert km.values[0, 1] == 4.0


def test_gaussian_monotone_in_distance(rng):
    X = rng.standard_normal((12, 3))
    km = compute_kernel(Dataset(features=X), KernelSpec("gaussian", t=1.0))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    iu = np.triu_indices(12, 1)
    order = np.argsort(d[iu])
    ks = km.values[iu][order]
    # larger distance never yields a larger kernel value
    assert np.all(np.diff(ks) <= 1e-15)


def test_gaussian_identical_samples_degenerate():
    data = Dataset(features=np.zeros((3, 2)))
    with pytest.raises(DegenerateKernelError):
        compute_kernel(data, KernelSpec("gaussian", t=1.0))


def test_nonfinite_features_rejected():
    data = Dataset(features=np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        compute_kernel(data, KernelSpec("linear"))


def test_kernel_symmetry(rng):
    X = rng.standard_normal((10, 5))
    for spec in bank_specs("clustering12"):
        km = compute_kernel(Dataset(features=X), spec)
        assert np.array_equal(km.values, km.values.T)


def test_normalize_identity_example():
    km = KernelMatrix(values=np.eye(2), spec=KernelSpec("linear"))
    out = normalize_kernel(km)
    np.testing.assert_allclose(out.values, [[0.5, 0.0], [0.0, 0.5]])
    assert abs(kernel_squared_distances(out.values).max() - 1.0) <= 1e-12
    assert not out.fallback_used


def test_normalize_fallback_all_identical():
    km = KernelMatrix(values=np.ones((2, 2)), spec=KernelSpec("linear"))
    out = normalize_kernel(km)
    np.testing.assert_allclose(out.values, np.ones((2, 2)))
    assert out.fallback_used


def test_normalize_zero_matrix_degenerate():
    km = KernelMatrix(values=np.zeros((3, 3)), spec=KernelSpec("linear"))
    with pytest.raises(DegenerateKernelError):
        normalize_kernel(km)


def test_normalize_preserves_symmetry(rng):
    X = rng.standard_normal((9, 3))
    km = compute_kernel(Dataset(features=X), KernelSpec("polynomial", a=1, b=4))
    out = normalize_kernel(km)
    assert np.array_equal(out.values, out.values.T)


def test_normalize_idempotent_up_to_rounding(rng):
    # after one pass the largest induced squared distance is 1, so a
    # second pass changes entries by at most a few ulps
    X = rng.standard_normal((8, 2))
    km = compute_kernel(Dataset(features=X), KernelSpec("gaussian", t=0.1))
    once = normalize_kernel(km)
    twice = normalize_kernel(
        KernelMatrix(values=once.values, spec=once.spec)
    )
    np.testing.assert_allclose(twice.values, once.values, rtol=1e-12)


def test_negative_squared_distance_rejected():
    # diag 0 with positive off-diagonal gives d2 = -2 K_ij < 0
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateKernelError):
        kernel_squared_distances(K)


def test_bank_sizes_and_flags():
    data = two_blobs(n_per=6)
    bank12 = build_kernel_bank(data, "clustering12")
    bank7 = build_kernel_bank(data, "ssl7")
    assert len(bank12) == 12
    assert len(bank7) == 7
    for km in bank12 + bank7:
        assert abs(kernel_squared_distances(km.values).max() - 1.0) <= 1e-12


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
    data = two_blobs(n_per=4)
    with pytest.raises(ValueError):
        build_kernel_bank(data, "nope")
    with pytest.raises(ValueError):
        compute_kernel(data, KernelSpec("rbf", t=1.0))


def test_spec_names():
    assert KernelSpec("gaussian", t=0.01).name == "gaussian_t0.01"
    assert KernelSpec("linear").name == "linear"
    assert KernelSpec("polynomial", a=1, b=4).name == "poly_a1_b4"
