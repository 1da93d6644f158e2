import numpy as np
import pytest

from similearn.graph import (
    build_graph,
    cluster,
    kmeans,
    laplacian,
    spectral_embed,
)
from similearn.metrics import accuracy


def two_block_z(sizes=(5, 5), weight=1.0):
    n = sum(sizes)
    Z = np.zeros((n, n))
    Z[: sizes[0], : sizes[0]] = weight
    Z[sizes[0]:, sizes[0]:] = weight
    np.fill_diagonal(Z, 0.0)
    return Z


def test_build_graph_fixed_point():
    Z = np.array([[0.0, 0.3], [0.3, 0.0]])
    S = build_graph(Z)
    np.testing.assert_allclose(S, Z)


def test_build_graph_signed_asymmetric():
    Z = np.array([[0.0, -1.0], [0.0, 0.0]])
    S = build_graph(Z)
    np.testing.assert_allclose(S, [[0.0, 0.5], [0.5, 0.0]])
    np.testing.assert_allclose(np.diag(laplacian(S)), [0.5, 0.5])


def test_build_graph_exact_symmetry(rng):
    Z = rng.standard_normal((20, 20))
    np.fill_diagonal(Z, 0.0)
    S = build_graph(Z)
    assert np.array_equal(S, S.T)
    assert np.all(S >= 0.0)
    assert np.all(np.diag(S) == 0.0)


def test_laplacian_examples():
    S = build_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(laplacian(S), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_nullspace_and_psd(rng):
    for trial in range(5):
        Z = rng.standard_normal((12, 12))
        np.fill_diagonal(Z, 0.0)
        L = laplacian(build_graph(Z))
        assert np.abs(L @ np.ones(12)).max() <= 1e-10
        assert np.linalg.eigvalsh(L).min() >= -1e-8


def test_laplacian_two_components_zero_eigenvalue_multiplicity():
    L = laplacian(build_graph(two_block_z()))
    evals = np.linalg.eigvalsh(L)
    assert (np.abs(evals) < 1e-10).sum() == 2


def test_spectral_embed_blocks_and_rayleigh():
    L = laplacian(build_graph(two_block_z()))
    V = spectral_embed(L, 2)
    assert np.trace(V.T @ L @ V) <= 1e-8
    # orthonormal columns
    assert np.abs(V.T @ V - np.eye(2)).max() <= 1e-8


def test_spectral_embed_full_basis(rng):
    Z = rng.standard_normal((7, 7))
    np.fill_diagonal(Z, 0.0)
    L = laplacian(build_graph(Z))
    V = spectral_embed(L, 7)
    np.testing.assert_allclose(np.trace(V.T @ L @ V), np.trace(L), atol=1e-8)


def test_spectral_embed_rayleigh_identity(rng):
    Z = rng.standard_normal((9, 9))
    np.fill_diagonal(Z, 0.0)
    L = laplacian(build_graph(Z))
    V = spectral_embed(L, 3)
    assert V.shape == (9, 3)
    # each column is the eigenvector of the matching smallest eigenvalue, in order
    np.testing.assert_allclose(
        np.diag(V.T @ L @ V), np.linalg.eigvalsh(L)[:3], atol=1e-8
    )


def _gapped_laplacian(rng, n, c):
    """L of a connected graph with c dense blocks joined by weak edges."""
    block = np.repeat(np.arange(c), -(-n // c))[:n]
    same = block[:, None] == block[None, :]
    Z = np.where(same, rng.uniform(0.5, 1.0, (n, n)), rng.uniform(1e-4, 1e-3, (n, n)))
    np.fill_diagonal(Z, 0.0)
    return laplacian(build_graph(Z))


@pytest.mark.parametrize("n, c", [(30, 1), (30, 3), (41, 5), (24, 8), (12, 12)])
def test_spectral_embed_matches_full_eigh(rng, n, c):
    L = _gapped_laplacian(rng, n, c)
    evals, U = np.linalg.eigh(L)
    if c < n:
        assert evals[c] - evals[c - 1] > 1.0
    U = U[:, :c]
    V = spectral_embed(L, c)
    assert V.shape == (n, c)
    # the same invariant subspace, whatever basis each solver picks
    assert np.abs(V @ V.T - U @ U.T).max() <= 1e-8
    assert np.abs(V.T @ V - np.eye(c)).max() <= 1e-8
    np.testing.assert_allclose(np.diag(V.T @ L @ V), evals[:c], rtol=0, atol=1e-8)


def test_spectral_embed_rejects_bad_c():
    L = np.eye(4)
    with pytest.raises(ValueError):
        spectral_embed(L, 0)
    with pytest.raises(ValueError):
        spectral_embed(L, 5)


def test_kmeans_separated_groups(rng):
    X = np.vstack([rng.normal(0, 0.1, (10, 2)), rng.normal(50, 0.1, (10, 2))])
    res = kmeans(X, 2, seed=0)
    want = np.repeat([0, 1], 10)
    assert accuracy(res.assignments, want) == 1.0


def test_kmeans_single_cluster_inertia(rng):
    X = rng.standard_normal((15, 3))
    res = kmeans(X, 1, seed=0)
    np.testing.assert_allclose(res.assignments, np.zeros(15))
    np.testing.assert_allclose(res.inertia, ((X - X.mean(0)) ** 2).sum(), rtol=1e-12)


def test_kmeans_deterministic(rng):
    X = rng.standard_normal((30, 4))
    a = kmeans(X, 3, seed=42)
    b = kmeans(X, 3, seed=42)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


def test_kmeans_rejects_too_many_clusters(rng):
    with pytest.raises(ValueError):
        kmeans(rng.standard_normal((3, 2)), 4, seed=0)


def test_cluster_block_diagonal_perfect():
    Z = two_block_z(sizes=(6, 4), weight=0.7)
    res = cluster(Z, 2, seed=0)
    want = np.repeat([0, 1], [6, 4])
    assert accuracy(res.assignments, want) == 1.0


def test_cluster_n_equals_c():
    # distinct embedding rows -> every sample alone in its own cluster
    Z = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 2.0, 0.0],
        ]
    )
    res = cluster(Z, 4, seed=0)
    assert len(set(res.assignments.tolist())) == 4
