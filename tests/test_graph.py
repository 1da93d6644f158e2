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
from similearn.semisupervised import ssl_experiment

S_OVERFLOWS = r"^Z is too large: S = \(\|Z\| \+ \|Z'\|\)/2 overflows; rescale Z$"
DEGREE_OVERFLOWS = r"^Z is too large: a degree of S = \(\|Z\| \+ \|Z'\|\)/2 overflows; rescale Z$"


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


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300, 8e306])
def test_graph_and_laplacian_bitwise_unchanged_in_range(rng, scale):
    # the formulas before the overflow checks; |Z| < 8e306, so 20 x 8e306 degrees fit
    Z = rng.uniform(-scale, scale, size=(20, 20))
    A = np.abs(Z)
    S = (A + A.T) / 2.0
    assert build_graph(Z).tobytes() == S.tobytes()
    assert laplacian(build_graph(Z)).tobytes() == (np.diag(S.sum(axis=1)) - S).tobytes()


def test_graph_overflow_names_z():
    # every |Z| + |Z'| overflows: S itself cannot be formed
    Z = np.full((6, 6), 1e308)
    labels = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match=S_OVERFLOWS):
        build_graph(Z)
    with pytest.raises(ValueError, match=S_OVERFLOWS):
        cluster(Z, 2, seed=0)
    with pytest.raises(ValueError, match=S_OVERFLOWS):
        ssl_experiment(Z, labels, 0.3, repeats=2)


def test_degree_overflow_names_z():
    # S = 1e306 is finite, but each of the 200 row sums is 2e308
    Z = np.full((200, 200), 1e306)
    labels = np.arange(200) % 2
    S = build_graph(Z)
    assert np.isfinite(S).all()
    with pytest.raises(ValueError, match=DEGREE_OVERFLOWS):
        laplacian(S)
    with pytest.raises(ValueError, match=DEGREE_OVERFLOWS):
        cluster(Z, 2, seed=0)
    with pytest.raises(ValueError, match=DEGREE_OVERFLOWS):
        ssl_experiment(Z, labels, 0.3, repeats=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_z(bad):
    Z = np.zeros((4, 4))
    Z[1, 2] = bad
    with pytest.raises(ValueError, match="^Z must be finite$"):
        build_graph(Z)


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
    assignments, _ = kmeans(X, 2, seed=0)
    want = np.repeat([0, 1], 10)
    assert accuracy(assignments, want) == 1.0


def test_kmeans_single_cluster_inertia(rng):
    X = rng.standard_normal((15, 3))
    assignments, inertia = kmeans(X, 1, seed=0)
    np.testing.assert_allclose(assignments, np.zeros(15))
    np.testing.assert_allclose(inertia, ((X - X.mean(0)) ** 2).sum(), rtol=1e-12)


def test_kmeans_deterministic(rng):
    X = rng.standard_normal((30, 4))
    a_assignments, a_inertia = kmeans(X, 3, seed=42)
    b_assignments, b_inertia = kmeans(X, 3, seed=42)
    assert np.array_equal(a_assignments, b_assignments)
    assert a_inertia == b_inertia


def test_kmeans_rejects_too_many_clusters(rng):
    with pytest.raises(ValueError):
        kmeans(rng.standard_normal((3, 2)), 4, seed=0)


def test_cluster_block_diagonal_perfect():
    Z = two_block_z(sizes=(6, 4), weight=0.7)
    assignments, _ = cluster(Z, 2, seed=0)
    want = np.repeat([0, 1], [6, 4])
    assert accuracy(assignments, want) == 1.0


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
    assignments, _ = cluster(Z, 4, seed=0)
    assert len(set(assignments.tolist())) == 4
