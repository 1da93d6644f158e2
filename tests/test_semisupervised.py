import tracemalloc

import numpy as np
import pytest

from conftest import f2py_spd_solve
from similearn import semisupervised
from similearn.errors import LinearSolveError
from similearn.graph import build_graph, laplacian
from similearn.semisupervised import lgc_propagate, make_label_matrix, ssl_experiment


def two_block_z(n_per=5, weight=0.8):
    n = 2 * n_per
    Z = np.zeros((n, n))
    Z[:n_per, :n_per] = weight
    Z[n_per:, n_per:] = weight
    np.fill_diagonal(Z, 0.0)
    return Z


def test_make_label_matrix():
    labels = np.array([0, 1, 1, 0])
    mask = np.array([True, False, True, False])
    Y = make_label_matrix(labels, mask, 2)
    np.testing.assert_allclose(Y, [[1, 0], [0, 0], [0, 1], [0, 0]])
    assert np.all(Y.sum(axis=1)[mask] == 1.0)
    assert np.all(Y[~mask] == 0.0)


def test_lgc_zero_laplacian_returns_labels():
    labels = np.array([0, 1, 0])
    Y = make_label_matrix(labels, np.ones(3, dtype=bool), 2)
    F = lgc_propagate(np.zeros((3, 3)), Y, gamma=0.7)
    np.testing.assert_allclose(F, Y, atol=1e-12)
    assert np.array_equal(F.argmax(axis=1), labels)


def test_lgc_two_blocks_one_label_each():
    L = laplacian(build_graph(two_block_z()))
    labels = np.repeat([0, 1], 5)
    mask = np.zeros(10, dtype=bool)
    mask[0] = mask[5] = True
    F = lgc_propagate(L, make_label_matrix(labels, mask, 2), gamma=1.0)
    assert np.array_equal(F.argmax(axis=1), labels)


def test_lgc_large_gamma_fits_labels(rng):
    Z = rng.standard_normal((8, 8))
    np.fill_diagonal(Z, 0.0)
    L = laplacian(build_graph(Z))
    labels = rng.integers(0, 3, size=8)
    labels[:3] = [0, 1, 2]
    mask = np.ones(8, dtype=bool)
    F = lgc_propagate(L, make_label_matrix(labels, mask, 3), gamma=1e8)
    assert np.array_equal(F.argmax(axis=1), labels)


def test_lgc_residual_invariant(rng):
    for trial in range(5):
        Z = rng.standard_normal((9, 9))
        np.fill_diagonal(Z, 0.0)
        L = laplacian(build_graph(Z))
        labels = rng.integers(0, 2, size=9)
        mask = rng.random(9) < 0.5
        gamma = float(rng.uniform(0.1, 10.0))
        Y = make_label_matrix(labels, mask, 2)
        F = lgc_propagate(L, Y, gamma)
        r = (L + gamma * np.eye(9)) @ F - gamma * Y
        bound = 1e-8 * max(1.0, gamma * np.linalg.norm(Y, "fro"))
        assert np.linalg.norm(r, "fro") <= bound


def test_lgc_prediction_scale_invariance(rng):
    Z = rng.standard_normal((7, 7))
    np.fill_diagonal(Z, 0.0)
    L = laplacian(build_graph(Z))
    labels = rng.integers(0, 2, size=7)
    mask = rng.random(7) < 0.6
    Y = make_label_matrix(labels, mask, 2)
    base = lgc_propagate(L, Y, 1.0).argmax(axis=1)
    assert np.array_equal(lgc_propagate(L, 5.0 * Y, 1.0).argmax(axis=1), base)


def test_lgc_argmax_tie_breaks_low():
    # symmetric two-class toy where both columns tie exactly
    Y = np.array([[1.0, 1.0], [0.0, 0.0]])
    F = lgc_propagate(np.zeros((2, 2)), Y, gamma=2.0)
    assert F[0, 0] == F[0, 1]
    assert F.argmax(axis=1)[0] == 0


def test_lgc_shape_and_gamma_errors():
    with pytest.raises(ValueError):
        lgc_propagate(np.zeros((3, 3)), np.zeros((4, 2)), gamma=1.0)
    with pytest.raises(ValueError):
        lgc_propagate(np.zeros((2, 2)), np.zeros((2, 2)), gamma=0.0)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 7.3])
def test_lgc_factor_matches_dense_shift_bitwise(rng, gamma):
    """Shifting L inside the solve gives F with the bits of solving with L + gamma I."""
    n = 200
    Z = np.where(rng.random((n, n)) < 0.05, rng.random((n, n)), 0.0)
    Z[:10] = Z[:, :10] = 0.0  # isolated nodes: zero rows in L
    L = laplacian(build_graph(Z))
    Y = make_label_matrix(rng.integers(0, 3, n), rng.random(n) < 0.2, 3)
    for lap in (L, np.where(L == 0.0, -0.0, L)):
        want = gamma * f2py_spd_solve(lap + gamma * np.eye(n), Y)
        got = lgc_propagate(lap, Y, gamma)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "n, c, repeats",
    [(5, 1, 1), (5, 2, 20), (60, 1, 7), (200, 3, 1), (200, 20, 20), (500, 7, 20), (1000, 2, 20)],
)
def test_lgc_stacked_labels_match_per_repeat_calls(rng, n, c, repeats):
    """ssl_experiment's one solve on side-by-side label matrices against one call per repeat.

    Both factor the same matrix the same way, and each right-hand side is
    its own row of X' in the right-side dtrsm calls. They agreed bitwise at
    every n and width tried (n up to 1000, up to 400 columns), but an
    OpenBLAS build may treat the rows at a tile's edge differently, which
    would move the last bit; so the columns must agree to a few ulps, and
    bitwise when there is one repeat.
    """
    Z = np.where(rng.random((n, n)) < 0.1, rng.random((n, n)), 0.0)
    L = laplacian(build_graph(Z))
    Ys = [make_label_matrix(rng.integers(0, c, n), rng.random(n) < 0.3, c) for _ in range(repeats)]
    stacked = lgc_propagate(L, np.hstack(Ys), 0.7)
    each = np.hstack([lgc_propagate(L, Y, 0.7) for Y in Ys])
    assert stacked.shape == (n, repeats * c)
    assert np.abs(stacked - each).max() <= 8 * np.finfo(float).eps * np.abs(each).max()
    if repeats == 1:
        assert np.array_equal(stacked.view(np.uint64), each.view(np.uint64))


def test_lgc_holds_one_n_by_n_array(rng):
    """The solve's one working copy of L is the only n x n array lgc_propagate allocates."""
    n = 300
    Z = np.where(rng.random((n, n)) < 0.1, rng.random((n, n)), 0.0)
    L = laplacian(build_graph(Z))
    Y = make_label_matrix(rng.integers(0, 3, n), rng.random(n) < 0.3, 3)
    tracemalloc.start()
    try:
        lgc_propagate(L, Y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_lgc_rejects_gamma_below_the_rounding_of_l():
    # n eps d = 6 eps 5e16 ~ 67: L + I is L to working precision
    L = laplacian(build_graph(np.full((6, 6), 1e16)))
    Y = make_label_matrix([0, 0, 0, 1, 1, 1], [True, False, False, True, False, False], 2)
    msg = "gamma = 1.0 <= n eps d, where d = 5.000e+16 is the graph's largest degree"
    with pytest.raises(ValueError) as e:
        lgc_propagate(L, Y, 1.0)
    assert msg in str(e.value)
    assert np.all(np.isfinite(lgc_propagate(L, Y, 100.0)))


@pytest.mark.parametrize("where", ["L", "Y"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lgc_rejects_non_finite_input(where, bad):
    L = laplacian(build_graph(two_block_z(n_per=2)))
    Y = make_label_matrix([0, 0, 1, 1], [True, False, True, False], 2)
    (L if where == "L" else Y)[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        lgc_propagate(L, Y, gamma=1.0)


# the message of the one LGC factorization path, for lgc_propagate and ssl_experiment
PSD_LAPLACIAN = "L must be a PSD Laplacian"


def test_lgc_rejects_indefinite_laplacian():
    Y = make_label_matrix([0, 1, 0], [True, True, False], 2)
    with pytest.raises(LinearSolveError, match=PSD_LAPLACIAN):
        lgc_propagate(np.diag([1.0, -5.0, 1.0]), Y, gamma=1.0)


def test_ssl_rejects_indefinite_laplacian(monkeypatch):
    monkeypatch.setattr(semisupervised, "laplacian", lambda S: -5.0 * np.eye(8))
    with pytest.raises(LinearSolveError, match=PSD_LAPLACIAN):
        ssl_experiment(two_block_z(n_per=4), np.repeat([0, 1], 4), fraction=0.25, gamma=1.0)


def test_ssl_block_graph_is_perfect():
    Z = two_block_z(n_per=10)
    labels = np.repeat([0, 1], 10)
    mean_acc, std_acc, per_repeat = ssl_experiment(
        Z, labels, fraction=0.1, repeats=20, gamma=1.0, seed=0
    )
    assert mean_acc == 1.0
    assert std_acc == 0.0
    assert len(per_repeat) == 20


def test_ssl_fraction_one_is_degenerate():
    Z = two_block_z(n_per=3)
    labels = np.repeat([0, 1], 3)
    with pytest.raises(ValueError):
        ssl_experiment(Z, labels, fraction=1.0)


# each on a perfect block graph, one block per label value: class 1 missing; a
# class -1 that is never labeled but would be scored; float ids, even integral
@pytest.mark.parametrize(
    "labels, match",
    [
        ([0, 0, 0, 2, 2, 2], "class 1 has no samples"),
        ([0] * 4 + [1] * 4 + [-1] * 4, "nonnegative integer class ids"),
        ([0.0] * 4 + [1.0] * 4 + [2.0] * 4, "nonnegative integer class ids"),
    ],
    ids=["missing_class", "negative_label", "float_labels"],
)
def test_ssl_rejects_empty_class(labels, match):
    labels = np.array(labels)
    Z = 0.8 * (labels[:, None] == labels[None, :])
    np.fill_diagonal(Z, 0.0)
    with pytest.raises(ValueError, match=match):
        ssl_experiment(Z, labels, fraction=0.3)


def test_ssl_stratified_counts_and_unlabeled_protocol(rng):
    # replicate the documented seeding scheme and recompute accuracy
    # through a plain linear solve; results must agree exactly
    Z = np.abs(rng.standard_normal((12, 12))) * 0.1
    np.fill_diagonal(Z, 0.0)
    labels = np.repeat([0, 1, 2], 4)
    fraction, repeats, gamma, seed = 0.3, 6, 0.5, 99
    mean_acc, _, per_repeat = ssl_experiment(
        Z, labels, fraction, repeats=repeats, gamma=gamma, seed=seed
    )

    L = laplacian(build_graph(Z))
    want = []
    for ss in np.random.SeedSequence(seed).spawn(repeats):
        r = np.random.default_rng(ss)
        mask = np.zeros(12, dtype=bool)
        for k in range(3):
            idx = np.flatnonzero(labels == k)
            take = int(np.ceil(fraction * idx.size))
            mask[r.choice(idx, size=max(1, take), replace=False)] = True
        Y = np.zeros((12, 3))
        Y[mask, labels[mask]] = 1.0
        F = np.linalg.solve(L + gamma * np.eye(12), gamma * Y)
        pred = F.argmax(axis=1)
        want.append(float((pred[~mask] == labels[~mask]).mean()))
    np.testing.assert_allclose(per_repeat, want, atol=1e-12)
    assert mean_acc == pytest.approx(np.mean(want))


def test_ssl_input_validation():
    Z = two_block_z(n_per=4)
    labels = np.repeat([0, 1], 4)
    with pytest.raises(ValueError):
        ssl_experiment(Z, labels, fraction=0.0)
    with pytest.raises(ValueError):
        ssl_experiment(Z, labels, fraction=0.5, repeats=0)


@pytest.mark.parametrize("gamma", [-1.0, 0.0, float("nan")])
def test_ssl_checks_gamma_before_factoring(gamma):
    Z = two_block_z(n_per=4)
    labels = np.repeat([0, 1], 4)
    with pytest.raises(ValueError, match="gamma"):
        ssl_experiment(Z, labels, fraction=0.5, gamma=gamma)
