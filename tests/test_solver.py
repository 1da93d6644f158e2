import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from conftest import f2py_spd_solve, random_psd_kernel
from test_acceptance import _pgd_reference
from similearn import _lapack
from similearn import solver as solver_module
from similearn._lapack import solve_spd
from similearn.errors import DivergenceError, LinearSolveError
from similearn.graph import cluster
from similearn.kernels import (
    KernelSpec,
    build_kernel_bank,
    compute_kernel,
    normalize_kernel,
)
from similearn.solver import (
    SolverConfig,
    diagnostics_dict,
    evaluate_objective,
    prox_l1,
    prox_nuclear,
    smooth_gradient,
    smooth_objective,
    solve,
    update_h,
    update_j,
    update_w,
    update_z,
)


# ---------------------------------------------------------------- prox


def _reference_prox_nuclear(D, tau):
    """The SVD form prox_nuclear replaced; prox_nuclear must agree with it."""
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


@st.composite
def prox_cases(draw):
    """(D, tau): D = U diag(s) V' with singular values drawn from a few levels.

    Levels are zero, tau itself, tau within 1e-3, and up to 1e7 tau, so
    D can be zero, rank-deficient, have repeated singular values, or
    have a singular value at the threshold.
    """
    n = draw(st.integers(1, 12))
    tau = 10.0 ** draw(st.floats(-3, 3))
    top = tau * 10.0 ** draw(st.floats(0, 7))
    level = st.one_of(
        st.just(0.0),
        st.just(tau),
        st.just(top),
        st.floats(1 - 1e-3, 1 + 1e-3).map(lambda f: f * tau),
        st.floats(0, 1).map(lambda f: f * top),
    )
    levels = draw(st.lists(level, min_size=1, max_size=4))
    s = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * s) @ V.T, tau


@settings(max_examples=400, deadline=None)
@given(prox_cases())
def test_prox_nuclear_matches_svd_reference(case):
    D, tau = case
    got = prox_nuclear(D, tau)
    want = _reference_prox_nuclear(D, tau)
    bound = 1e-12 * max(1.0, np.linalg.norm(D, 2))
    assert np.abs(got - want).max() <= bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prox_nuclear_rejects_non_finite(bad):
    D = np.eye(3)
    D[0, 1] = bad
    with pytest.raises(DivergenceError):
        prox_nuclear(D, 0.1)


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
def test_solve_never_thresholds_non_finite_d_to_zero(rng, monkeypatch, reg):
    # finite J, W and H whose average overflows: D is inf in the Z step
    def huge(K, *args):
        return np.full(K.shape, 1e308)

    for name in ("update_j", "update_w", "update_h"):
        monkeypatch.setattr(solver_module, name, huge)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        solve(random_psd_kernel(5, rng), SolverConfig(regularizer=reg, max_iter=3))


def test_prox_nuclear_takes_svd_form_when_gram_overflows(rng):
    # finite D whose D D' overflows to inf, which eigh cannot decompose
    D = rng.standard_normal((4, 4)) * 1e200
    got = prox_nuclear(D, 0.1)
    bound = 1e-12 * max(1.0, np.linalg.norm(D, 2))
    assert np.abs(got - _reference_prox_nuclear(D, 0.1)).max() <= bound


def test_solve_with_overflowing_gram_ends_in_divergence(rng, monkeypatch):
    # J grows 1e100-fold per call: D D' overflows while D is finite, then J overflows
    real_update_j = solver_module.update_j
    monkeypatch.setattr(solver_module, "update_j", lambda *args: real_update_j(*args) * 1e100)
    cfg = SolverConfig(regularizer="low_rank", max_iter=10)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        solve(random_psd_kernel(5, rng), cfg)


def test_prox_nuclear_diagonal_case():
    out = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-10)


def test_prox_l1_scalar_cases():
    np.testing.assert_allclose(prox_l1(np.array([0.5]), 0.2), [0.3], atol=1e-10)
    np.testing.assert_allclose(prox_l1(np.array([-0.1]), 0.2), [0.0], atol=1e-10)
    np.testing.assert_allclose(prox_l1(np.array([-0.5]), 0.2), [-0.3], atol=1e-10)


def test_prox_identity_at_zero_tau(rng):
    D = rng.standard_normal((6, 6))
    np.testing.assert_allclose(prox_nuclear(D, 0.0), D, atol=1e-10)
    np.testing.assert_allclose(prox_l1(D, 0.0), D, atol=1e-12)


def test_prox_full_shrinkage(rng):
    D = rng.standard_normal((5, 5))
    smax = np.linalg.svd(D, compute_uv=False)[0]
    assert np.all(prox_nuclear(D, smax + 1.0) == 0.0)
    assert np.all(prox_l1(D, np.abs(D).max() + 1.0) == 0.0)


def _prox_objective_l1(X, D, tau):
    return tau * np.abs(X).sum() + 0.5 * ((X - D) ** 2).sum()


def _prox_objective_nuc(X, D, tau):
    return tau * np.linalg.svd(X, compute_uv=False).sum() + 0.5 * ((X - D) ** 2).sum()


def test_prox_l1_optimality(rng):
    # no single-entry perturbation may improve the prox objective
    D = rng.standard_normal((5, 5))
    tau = 0.3
    X = prox_l1(D, tau)
    base = _prox_objective_l1(X, D, tau)
    for i in range(5):
        for j in range(5):
            for eps in (1e-3, -1e-3):
                P = X.copy()
                P[i, j] += eps
                assert _prox_objective_l1(P, D, tau) >= base - 1e-9


def test_prox_nuclear_optimality(rng):
    D = rng.standard_normal((5, 5))
    tau = 0.3
    X = prox_nuclear(D, tau)
    base = _prox_objective_nuc(X, D, tau)
    U, s, Vt = np.linalg.svd(D)
    for k in range(5):
        for eps in (1e-3, -1e-3):
            P = X + eps * np.outer(U[:, k], Vt[k])
            assert _prox_objective_nuc(P, D, tau) >= base - 1e-9


# ------------------------------------------------------------- updates


def test_update_j_identity_case():
    K = np.eye(2)
    J = update_j(K, np.zeros((2, 2)), np.zeros((2, 2)), 1.0, np.linalg.inv(K + np.eye(2)))
    np.testing.assert_allclose(J, 0.5 * np.eye(2), atol=1e-12)


def test_update_j_large_mu_approaches_z(rng):
    K = random_psd_kernel(4, rng)
    Z = rng.standard_normal((4, 4))
    Y1 = np.zeros((4, 4))
    gaps = [
        np.linalg.norm(update_j(K, Z, Y1, mu, np.linalg.inv(K + mu * np.eye(4))) - Z, "fro")
        for mu in (1.0, 10.0, 100.0, 1000.0)
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_update_w_identity_case():
    I = np.eye(2)
    Zero = np.zeros((2, 2))
    W = update_w(I, I, Zero, Zero, mu=1.0, alpha=0.5)
    np.testing.assert_allclose(W, 0.5 * np.eye(2), atol=1e-12)


def test_update_h_identity_case():
    I = np.eye(2)
    Zero = np.zeros((2, 2))
    H = update_h(I, I, Zero, Zero, mu=1.0, alpha=0.5)
    np.testing.assert_allclose(H, 0.5 * np.eye(2), atol=1e-12)


def test_update_w_h_alpha_zero_collapse(rng):
    K = random_psd_kernel(4, rng)
    Z = rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4))
    H = rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        update_w(K, H, Z, Y, mu=2.0, alpha=0.0), Z - Y / 2.0, atol=1e-12
    )
    np.testing.assert_allclose(
        update_h(K, H, Z, Y, mu=2.0, alpha=0.0), Z - Y / 2.0, atol=1e-12
    )


def test_update_plug_back_residuals(rng):
    # each update must satisfy its own normal equation
    n = 5
    K = random_psd_kernel(n, rng)
    Z = rng.standard_normal((n, n))
    H = rng.standard_normal((n, n))
    W0 = rng.standard_normal((n, n))
    Y = rng.standard_normal((n, n))
    mu, alpha = 1.3, 0.7

    J = update_j(K, Z, Y, mu, np.linalg.inv(K + mu * np.eye(n)))
    r = (K + mu * np.eye(n)) @ J - (K + mu * Z - Y)
    assert np.linalg.norm(r, "fro") <= 1e-10

    W = update_w(K, H, Z, Y, mu, alpha)
    KH = K @ H
    r = (2 * alpha * KH @ KH.T + mu * np.eye(n)) @ W - (
        2 * alpha * KH @ K.T + mu * Z - Y
    )
    assert np.linalg.norm(r, "fro") <= 1e-10

    Hn = update_h(K, W0, Z, Y, mu, alpha)
    KtW = K.T @ W0
    r = (2 * alpha * KtW @ KtW.T + mu * np.eye(n)) @ Hn - (
        2 * alpha * KtW @ K + mu * Z - Y
    )
    assert np.linalg.norm(r, "fro") <= 1e-10


@st.composite
def j_step_cases(draw):
    """(K, Z, Y1, mu): SPD K with lambda_max in [4, 5e3] and cond(K) up to 1e4.

    That lambda_max range is the clustering12 bank's on normalized kernels.
    """
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 10.0 ** draw(st.floats(np.log10(4.0), np.log10(5e3)))
    cond = 10.0 ** draw(st.floats(0, 4))
    lam = top * cond ** -rng.uniform(0, 1, n)
    lam[-1], lam[0] = top / cond, top
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = (Q * lam) @ Q.T
    K = (K + K.T) / 2
    mu = 10.0 ** draw(st.floats(-2, 2))
    return K, rng.standard_normal((n, n)), rng.standard_normal((n, n)), mu


@settings(max_examples=200, deadline=None)
@given(j_step_cases())
def test_update_j_inverse_matches_cholesky_solve(case):
    # the product with solve's (K + mu I)^-1 against the dpotrs solve it replaced
    K, Z, Y1, mu = case
    factor = cho_factor(K + mu * np.eye(K.shape[0]))
    got = update_j(K, Z, Y1, mu, cho_solve(factor, np.eye(K.shape[0])))
    want = cho_solve(factor, K + mu * Z - Y1)
    assert np.linalg.norm(got - want, "fro") <= 1e-10 * max(1.0, np.linalg.norm(want, "fro"))


def test_update_w_h_report_non_positive_definite_systems():
    # mu < 0 with alpha = 0 leaves mu I as the left-hand side
    Zero = np.zeros((2, 2))
    msg = "left-hand side is not positive definite (cond ~ 1.000e+00); increase mu"
    for update, what in ((update_w, "W update"), (update_h, "H update")):
        with pytest.raises(LinearSolveError, match=re.escape(f"{what}: {msg}")) as e:
            update(np.eye(2), np.eye(2), Zero, Zero, mu=-1.0, alpha=0.0)
        assert e.value.cond == 1.0


@st.composite
def spd_systems(draw):
    """(A, B, shift): A = (c M) M' formed by gemm, so not exactly symmetric, shift > 0.

    n is 1..60 with 1..n right-hand sides, and either array may come in C
    or Fortran order. M is block diagonal, so A's off-diagonal blocks are
    zeros, about half of them -0.0, and some columns of B are -0.0 in the
    second block: there the signs of X's zeros follow those of U's.
    """
    n = draw(st.integers(1, 60))
    nrhs = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((n, n))
    k = draw(st.integers(0, n))
    M[:k, k:] = M[k:, :k] = 0.0
    A = (10.0 ** draw(st.floats(-3, 3)) * M) @ M.T
    A[(A == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    B = rng.standard_normal((n, nrhs))
    B[k:, rng.random(nrhs) < 0.5] = -0.0
    order = st.sampled_from("CF")
    shift = 10.0 ** draw(st.floats(-3, 3))
    return np.asarray(A, order=draw(order)), np.asarray(B, order=draw(order)), shift


def _bits(X):
    return X.dtype, X.shape, X.flags.f_contiguous, X.tobytes(order="A")


@settings(max_examples=300, deadline=None)
@given(spd_systems())
def test_solve_spd_is_bitwise_scipy_dpotrf_dtrsm(case):
    A, B, shift = case
    A0, B0 = A.copy(order="A"), B.copy(order="A")
    X = solve_spd(A, B, shift, "W update")
    assert _bits(X) == _bits(f2py_spd_solve(A + shift * np.eye(len(A)), B))
    assert _bits(A) == _bits(A0) and _bits(B) == _bits(B0)


# one solve's Z, printed as hex bits; with argument "reuse", scipy.linalg is
# imported after similearn, and its Cython modules must be the ones similearn ran
REUSE_PROBE = """
import sys

import numpy as np

import similearn.cli
from similearn import _lapack, solver

if sys.argv[1:] == ["reuse"]:
    import scipy.linalg
    from scipy.linalg import cython_blas, cython_lapack

    assert (cython_blas, cython_lapack) == (_lapack.cython_blas, _lapack.cython_lapack)
    assert sys.modules["scipy.linalg.cython_lapack"] is _lapack.cython_lapack
    import scipy.linalg.cython_lapack

    assert scipy.linalg.cython_lapack is _lapack.cython_lapack
    assert scipy.linalg.eigh(np.eye(2))[0].tolist() == [1.0, 1.0]
X = np.random.default_rng(0).standard_normal((30, 4))
config = solver.SolverConfig(regularizer="low_rank", alpha=0.1, beta=0.1, max_iter=20)
print(solver.solve(X @ X.T / 4, config).Z.tobytes().hex())
"""


def test_scipy_linalg_imported_later_reuses_the_cython_modules():
    src = Path(solver_module.__file__).resolve().parents[1]
    runs = [
        subprocess.run([sys.executable, "-c", REUSE_PROBE, *argv], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(src)))
        for argv in ([], ["reuse"])
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    fresh, reuse = (run.stdout for run in runs)
    assert len(fresh) == 2 * 8 * 30 * 30 + 1 and fresh == reuse


def test_solve_spd_not_positive_definite_names_step_and_cond():
    A = np.diag([2.0, -1.0])  # shifted by -1: diag(1, -2), whose cond is 2
    msg = "H update: left-hand side is not positive definite (cond ~ 2.000e+00); increase mu"
    with pytest.raises(LinearSolveError, match=re.escape(msg)) as e:
        solve_spd(A, np.eye(2), -1.0, "H update")
    assert e.value.cond == 2.0


def test_solve_spd_raises_on_an_illegal_argument(monkeypatch):
    def rejects_lda(uplo, n, a, lda, info):
        info.value = -4

    monkeypatch.setattr(_lapack, "_DPOTRF", rejects_lda)
    with pytest.raises(LinearSolveError, match="W update: dpotrf rejected its argument 4"):
        solve_spd(np.eye(3), np.eye(3), 1.0, "W update")


def test_solve_spd_hands_dpotrf_no_non_finite_matrix(monkeypatch):
    def called(*args):
        raise AssertionError("dpotrf called")

    monkeypatch.setattr(_lapack, "_DPOTRF", called)
    for A in (np.diag([1.0, np.inf]), np.diag([np.nan, 1.0])):
        X = solve_spd(A, np.ones((2, 3)), 1.0, "W update")
        assert X.shape == (2, 3) and np.isnan(X).all()


def test_solve_spd_rejects_shapes_that_do_not_form_a_system():
    for A, B in ((np.eye(3), np.eye(2)), (np.ones((3, 2)), np.eye(3)), (np.eye(3), np.ones(3))):
        with pytest.raises(ValueError, match="W update: cannot solve"):
            solve_spd(A, B, 1.0, "W update")


def test_solve_spd_on_concurrent_threads_matches_serial_calls(rng):
    cases = []
    for n in (40, 60, 80, 100) * 2:
        M = rng.standard_normal((n, n))
        cases.append(((0.2 * M) @ M.T, rng.standard_normal((n, n)), 1.0))
    serial = [_bits(solve_spd(*case, "W update")) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                got = pool.map(lambda case: _bits(solve_spd(*case, "W update")), cases)
                assert list(got) == serial
    finally:
        sys.setswitchinterval(interval)


def test_update_z_averaging_identity(rng):
    D0 = rng.standard_normal((4, 4))
    Zero = np.zeros((4, 4))
    out = update_z(D0, D0, D0, Zero, Zero, Zero, mu=1.0, beta=0.3, regularizer="sparse")
    want = prox_l1(D0, 0.1)
    np.fill_diagonal(want, 0.0)
    np.testing.assert_allclose(out, want, atol=1e-12)
    assert np.all(np.diag(out) == 0.0)


def test_update_z_full_shrinkage(rng):
    D0 = rng.standard_normal((4, 4))
    Zero = np.zeros((4, 4))
    big = 1000.0
    for reg in ("sparse", "low_rank"):
        out = update_z(D0, D0, D0, Zero, Zero, Zero, mu=1.0, beta=big, regularizer=reg)
        assert np.all(out == 0.0)


def test_update_z_sparse_matches_scalar_grid_search(rng):
    # entrywise oracle: minimize beta|v| + (3 mu / 2)(v - d)^2 on a fine grid
    n, mu, beta = 4, 1.5, 0.4
    J, W, H = (rng.standard_normal((n, n)) for _ in range(3))
    Y1, Y2, Y3 = (rng.standard_normal((n, n)) for _ in range(3))
    Z = update_z(J, W, H, Y1, Y2, Y3, mu, beta, "sparse")
    D = (J + W + H + (Y1 + Y2 + Y3) / mu) / 3.0
    for i in range(n):
        for j in range(n):
            if i == j:
                assert Z[i, j] == 0.0
                continue
            d = D[i, j]
            grid = np.linspace(d - 1.0, d + 1.0, 200001)
            vals = beta * np.abs(grid) + 1.5 * mu * (grid - d) ** 2
            best = grid[np.argmin(vals)]
            assert abs(Z[i, j] - best) <= 1e-4


# ----------------------------------------------------------- objective


def test_objective_zero_z(rng):
    K = random_psd_kernel(5, rng)
    Z = np.zeros((5, 5))
    for reg in ("sparse", "low_rank"):
        want = 0.5 * np.trace(K) + 0.1 * np.linalg.norm(K, "fro") ** 2
        got = evaluate_objective(K, Z, alpha=0.1, beta=0.7, regularizer=reg)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_objective_hand_expanded_case():
    K = np.eye(2)
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = evaluate_objective(K, Z, alpha=0.0, beta=0.0, regularizer="sparse")
    np.testing.assert_allclose(got, 2.0, atol=1e-12)


def test_objective_nonnegative_on_psd(rng):
    for trial in range(5):
        K = random_psd_kernel(6, rng)
        Z = rng.standard_normal((6, 6))
        np.fill_diagonal(Z, 0.0)
        assert evaluate_objective(K, Z, 0.0, 1e-9, "sparse") >= -1e-9


def test_objective_shape_mismatch():
    with pytest.raises(ValueError):
        evaluate_objective(np.eye(3), np.eye(2), 0.1, 0.1, "sparse")


def test_gradient_matches_finite_differences(rng):
    # central differences on the smooth part at random (K, Z) points
    n, h = 5, 1e-6
    for trial in range(20):
        K = random_psd_kernel(n, rng)
        Z = rng.standard_normal((n, n)) * 0.5
        alpha = float(rng.uniform(0.01, 1.0))
        G = smooth_gradient(K, Z, alpha)
        F = np.zeros_like(G)
        for i in range(n):
            for j in range(n):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += h
                Zm[i, j] -= h
                F[i, j] = (
                    smooth_objective(K, Zp, alpha) - smooth_objective(K, Zm, alpha)
                ) / (2 * h)
        rel = np.linalg.norm(G - F, "fro") / max(np.linalg.norm(F, "fro"), 1e-12)
        assert rel <= 1e-5


# --------------------------------------------------------------- solve


def test_solve_zero_diagonal_and_shapes(rng):
    K = random_psd_kernel(10, rng)
    sol = solve(K, SolverConfig(regularizer="sparse"))
    assert np.all(np.diag(sol.Z) == 0.0)
    assert sol.Z.shape == (10, 10)
    assert np.all(np.isfinite(sol.Z))
    assert len(sol.residuals) == sol.iterations
    assert sol.objective == evaluate_objective(K, sol.Z, 0.1, 0.1, "sparse")


def _reference_solve(K, config):
    """The solve loop as it stood with a separate multiplier step; solve must equal it.

    It recomputes J - Z, W - Z and H - Z for the residual norms and takes
    ||Z_prev||_F afresh each iteration. It starts, as solve does, from
    the least-squares representation and takes J from one inverse.
    Returns (Z, residuals, objective at the final Z, rel_change,
    iterations, converged).
    """
    n = K.shape[0]
    mu, alpha, beta, reg = config.mu, config.alpha, config.beta, config.regularizer
    inverse = f2py_spd_solve(K + mu * np.eye(n), np.eye(n))
    Z = -mu * inverse
    np.fill_diagonal(Z, 0.0)
    H = Z
    Y1, Y2, Y3 = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    residuals = []
    rel, converged, it = np.inf, False, 0

    def check(M, name):
        if not np.all(np.isfinite(M)):
            raise DivergenceError(f"{name} became non-finite at iteration {it}", iteration=it)

    for it in range(1, config.max_iter + 1):
        J = solver_module.update_j(K, Z, Y1, mu, inverse)
        check(J, "J")
        W = solver_module.update_w(K, H, Z, Y2, mu, alpha)
        check(W, "W")
        H = solver_module.update_h(K, W, Z, Y3, mu, alpha)
        check(H, "H")
        Z_prev = Z
        Z = update_z(J, W, H, Y1, Y2, Y3, mu, beta, reg)
        check(Z, "Z")
        Y1, Y2, Y3 = Y1 + mu * (J - Z), Y2 + mu * (W - Z), Y3 + mu * (H - Z)
        rel = np.linalg.norm(Z - Z_prev, "fro") / max(np.linalg.norm(Z_prev, "fro"), 1e-12)
        residuals.append(
            (
                float(np.linalg.norm(J - Z, "fro")),
                float(np.linalg.norm(W - Z, "fro")),
                float(np.linalg.norm(H - Z, "fro")),
            )
        )
        if rel < config.tol:
            converged = True
            break
    objective = float(evaluate_objective(K, Z, alpha, beta, reg))
    return Z, residuals, objective, float(rel), it, converged


@pytest.mark.parametrize("fortran", [True, False])
@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
@pytest.mark.parametrize("max_iter, tol", [(15, 1e-5), (300, 1e-3)], ids=["capped", "converging"])
def test_solve_matches_reference_loop(rng, reg, fortran, max_iter, tol):
    # the kernel's memory order must not change a byte of what solve returns
    K = random_psd_kernel(12, rng)
    cfg = SolverConfig(regularizer=reg, max_iter=max_iter, tol=tol)
    sol = solve(np.asfortranarray(K) if fortran else K, cfg)
    Z, residuals, objective, rel, iterations, converged = _reference_solve(K, cfg)
    assert converged == (max_iter == 300)
    assert sol.Z.tobytes() == Z.tobytes()
    assert sol.residuals == residuals
    assert sol.objective == objective
    assert sol.rel_change == rel
    assert sol.iterations == iterations
    assert sol.converged == converged


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
def test_solve_diverges_like_reference_loop(rng, monkeypatch, reg):
    # the third J overflows, so each loop must stop at its third iteration
    real_update_j = solver_module.update_j
    calls = []

    def overflowing(*args):
        calls.append(None)
        J = real_update_j(*args)
        return J * 1e308 * 10.0 if len(calls) % 3 == 0 else J

    monkeypatch.setattr(solver_module, "update_j", overflowing)
    K = random_psd_kernel(6, rng)
    cfg = SolverConfig(regularizer=reg, max_iter=50)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as want:
            _reference_solve(K, cfg)
        with pytest.raises(DivergenceError) as got:
            solve(K, cfg)
    assert str(got.value) == str(want.value) == "J became non-finite at iteration 3"
    assert got.value.iteration == want.value.iteration == 3


@st.composite
def small_kernels(draw):
    """Symmetric kernels, n in 2..8: PSD, rank-deficient (zero included) or indefinite."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["psd", "rank_deficient", "indefinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "indefinite":
        B = rng.standard_normal((n, n))
        K = B + B.T
    else:
        A = rng.standard_normal((n, n if kind == "psd" else draw(st.integers(0, n - 1))))
        K = A @ A.T
        K = K + K.T
    return K * 10.0 ** draw(st.floats(-3, 3))


@settings(max_examples=150, deadline=None)
@given(
    small_kernels(),
    st.sampled_from(["low_rank", "sparse"]),
    st.floats(0, 1),
    st.floats(1e-3, 10),
    st.floats(1e-2, 10),
    st.integers(1, 10),
)
def test_solve_returns_valid_z_or_typed_error(K, reg, alpha, beta, mu, max_iter):
    cfg = SolverConfig(regularizer=reg, alpha=alpha, beta=beta, mu=mu, max_iter=max_iter)
    try:
        sol = solve(K, cfg)
    except (LinearSolveError, DivergenceError, ValueError) as e:
        assert not isinstance(e, LinAlgError), repr(e)
        return
    assert np.all(np.isfinite(sol.Z))
    assert np.all(np.diag(sol.Z) == 0.0)


def test_solve_deterministic(rng):
    K = random_psd_kernel(8, rng)
    cfg = SolverConfig(regularizer="low_rank", alpha=0.2, beta=0.05)
    a = solve(K, cfg)
    b = solve(K, cfg)
    assert np.array_equal(a.Z, b.Z)


def test_solve_feasibility_at_convergence(rng):
    # split residuals must be tiny once the Z change stalls below tol
    tol = 1e-5
    for trial in range(3):
        K = random_psd_kernel(20, rng)
        sol = solve(K, SolverConfig(regularizer="sparse", tol=tol))
        assert sol.converged
        assert max(sol.residuals[-1]) < tol * 10


def test_solve_block_kernel_mass_stays_in_block():
    # two disjoint all-ones blocks: self-expression has no reason to
    # spend any l1 mass across blocks
    n = 16
    K = np.zeros((n, n))
    K[:8, :8] = 1.0
    K[8:, 8:] = 1.0
    sol = solve(K, SolverConfig(regularizer="sparse"))
    A = np.abs(sol.Z)
    for i in range(n):
        own = slice(0, 8) if i < 8 else slice(8, n)
        assert A[i, own].sum() >= 0.95 * A[i].sum()


@pytest.mark.parametrize("t", [10.0, 50.0, 100.0])
def test_solve_reaches_reference_objective_on_wide_gaussians(t):
    # wide Gaussians (lambda_max(K) up to 2e3) are where 300 iterations at
    # mu = 1 can end far above the model's objective; PGD gives that objective
    rng = np.random.default_rng(0)
    y = np.repeat(np.arange(4), 10)
    X = rng.normal(size=(40, 10)) + 3.0 * y[:, None]
    spec = KernelSpec("gaussian", t=t)
    K, _ = normalize_kernel(compute_kernel(X, spec), spec)
    sol = solve(K, SolverConfig(regularizer="sparse"))
    got = evaluate_objective(K, sol.Z, 0.1, 0.1, "sparse")
    Zp = _pgd_reference(K, 0.1, 0.1, seed=0, iters=3000)
    want = evaluate_objective(K, Zp, 0.1, 0.1, "sparse")
    assert got <= 1.01 * want, (got, want)


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
def test_solve_whose_objective_overflows_raises_divergence(reg):
    # Z = 0 after one iteration, where ||K - Z'KZ||_F^2 is beyond the float range
    with pytest.raises(DivergenceError, match="^objective became non-finite at iteration 1$"):
        solve(np.diag([1e160, 1e160]), SolverConfig(regularizer=reg))


def test_solve_rejects_bad_kernels():
    with pytest.raises(ValueError):
        solve(np.zeros((2, 3)), SolverConfig())
    with pytest.raises(ValueError):
        solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), SolverConfig())
    with pytest.raises(ValueError):
        solve(np.array([[1.0, 5.0], [0.0, 1.0]]), SolverConfig())


def test_solve_indefinite_kernel_needs_large_mu():
    K = np.diag([1.0, -5.0])
    msg = (
        "K + mu I is not positive definite; mu must exceed the most negative kernel "
        "eigenvalue (cond ~ 2.000e+00)"
    )
    with pytest.raises(LinearSolveError) as e:
        solve(K, SolverConfig(mu=1.0))
    assert str(e.value) == msg
    assert e.value.cond == 2.0
    sol = solve(K, SolverConfig(mu=6.0, max_iter=5))
    assert np.all(np.isfinite(sol.Z))


def test_solver_config_validation():
    for bad in (
        dict(regularizer="ridge"),
        dict(alpha=-0.1),
        dict(beta=0.0),
        dict(mu=0.0),
        dict(max_iter=0),
        dict(tol=0.0),
        dict(alpha=float("nan")),
        dict(beta=float("inf")),
        dict(mu=float("inf")),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad).validate()


def test_diagnostics_dict_roundtrip(rng):
    K = random_psd_kernel(6, rng)
    sol = solve(K, SolverConfig(regularizer="sparse", max_iter=20))
    d = diagnostics_dict(sol)
    assert set(d) == {
        "converged", "iterations", "final_rel_change", "residuals", "objective",
    }
    assert len(d["residuals"]) == d["iterations"]
    assert all(len(r) == 3 for r in d["residuals"])
    assert d["objective"] == evaluate_objective(K, sol.Z, 0.1, 0.1, "sparse")


# -------------------------------------------------------- edge inputs


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
def test_duplicate_samples_solve_and_cluster_to_n_labels(reg):
    # every sample twice; c = n must still give each sample its own label
    X = np.random.default_rng(0).standard_normal((3, 2))
    for spec, K, _ in build_kernel_bank(np.vstack([X, X]), "ssl7"):
        sol = solve(K, SolverConfig(regularizer=reg))
        assert np.all(np.isfinite(sol.Z)), spec
        assert np.all(np.diag(sol.Z) == 0.0), spec
        labels, _ = cluster(sol.Z, 6, seed=0)
        assert len(set(labels.tolist())) == 6, spec


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
def test_two_samples_solve_and_cluster(reg):
    X = np.random.default_rng(1).standard_normal((2, 3))
    for spec, K, _ in build_kernel_bank(X, "clustering12"):
        sol = solve(K, SolverConfig(regularizer=reg))
        assert sol.Z.shape == (2, 2)
        assert np.all(np.isfinite(sol.Z)), spec
        assert np.all(np.diag(sol.Z) == 0.0), spec
        for c in (1, 2):
            labels, _ = cluster(sol.Z, c, seed=0)
            assert len(set(labels.tolist())) == c, (spec, c)
