"""ADMM solver for self-expressive similarity learning.

Learns an n x n coefficient matrix Z for a kernel matrix K by minimizing

    1/2 Tr(K - 2KZ + Z'KZ) + alpha ||K - Z'KZ||_F^2 + beta rho(Z)

subject to diag(Z) = 0, where rho is either the nuclear norm
(regularizer "low_rank") or the entrywise l1 norm ("sparse"). The
problem is split three ways (J = W = H = Z) and solved by ADMM with a
fixed penalty mu, from Z = H = (K + mu I)^-1 K with its diagonal zeroed
(the least-squares representation of Lu et al. 2012) and Y = 0. With
P = (K + mu I)^-1:

    J = P (K + mu Z - Y1)
    W = (2 alpha K H H'K' + mu I)^-1 (2 alpha K H K' + mu Z - Y2)
    H = (2 alpha K'W W'K + mu I)^-1 (2 alpha K'W K + mu Z - Y3)
    Z = prox(D, beta / (3 mu)),  D = (J + W + H + (Y1+Y2+Y3)/mu) / 3
    Y1 += mu (J - Z);  Y2 += mu (W - Z);  Y3 += mu (H - Z)

The diagonal of Z is zeroed after every Z update, which keeps the
constraint exact without touching the closed forms. (K + mu I) never
changes, so P is formed once per solve and each J step is one matmul,
cheaper at small n than triangular solves with n right-hand sides.

The low-rank Z step thresholds singular values without an SVD. With
D = U diag(s) V', D D' = U diag(s^2) U', so one symmetric
eigendecomposition of D D' gives U and s, and V' rows follow as
diag(1/s) U'D. The threshold U max(s - tau, 0) V' therefore equals

    sum over s_k > tau of (1 - tau / s_k) u_k (u_k' D),

which never divides by a singular value at or below tau. Forming D D'
squares the spread of the singular values, so a singular value near
tau is resolved to about eps ||D||^2 / tau; when ||D||_2 / tau exceeds
_GRAM_RATIO, or D D' overflows, the threshold falls back to the SVD.
"""

import ctypes
import math
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .errors import DivergenceError, LinearSolveError

REGULARIZERS = ("low_rank", "sparse")

# prox_nuclear's eigh(D D') form errs by about eps ||D||_2^2 / tau, so up
# to this ratio of ||D||_2 to tau it stays within ~1e-13 ||D||_2
_GRAM_RATIO = 500.0


def canonical_regularizer(name):
    """Resolve the accepted alias ``lowrank`` to ``low_rank``."""
    return "low_rank" if name == "lowrank" else name


def require_number(name, value, kind=numbers.Real):
    """Return value if it is a finite ``kind`` instance, else raise; bool never passes."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    # an int is finite, and math.isfinite overflows on a huge one
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass
class SolverConfig:
    """Hyperparameters and run controls for one solve.

    alpha weighs the similarity-preserving term, beta the regularizer,
    mu is the (fixed) ADMM penalty. solve draws no random numbers, so
    equal configs give bit-identical results.
    """

    regularizer: str = "sparse"
    alpha: float = 0.1
    beta: float = 0.1
    mu: float = 1.0
    max_iter: int = 300
    tol: float = 1e-5

    def validate(self):
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}")
        if require_number("alpha", self.alpha) < 0:
            raise ValueError("alpha must be nonnegative")
        if require_number("beta", self.beta) <= 0:
            raise ValueError("beta must be positive")
        if require_number("mu", self.mu) <= 0:
            raise ValueError("mu must be positive")
        if require_number("max_iter", self.max_iter, numbers.Integral) < 1:
            raise ValueError("max_iter must be at least 1")
        if require_number("tol", self.tol) <= 0:
            raise ValueError("tol must be positive")


@dataclass
class Solution:
    """The learned Z and how the solve that produced it ended.

    Z has a zero diagonal. residuals[k] holds (||J-Z||_F, ||W-Z||_F,
    ||H-Z||_F) after iteration k's Z update. objective is the full
    objective, evaluate_objective(K, Z, alpha, beta, regularizer), at the
    returned Z. rel_change is the relative change of Z in the last
    iteration.
    """

    Z: np.ndarray
    converged: bool
    iterations: int
    rel_change: float
    residuals: list
    objective: float


def prox_l1(D, tau):
    """Entrywise soft threshold: argmin_X tau ||X||_1 + 1/2 ||X - D||_F^2."""
    return np.sign(D) * np.maximum(np.abs(D) - tau, 0.0)


def prox_nuclear(D, tau):
    """Singular value threshold: argmin_X tau ||X||_* + 1/2 ||X - D||_F^2.

    Computed from eigh(D D') as the module docstring explains. Raises
    DivergenceError on a non-finite D, which would otherwise lose its
    NaN eigenvalues to the threshold and come back as zeros. A finite D
    beyond about 1e154 overflows D D' and takes the SVD form instead.
    """
    # a non-finite D always gives a non-finite D D', so one check covers both
    with np.errstate(over="ignore", invalid="ignore"):
        G = D @ D.T
    if np.all(np.isfinite(G)):
        lam, U = np.linalg.eigh(G)
        s = np.sqrt(np.maximum(lam, 0.0))
        if s[-1] <= _GRAM_RATIO * tau:
            keep = s > tau
            Uk = U[:, keep]
            return (Uk * (1.0 - tau / s[keep])) @ (Uk.T @ D)
    elif not np.all(np.isfinite(D)):
        raise DivergenceError("prox_nuclear: D has non-finite entries")
    # ||D||_2 / tau beyond _GRAM_RATIO, or a finite D whose D D' overflowed
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def _scipy_linalg_module(name):
    """scipy.linalg's extension module ``name``, run (or reused) without its package.

    The Cython BLAS and LAPACK modules link scipy's OpenBLAS themselves and
    import only numpy and scipy internals, so scipy.linalg's __init__ need not run.
    The entry their init puts in sys.modules is dropped, so a later import binds
    them to the scipy.linalg package; Cython gives it the same module objects.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = PathFinder.find_spec(fullname, [os.path.join(scipy.__path__[0], "linalg")])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(fullname, None)
    return module


# routines that scipy's Cython LAPACK and BLAS APIs export, with Fortran's
# by-reference arguments, called through ctypes, which releases the GIL
cython_blas, cython_lapack = map(_scipy_linalg_module, ("cython_blas", "cython_lapack"))
_INT, _PTR, _OBJ = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p, ctypes.py_object
_CHAR, _DOUBLE = ctypes.c_char_p, ctypes.POINTER(ctypes.c_double)
_capsule_name = ctypes.PYFUNCTYPE(_CHAR, _OBJ)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(_PTR, _OBJ, _CHAR)(("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(module, name, *argtypes):
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, _capsule_name(capsule)))


_DPOTRF = _bind(cython_lapack, "dpotrf", _CHAR, _INT, _PTR, _INT, _INT)
_DTRSM = _bind(cython_blas, "dtrsm", *[_CHAR] * 4, _INT, _INT, _DOUBLE, _PTR, _INT, _PTR, _INT)


def _solve_spd(A, B, shift, what, message="{what}: left-hand side is not positive definite"
               " (cond ~ {cond}); increase mu"):
    """Solve (A + shift I) X = B for symmetric positive definite A + shift I.

    The one n x n working copy is A + 0.0 (turning -0.0 into 0.0) in
    Fortran order, shift added to its diagonal; LAPACK dpotrf overwrites
    it with the upper Cholesky factor U that dposv would compute. Then
    X' = B' U^-1 U^-T by two right-side BLAS dtrsm calls on a C-order
    copy of B, whose buffer is X' in Fortran order; with n right-hand
    sides OpenBLAS runs them faster than dposv's left-side ones (1.7x at
    n = 100). The calls release the GIL, so W and H steps on a thread pool
    overlap. dpotrf does not look for NaN or inf, so it never sees a
    non-finite A + shift I: X is then all NaN. A non-finite B gives a
    non-finite X too; callers check X. When A + shift I is not positive
    definite, LinearSolveError(message) is raised with {what} and {cond},
    its condition number, filled in.
    """
    A, X = np.asarray(A, dtype=float), np.array(B, dtype=float, order="C")  # X: overwritten
    if X.ndim != 2 or A.shape != (len(X), len(X)):  # dpotrf reads n x n, dtrsm n x nrhs
        raise ValueError(f"{what}: cannot solve a {A.shape} system for {X.shape}")
    factor = np.array(A, order="F")  # copy, then add in place: np.add into an F-order
    factor += 0.0  # buffer is 2-3x slower
    factor.reshape(-1, order="F")[:: len(X) + 1] += shift  # a view: the diagonal
    if not (math.isfinite(factor.min()) and math.isfinite(factor.max())):  # NaN makes both NaN
        return np.full_like(X, np.nan)
    n, info = ctypes.c_int(X.shape[0]), ctypes.c_int()
    _DPOTRF(b"U", n, factor.ctypes.data, n, info)
    if info.value > 0:
        cond = float(np.linalg.cond(A + shift * np.eye(len(X))))
        raise LinearSolveError(message.format(what=what, cond=f"{cond:.3e}"), cond=cond)
    if info.value < 0:
        raise LinearSolveError(f"{what}: dpotrf rejected its argument {-info.value}")
    nrhs, ldb = ctypes.c_int(X.shape[1]), ctypes.c_int(max(1, X.shape[1]))  # BLAS: ldb >= 1
    for trans in (b"N", b"T"):  # X' U = B', then X' U' = B' U^-1
        _DTRSM(b"R", b"U", trans, b"N", nrhs, n, ctypes.c_double(1.0), factor.ctypes.data, n,
               X.ctypes.data, ldb)
    return X


def update_j(K, Z, Y1, mu, inverse):
    """J = (K + mu I)^-1 (K + mu Z - Y1), with ``inverse`` = (K + mu I)^-1."""
    return inverse @ (K + mu * Z - Y1)


def update_w(K, H, Z, Y2, mu, alpha):
    """W = (2 alpha K H H'K' + mu I)^-1 (2 alpha K H K' + mu Z - Y2)."""
    KH = K @ H
    G = 2.0 * alpha * KH
    return _solve_spd(G @ KH.T, G @ K.T + mu * Z - Y2, mu, "W update")


def update_h(K, W, Z, Y3, mu, alpha):
    """H = (2 alpha K'W W'K + mu I)^-1 (2 alpha K'W K + mu Z - Y3)."""
    KtW = K.T @ W
    G = 2.0 * alpha * KtW
    return _solve_spd(G @ KtW.T, G @ K + mu * Z - Y3, mu, "H update")


def update_z(J, W, H, Y1, Y2, Y3, mu, beta, regularizer):
    """Averaged proximal step with the diagonal zeroed afterwards."""
    D = (J + W + H + (Y1 + Y2 + Y3) / mu) / 3.0
    tau = beta / (3.0 * mu)
    if regularizer == "low_rank":
        Z = prox_nuclear(D, tau)
    else:
        Z = prox_l1(D, tau)
    np.fill_diagonal(Z, 0.0)
    return Z


def smooth_objective(K, Z, alpha):
    """The differentiable part: 1/2 Tr(K - 2KZ + Z'KZ) + alpha ||K - Z'KZ||_F^2."""
    KZ = K @ Z
    ZKZ = Z.T @ KZ
    R = K - ZKZ
    return (
        0.5 * np.trace(K)
        - np.trace(KZ)
        + 0.5 * np.trace(ZKZ)
        + alpha * np.linalg.norm(R, "fro") ** 2
    )


def smooth_gradient(K, Z, alpha):
    """Gradient of smooth_objective with respect to Z.

    For R = K - Z'KZ the fourth-order term contributes
    -2 alpha (K Z R' + K'Z R); the quadratic part contributes
    (K + K')/2 Z - K'. Written for general K, collapsing to
    KZ - K - 4 alpha K Z R when K is symmetric.
    """
    R = K - Z.T @ K @ Z
    g = 0.5 * (K + K.T) @ Z - K.T
    g -= 2.0 * alpha * (K @ Z @ R.T + K.T @ Z @ R)
    return g


def evaluate_objective(K, Z, alpha, beta, regularizer):
    """Full objective value including the regularization term."""
    if K.shape != Z.shape or K.shape[0] != K.shape[1]:
        raise ValueError(f"shape mismatch: K {K.shape}, Z {Z.shape}")
    if regularizer == "low_rank":
        rho = np.linalg.svd(Z, compute_uv=False).sum()
    elif regularizer == "sparse":
        rho = np.abs(Z).sum()
    else:
        raise ValueError(f"regularizer must be one of {REGULARIZERS}")
    return smooth_objective(K, Z, alpha) + beta * rho


def _check_finite(M, name, iteration):
    if not np.all(np.isfinite(M)):
        raise DivergenceError(
            f"{name} became non-finite at iteration {iteration}",
            iteration=iteration,
        )


def solve(K, config: SolverConfig):
    """Run ADMM on the symmetric n x n kernel K (normalized or not) to
    convergence or the iteration cap; return the Solution.

    P = (K + mu I)^-1 is formed once, by one _solve_spd call. Each J
    step is one product with P, and Z and H start at the least-squares
    representation P K = I - mu P with the diagonal zeroed. Multipliers
    start at zero, and J and W come from their first updates.
    Convergence is declared when the relative change of Z drops below tol.
    The objective is evaluated once, at the returned Z.
    """
    config.validate()
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if K.ndim != 2 or K.shape[1] != n:
        raise ValueError(f"kernel must be square, got {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel contains non-finite values")
    if np.abs(K - K.T).max() > 1e-8 * max(1.0, np.abs(K).max()):
        raise ValueError("kernel must be symmetric")

    mu, alpha, beta = config.mu, config.alpha, config.beta
    # an overflow ends in a DivergenceError naming the step; numpy's warning would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        P = _solve_spd(  # (K + mu I)^-1
            K, np.eye(n), mu, "K + mu I",
            "K + mu I is not positive definite; mu must exceed the most "
            "negative kernel eigenvalue (cond ~ {cond})",
        )
        Z = -mu * P  # off the diagonal, (K + mu I)^-1 K = I - mu P is -mu P
        np.fill_diagonal(Z, 0.0)
        H = Z
        Y = [np.zeros((n, n)) for _ in range(3)]  # the multipliers Y1, Y2, Y3

        residuals = []
        z_norm = np.linalg.norm(Z, "fro")
        for it in range(1, config.max_iter + 1):
            J = update_j(K, Z, Y[0], mu, P)
            _check_finite(J, "J", it)
            W = update_w(K, H, Z, Y[1], mu, alpha)
            _check_finite(W, "W", it)
            H = update_h(K, W, Z, Y[2], mu, alpha)
            _check_finite(H, "H", it)

            Z_prev = Z
            Z = update_z(J, W, H, *Y, mu, beta, config.regularizer)
            _check_finite(Z, "Z", it)

            # each split difference R feeds its multiplier and its residual norm;
            # one R at a time, dropped after, so the loop holds no extra n x n array
            res = []
            for i, X in enumerate((J, W, H)):
                R = X - Z
                Y[i] = Y[i] + mu * R
                res.append(float(np.linalg.norm(R, "fro")))
            del R
            residuals.append(tuple(res))

            # ||Z||_F is carried into the next iteration as its ||Z_prev||_F
            z_prev_norm, z_norm = z_norm, np.linalg.norm(Z, "fro")
            rel = np.linalg.norm(Z - Z_prev, "fro") / max(z_prev_norm, 1e-12)
            converged = bool(rel < config.tol)
            if converged:
                break
        # config.validate() guarantees max_iter >= 1, so the loop ran at least once
        objective = float(evaluate_objective(K, Z, alpha, beta, config.regularizer))
    _check_finite(objective, "objective", it)

    return Solution(
        Z=Z,
        converged=converged,
        iterations=it,
        rel_change=float(rel),
        residuals=residuals,
        objective=objective,
    )


def diagnostics_dict(solution: Solution):
    """JSON-ready diagnostics: {converged, iterations, final_rel_change,
    residuals, objective}; Z is left out."""
    return {
        "converged": solution.converged,
        "iterations": solution.iterations,
        "final_rel_change": solution.rel_change,
        "residuals": [list(r) for r in solution.residuals],
        "objective": solution.objective,
    }
