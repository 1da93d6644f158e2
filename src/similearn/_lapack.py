"""Every BLAS/LAPACK call of the package, and its OpenBLAS thread budget."""

import contextlib
import ctypes
import math
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .errors import LinearSolveError


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
# jobz range uplo n a lda vl vu il iu abstol m w z ldz isuppz work lwork iwork liwork info
_DSYEVR = _bind(cython_lapack, "dsyevr", *[_CHAR] * 3, _INT, _PTR, _INT, *[_DOUBLE] * 2,
                *[_INT] * 2, _DOUBLE, _INT, *[_PTR] * 2, _INT, *[_PTR] * 2, _INT, _PTR, *[_INT] * 2)


def solve_spd(A, B, shift, what, message="{what}: left-hand side is not positive definite"
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

    With few right-hand sides the right-side dtrsm calls are the slower
    ones: at n = 1000 with 80 columns (label propagation, 20 repeats of 4
    classes) the solve is 5-9% slower than with dpotrs's left-side ones.
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


def lowest_eigenvectors(A, c):
    """n x c eigenvectors of the c smallest eigenvalues of a symmetric A, by dsyevr.

    A: finite, n x n, Fortran order, read in its lower triangle and overwritten;
    1 <= c <= n. Raises numpy's LinAlgError (a ValueError) when dsyevr fails.
    """
    n = A.shape[0]
    V, w, isuppz = np.empty((n, c), order="F"), np.empty(n), np.empty(2 * n, dtype=np.intc)
    size, zero, m, info = ctypes.c_int(n), ctypes.c_double(0.0), ctypes.c_int(), ctypes.c_int()
    head = (b"V", b"I", b"L", size, A.ctypes.data, size, zero, zero, ctypes.c_int(1),
            ctypes.c_int(c), zero, m, w.ctypes.data, V.ctypes.data, size, isuppz.ctypes.data)
    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    _DSYEVR(*head, work.ctypes.data, ctypes.c_int(-1), iwork.ctypes.data, ctypes.c_int(-1), info)
    work, iwork = np.empty(int(work[0])), np.empty(iwork[0], dtype=np.intc)  # the optimal sizes
    _DSYEVR(*head, work.ctypes.data, ctypes.c_int(len(work)), iwork.ctypes.data,
            ctypes.c_int(len(iwork)), info)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"spectral_embed: dsyevr failed with info = {info.value}")
    return V


# thread-count symbols of scipy-openblas wheels (numpy's ILP64 build, scipy's
# LP64 one), then the plain ones of older wheels and system OpenBLAS
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def openblas_libraries():
    """(path, get_num_threads, set_num_threads) of each OpenBLAS library in the process."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in f})
    except OSError:  # no procfs: no library to budget
        return []
    found = []
    for path in (p for p in paths if "openblas" in Path(p).name.lower() and os.path.isfile(p)):
        lib = ctypes.CDLL(path)
        for name in _THREAD_SYMBOLS:
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((path, get, set_))
                break
    return found


@contextlib.contextmanager
def single_threaded_blas():
    """Hold each OpenBLAS library to one thread, restoring its count on exit.

    Yields their [{library, before, during}] thread counts, [] where none is found.
    """
    libs = [(path, get, set_, get()) for path, get, set_ in openblas_libraries()]
    try:
        for _, _, set_, _ in libs:
            set_(1)
        yield [dict(library=path, before=before, during=get()) for path, get, _, before in libs]
    finally:
        for _, _, set_, before in libs:
            set_(before)
