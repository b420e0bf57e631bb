"""Sparse symmetric positive definite solves.

Thin wrappers around SuperLU and conjugate gradients (via scipy.sparse)
that add the contracts the solver relies on: loud failure on indefinite
matrices with the offending pivot, and deterministic results.
"""

import contextlib
import ctypes
import functools
import time

import numpy as np
import numpy.linalg._umath_linalg
import scipy.linalg._fblas
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the most free dofs of a direct solve; `driver` refuses larger ones before any table
DIRECT_SIZE_LIMIT = 200_000

# relative residual at which conjugate gradients stops; the forward error
# is about cond(A) * CG_TOL, and the Jacobi-scaled level-2 plate system has
# cond(A) ~ 3.7e6, against the 1e-8 agreement with the direct path that
# acceptance criterion 7 asks for
CG_TOL = 1e-14


# (get, set) thread-count functions of numpy's OpenBLAS (64-bit integers),
# scipy's OpenBLAS and a system OpenBLAS
_OPENBLAS_THREAD_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls():
    """(get, set) ctypes functions of each OpenBLAS that numpy and scipy have loaded.

    The symbols are looked up through the extension modules that call BLAS,
    whose handles also search the libraries they link; a library reached
    from both modules is listed once.
    """
    controls = {}
    for module in (numpy.linalg._umath_linalg, scipy.linalg._fblas):
        try:
            lib = ctypes.CDLL(module.__file__)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_NAMES:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.setdefault(ctypes.cast(set_, ctypes.c_void_p).value, (get, set_))
                break
    return tuple(controls.values())


@contextlib.contextmanager
def one_blas_thread():
    """Run the with-block with every OpenBLAS of numpy and scipy on one thread.

    The per-element BLAS calls of a solve are small (a 60 x 60 `dpotrf`, a
    `dpotrs` with 42 right-hand sides), and splitting them over threads
    costs more than it saves; the results are the same bits.  The count is
    process-wide while the block runs.  On exit, also by an exception or
    from a nested block, each library gets back the count it had.  Yields
    the number of libraries pinned, 0 where no OpenBLAS control was found.
    """
    controls = _blas_thread_controls()
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield len(controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


class SolveError(Exception):
    """A global solve that failed; the message says why."""


class NotPositiveDefiniteError(SolveError):
    def __init__(self, pivot):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


class IterativeSolveError(SolveError):
    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"conjugate gradients failed to converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


def _scaled(A, s):
    """diag(s) A diag(s) of a CSC matrix A, with sorted indices and no stored zeros.

    Each entry is (s_i a_ij) s_j, as the sparse product diags(s) @ A @
    diags(s) forms it, and the entries that come out zero are dropped, as
    that product drops them.  The result shares A's index arrays unless an
    entry is dropped; A itself is left as it is.
    """
    if not A.has_sorted_indices:
        A = A.sorted_indices()
    data = s[A.indices]
    data *= A.data
    data *= np.repeat(s, np.diff(A.indptr))
    scaled = sp.csc_matrix((data, A.indices, A.indptr), shape=A.shape)
    if not data.all():
        scaled.indices, scaled.indptr = A.indices.copy(), A.indptr.copy()
        scaled.eliminate_zeros()
    return scaled


def _check_factor(lu, stats):
    """Record the entries of SuperLU's factors L and U; raise on a non-positive pivot."""
    # lu.U builds (and caches) both factors as CSC copies
    stats["factor_nnz"] = lu.L.nnz + lu.U.nnz
    bad = np.flatnonzero(lu.U.diagonal() <= 0.0)
    if bad.size:
        raise NotPositiveDefiniteError(int(bad[0]))


@contextlib.contextmanager
def spd_solver(A, method="direct", stats=None):
    """A solver of A x = b for symmetric positive definite A, yielded as `solve(b) -> x`.

    `A` is the full matrix as a scipy sparse matrix (as `driver.assemble`
    returns it).  The direct path factors with SuperLU in symmetric mode and
    diagonal pivoting, so non-positive pivots are detected and reported;
    a factor that is exactly singular raises SolveError.
    It drops its own references to A once the scaled matrix exists, and the factor's pivots
    are checked on exit from the with-block: once the caller has dropped
    what the solve no longer needs, SuperLU's L and U are exported as CSC
    copies for the check.  NotPositiveDefiniteError is raised there also
    when the with-block raised an Exception, and takes precedence over it.
    The cg path runs Jacobi-preconditioned conjugate gradients to relative
    residual CG_TOL = 1e-14 in at most max(200 n, 10,000) iterations and
    fails loudly when it does not converge.  Its result agrees with the
    direct one to about cond(A) * CG_TOL relative, with cond(A) the
    condition number after Jacobi scaling.  A given dict `stats` receives
    "cg_iterations", the number of CG iterations run (0 on the direct
    path), and "factor_s", "factor_nnz" and "factor_stored", the seconds of
    the `splu` call, the entries of its factors L and U (set on exit), and
    the entries SuperLU stores for them, the padding of its relaxed
    supernodes included (all 0 on the cg path).
    """
    stats = {} if stats is None else stats
    stats.update(cg_iterations=0, factor_s=0.0, factor_nnz=0, factor_stored=0)
    full = sp.csc_matrix(A)
    del A
    n = full.shape[0]
    d = full.diagonal()
    if np.any(d <= 0.0):
        raise NotPositiveDefiniteError(int(np.argmin(d)))
    if method == "direct":
        # symmetric Jacobi equilibration: the diagonal blocks of the normal
        # equations span many orders of magnitude in h and t, the scaled
        # system is the same one in exact arithmetic
        s = 1.0 / np.sqrt(d)
        scaled = _scaled(full, s)
        del full
        start = time.perf_counter()
        try:
            lu = spla.splu(scaled, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as err:  # SuperLU's zero pivot
            if str(err) != "Factor is exactly singular":
                raise
            raise SolveError("the direct factor is exactly singular") from None
        stats["factor_s"] = time.perf_counter() - start
        stats["factor_stored"] = lu.nnz
        del scaled
        try:
            yield lambda b: s * lu.solve(s * np.asarray(b, dtype=float))
        except Exception:
            # a non-positive pivot explains whatever failed after the solve
            _check_factor(lu, stats)
            raise
        _check_factor(lu, stats)
        return
    if method == "cg":
        def jacobi(v):
            # scipy's cg applies the preconditioner once per iteration, as
            # often as it calls `callback`; counting here leaves `callback`
            # to wrappers of spla.cg that pass their own (perfbench's tracer)
            stats["cg_iterations"] += 1
            return v / d

        # with its dtype given, LinearOperator makes no probing matvec call
        precond = spla.LinearOperator(full.shape, matvec=jacobi, dtype=float)
        maxiter = max(200 * n, 10_000)

        def cg_solve(b):
            b = np.asarray(b, dtype=float)
            x, info = spla.cg(full, b, rtol=CG_TOL, atol=0.0, maxiter=maxiter, M=precond)
            if info != 0:
                res = np.linalg.norm(full @ x - b) / max(np.linalg.norm(b), 1e-300)
                raise IterativeSolveError(info if info > 0 else maxiter, res)
            return x

        yield cg_solve
        return
    raise ValueError(f"unknown method {method!r}")
