import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from plate_dpg import driver, linalg
from plate_dpg.dpg import ProblemConfig
from plate_dpg.linalg import (
    IterativeSolveError,
    NotPositiveDefiniteError,
    SolveError,
    one_blas_thread,
    solve_spd,
    symmetric_from_coo,
)
from plate_dpg.mesh import mesh_at_level


def random_spd(n, seed, cond=None):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond is None:
        w = rng.uniform(1.0, 10.0, n)
    else:
        w = np.logspace(0.0, np.log10(cond), n)
    return (Q * w) @ Q.T


def sparse(D):
    """D as the solver assembles it: the triplets of its lower triangle."""
    rows, cols = np.indices(D.shape).reshape(2, -1)
    lower = rows >= cols
    return symmetric_from_coo(D.shape[0], rows[lower], cols[lower], D.ravel()[lower])


def test_sparse_from_coo_sums_duplicates():
    rows = np.array([0, 1, 1, 2, 2, 0])
    cols = np.array([0, 0, 1, 2, 2, 0])
    vals = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 1.0])
    A = symmetric_from_coo(3, rows, cols, vals)
    assert A.format == "csc"
    expected = np.array([[2.0, 2.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 5.0]])
    assert np.abs(A.toarray() - expected).max() == 0.0
    assert np.allclose(A.diagonal(), [2.0, 3.0, 5.0])


def test_sparse_from_coo_mirrors_the_lower_triangle():
    D = random_spd(6, seed=1)
    A = sparse(D)
    assert np.abs(A.toarray() - D).max() < 1e-14
    assert (A != A.T).nnz == 0


def test_sparse_from_coo_rejects_upper_triplets():
    # both halves of the pair (1, 0), (0, 1): the upper one is an error
    rows, cols = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="lower-triangle triplets"):
        symmetric_from_coo(2, rows, cols, np.array([2.0, 1.0, 1.0, 2.0]))


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(solve_spd(sparse(np.eye(3)), b), b)


def test_solve_diagonal():
    x = solve_spd(sparse(np.diag([2.0, 4.0])), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_matches_dense_oracle():
    D = random_spd(50, seed=2)
    b = np.random.default_rng(3).standard_normal(50)
    x = solve_spd(sparse(D), b)
    x_ref = cho_solve(cho_factor(D, lower=True), b)
    assert np.abs(x - x_ref).max() < 1e-9 * np.abs(x_ref).max()


def test_direct_and_cg_agree():
    D = random_spd(40, seed=4, cond=1e6)
    b = np.random.default_rng(5).standard_normal(40)
    A = sparse(D)
    xd = solve_spd(A, b, method="direct")
    xc = solve_spd(A, b, method="cg")
    assert np.abs(xd - xc).max() < 1e-8 * np.abs(xd).max()


def test_solver_handles_badly_scaled_diagonal():
    # diagonal scaling as in the assembled normal equations at extreme
    # thickness: moderate spans must keep full forward accuracy
    rng = np.random.default_rng(6)
    s = 10.0 ** rng.uniform(-3, 3, 30)
    D = random_spd(30, seed=7) * np.outer(s, s)
    x_ref = rng.standard_normal(30)
    b = D @ x_ref
    x = solve_spd(sparse(D), b)
    assert np.abs(x - x_ref).max() < 1e-7 * np.abs(x_ref).max()


def test_solver_residual_at_extreme_scaling():
    # rows spanning 12 orders of magnitude: forward error is limited by
    # the data itself, but the residual must stay at roundoff
    rng = np.random.default_rng(9)
    s = 10.0 ** rng.uniform(-6, 6, 30)
    D = random_spd(30, seed=10) * np.outer(s, s)
    b = D @ rng.standard_normal(30)
    x = solve_spd(sparse(D), b)
    res = np.abs(D @ x - b).max()
    assert res < 1e-10 * np.abs(b).max()


def test_solve_rejects_nonpositive_diagonal():
    A = sparse(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(A, np.ones(2))


def test_solve_rejects_indefinite():
    A = sparse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(A, np.ones(2))


def test_cg_reports_nonconvergence(monkeypatch):
    D = random_spd(40, seed=8, cond=1e10)
    A = sparse(D)
    b = np.ones(40)
    calls = []
    cg = spla.cg

    def two_iterations(*args, **kwargs):
        calls.append(kwargs)
        return cg(*args, **{**kwargs, "maxiter": 2})

    monkeypatch.setattr(linalg.spla, "cg", two_iterations)
    with pytest.raises(IterativeSolveError) as info:
        solve_spd(A, b, method="cg")
    # scipy's cg reports its iteration count on nonconvergence
    assert info.value.iterations == 2
    assert info.value.residual > linalg.CG_TOL
    assert [(c["rtol"], c["maxiter"]) for c in calls] == [(linalg.CG_TOL, 10_000)]


def test_unknown_method():
    A = sparse(np.eye(2))
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(2), method="qr")


def test_cg_iterations_are_the_callback_count():
    D = random_spd(40, seed=4, cond=1e6)
    b = np.random.default_rng(5).standard_normal(40)
    A = sparse(D)
    stats = {}
    x = solve_spd(A, b, method="cg", stats=stats)
    seen = []
    d = A.diagonal()
    M = spla.LinearOperator(A.shape, matvec=lambda v: v / d)
    x_ref, info = spla.cg(A, b, rtol=linalg.CG_TOL, atol=0.0, maxiter=10_000, M=M,
                          callback=seen.append)
    assert info == 0
    assert np.array_equal(x, x_ref)
    assert stats["cg_iterations"] == len(seen) > 0
    assert stats["factor_s"] == stats["factor_nnz"] == 0
    solve_spd(A, b, stats=stats)
    assert stats["cg_iterations"] == 0


def test_direct_solve_reports_its_factor():
    # the L and U factors of a dense n x n matrix hold n (n + 1) entries,
    # the unit diagonal of L included
    stats = {}
    solve_spd(sparse(random_spd(8, seed=6)), np.ones(8), stats=stats)
    assert stats["factor_nnz"] == 8 * 9
    assert stats["factor_s"] > 0.0


def blas_counts():
    return [get() for get, _ in linalg._blas_thread_controls()]


def test_one_blas_thread_restores_the_counts(blas_at_two):
    with one_blas_thread() as pinned:
        assert blas_counts() == [1] * blas_at_two
    assert pinned == blas_at_two
    assert blas_counts() == [2] * blas_at_two


def test_nested_pins_restore_the_outer_counts(blas_at_two):
    with one_blas_thread():
        with one_blas_thread() as inner:
            assert blas_counts() == [1] * blas_at_two
        assert inner == blas_at_two
        assert blas_counts() == [1] * blas_at_two
    assert blas_counts() == [2] * blas_at_two


def test_a_failed_solve_restores_the_counts(blas_at_two, monkeypatch):
    seen = []

    def failing_solve(*args, **kwargs):
        seen.append(blas_counts())
        raise SolveError("stubbed failure")

    monkeypatch.setattr(linalg, "solve_spd", failing_solve)
    with pytest.raises(SolveError, match="stubbed failure"):
        driver.assemble_and_solve(mesh_at_level(0), ProblemConfig(t=1e-2))
    # the solve ran pinned, and the exception undid the pin
    assert seen == [[1] * blas_at_two]
    assert blas_counts() == [2] * blas_at_two


def test_solve_without_blas_controls(monkeypatch):
    mesh, cfg = mesh_at_level(1), ProblemConfig(t=1e-2)
    pinned = driver.assemble_and_solve(mesh, cfg)
    monkeypatch.setattr(linalg, "_blas_thread_controls", lambda: ())
    sol = driver.assemble_and_solve(mesh, cfg)
    assert sol.stats["blas_pinned"] == 0
    assert np.array_equal(sol.trace, pinned.trace)
    assert sol.residual_inf <= driver.RESIDUAL_MAX
