import contextlib
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from oracles import assembled_triplets, diags_scaled, jittered_mesh, symmetric_from_coo
from plate_dpg import driver, dpg, linalg, parts
from plate_dpg.dpg import ProblemConfig
from plate_dpg.linalg import (
    IterativeSolveError,
    NotPositiveDefiniteError,
    SolveError,
    one_blas_thread,
    spd_solver,
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
    with spd_solver(sparse(np.eye(3))) as solve:
        assert np.allclose(solve(b), b)


def test_solve_diagonal():
    with spd_solver(sparse(np.diag([2.0, 4.0]))) as solve:
        x = solve(np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_matches_dense_oracle():
    D = random_spd(50, seed=2)
    b = np.random.default_rng(3).standard_normal(50)
    with spd_solver(sparse(D)) as solve:
        x = solve(b)
    x_ref = cho_solve(cho_factor(D, lower=True), b)
    assert np.abs(x - x_ref).max() < 1e-9 * np.abs(x_ref).max()


def test_direct_and_cg_agree():
    D = random_spd(40, seed=4, cond=1e6)
    b = np.random.default_rng(5).standard_normal(40)
    A = sparse(D)
    with spd_solver(A, "direct") as solve:
        xd = solve(b)
    with spd_solver(A, "cg") as solve:
        xc = solve(b)
    assert np.abs(xd - xc).max() < 1e-8 * np.abs(xd).max()


def test_solver_handles_badly_scaled_diagonal():
    # diagonal scaling as in the assembled normal equations at extreme
    # thickness: moderate spans must keep full forward accuracy
    rng = np.random.default_rng(6)
    s = 10.0 ** rng.uniform(-3, 3, 30)
    D = random_spd(30, seed=7) * np.outer(s, s)
    x_ref = rng.standard_normal(30)
    b = D @ x_ref
    with spd_solver(sparse(D)) as solve:
        x = solve(b)
    assert np.abs(x - x_ref).max() < 1e-7 * np.abs(x_ref).max()


def test_solver_residual_at_extreme_scaling():
    # rows spanning 12 orders of magnitude: forward error is limited by
    # the data itself, but the residual must stay at roundoff
    rng = np.random.default_rng(9)
    s = 10.0 ** rng.uniform(-6, 6, 30)
    D = random_spd(30, seed=10) * np.outer(s, s)
    b = D @ rng.standard_normal(30)
    with spd_solver(sparse(D)) as solve:
        x = solve(b)
    res = np.abs(D @ x - b).max()
    assert res < 1e-10 * np.abs(b).max()


def test_solve_rejects_nonpositive_diagonal():
    A = sparse(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError), spd_solver(A) as solve:
        solve(np.ones(2))


def test_solve_rejects_indefinite():
    A = sparse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError), spd_solver(A) as solve:
        solve(np.ones(2))


@pytest.mark.parametrize("matrix", [[[1.0, 1.0], [1.0, 1.0]], [[2, 2, 0], [2, 2, 0], [0, 0, 1]]])
def test_an_exactly_singular_factor_is_a_solve_error(matrix):
    # splu's RuntimeError once left the solver, past every SolveError handler
    A = sp.csc_matrix(matrix)
    with pytest.raises(SolveError, match="^the direct factor is exactly singular$"), \
            spd_solver(A) as solve:
        solve(np.ones(len(matrix)))


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
    with pytest.raises(IterativeSolveError) as info, spd_solver(A, "cg") as solve:
        solve(b)
    # scipy's cg reports its iteration count on nonconvergence
    assert info.value.iterations == 2
    assert info.value.residual > linalg.CG_TOL
    assert [(c["rtol"], c["maxiter"]) for c in calls] == [(linalg.CG_TOL, 10_000)]


def test_unknown_method():
    # spd_solver takes the method as dpg.ProblemConfig checked it, and the
    # config is the one place an unknown name is refused
    with pytest.raises(ValueError, match="^unknown solver 'qr'$"):
        ProblemConfig(solver="qr")
    assert [ProblemConfig(solver=m).solver for m in ("direct", "cg")] == ["direct", "cg"]


def test_cg_iterations_are_the_callback_count():
    D = random_spd(40, seed=4, cond=1e6)
    b = np.random.default_rng(5).standard_normal(40)
    A = sparse(D)
    stats = {}
    with spd_solver(A, "cg", stats) as solve:
        x = solve(b)
    seen = []
    d = A.diagonal()
    M = spla.LinearOperator(A.shape, matvec=lambda v: v / d)
    x_ref, info = spla.cg(A, b, rtol=linalg.CG_TOL, atol=0.0, maxiter=10_000, M=M,
                          callback=seen.append)
    assert info == 0
    assert np.array_equal(x, x_ref)
    assert stats["cg_iterations"] == len(seen) > 0
    assert stats["factor_s"] == stats["factor_nnz"] == stats["factor_stored"] == 0
    with spd_solver(A, "direct", stats) as solve:
        solve(b)
    assert stats["cg_iterations"] == 0


def test_direct_solve_reports_its_factor():
    # the L and U factors of a dense n x n matrix hold n (n + 1) entries,
    # the unit diagonal of L included
    stats = {}
    with spd_solver(sparse(random_spd(8, seed=6)), "direct", stats) as solve:
        solve(np.ones(8))
    assert stats["factor_nnz"] == 8 * 9
    assert stats["factor_stored"] >= stats["factor_nnz"]
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

    @contextlib.contextmanager
    def failing_solver(*args, **kwargs):
        seen.append(blas_counts())
        raise SolveError("stubbed failure")
        yield

    monkeypatch.setattr(linalg, "spd_solver", failing_solver)
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


def same_bytes(got, expect):
    """Equal dtypes and bytes of the data, indices and indptr of two sparse matrices."""
    return all(getattr(got, part).dtype == getattr(expect, part).dtype
               and getattr(got, part).tobytes() == getattr(expect, part).tobytes()
               for part in ("data", "indices", "indptr"))


ASSEMBLY_MESHES = {
    "uniform level 2": lambda: mesh_at_level(2),
    "uniform level 3": lambda: mesh_at_level(3),
    "uniform level 4": lambda: mesh_at_level(4),
    "jittered level 3": lambda: jittered_mesh(3, seed=0),
}
ASSEMBLY_CONFIGS = [ProblemConfig(t=1e-2), ProblemConfig(t=0.0),
                    ProblemConfig(t=0.0, bc="clamped")]


@pytest.mark.parametrize("name", ASSEMBLY_MESHES)
def test_assembly_and_scaling_give_the_bytes_of_the_sparse_sums(name, monkeypatch):
    # A and diag(s) A diag(s) are formed in place; the oracles form them
    # with scipy's sparse sum and a sorted copy, from the int64 triplets
    stacks = []
    stack_chunks = parts.stack_chunks

    def kept_stack_chunks(n, compute):
        stacks.append(stack_chunks(n, compute))
        return stacks[-1]

    monkeypatch.setattr(parts, "stack_chunks", kept_stack_chunks)
    mesh = ASSEMBLY_MESHES[name]()
    kernels = driver.MeshKernels(mesh, ASSEMBLY_CONFIGS[0])
    for config in ASSEMBLY_CONFIGS:
        dof, _, A, _ = driver.assemble(mesh, config, kernels)
        (_, _, _, _, A_loc, _, _), _ = stacks.pop()
        rows, cols, vals = assembled_triplets(dof.free_index[dof.element_dofs], A_loc)
        expect = symmetric_from_coo(dof.n_free, rows, cols, vals)
        assert same_bytes(A, expect)
        # spd_solver takes A as it is: CSC, sorted without duplicates, no
        # stored zeros (the flag is computed afresh from the arrays)
        assert A.format == "csc" and A.data.all()
        assert sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape).has_canonical_format
        if name == "uniform level 4" and config.t > 0.0:
            # some duplicate sums come out exactly zero, and A drops them
            lower = sp.coo_matrix((vals, (rows, cols)), shape=A.shape).tocsr()
            assert (lower.data == 0.0).any()
            assert A.nnz < 2 * lower.nnz - dof.n_free
        s = 1.0 / np.sqrt(A.diagonal())
        assert same_bytes(linalg._scaled(A, s), diags_scaled(expect, s))


def test_assembly_drops_a_duplicate_sum_of_exactly_zero():
    # two elements on the dofs (0, 1, 2), whose (1, 0) entries sum to 0.0;
    # the first one's last column is constrained
    A_loc = np.array([[[2.0, 0.5, 9.0], [0.5, 3.0, 9.0], [9.0, 9.0, 9.0]],
                      [[1.0, -0.5, 0.25], [-0.5, 1.0, 0.0], [0.25, 0.0, 4.0]]])
    fidx = np.array([[0, 1, -1], [0, 1, 2]], dtype=np.int32)
    lower = driver._lower_csr(3, fidx, fidx >= 0, A_loc)
    A = driver._symmetric_from_lower(lower)
    expect = symmetric_from_coo(3, *assembled_triplets(fidx.astype(np.int64), A_loc))
    assert same_bytes(A, expect)
    assert A.format == "csc"
    assert np.array_equal(A.toarray(), [[3.0, 0.0, 0.25], [0.0, 4.0, 0.0], [0.25, 0.0, 4.0]])
    assert A.nnz == 5


def test_scaling_shares_the_index_arrays_unless_an_entry_underflows():
    A = symmetric_from_coo(3, np.array([0, 1, 1, 2, 2]), np.array([0, 0, 1, 1, 2]),
                           np.array([1e300, 2.0, 1.0, 1e-300, 1e300]))
    s = np.array([1e-150, 1.0, 1e-150])
    before = [getattr(A, part).copy() for part in ("data", "indices", "indptr")]
    # (1, 2): (1e-150 * 1e-300) * 1.0 underflows to zero and is dropped
    got, expect = linalg._scaled(A, s), diags_scaled(A, s)
    assert expect.nnz == A.nnz - 2
    assert same_bytes(got, expect)
    assert not np.shares_memory(got.indices, A.indices)
    for part, old in zip(("data", "indices", "indptr"), before):
        assert getattr(A, part).tobytes() == old.tobytes()
    s = np.array([1e-150, 1.0, 1e-10])
    got, expect = linalg._scaled(A, s), diags_scaled(A, s)
    assert got.nnz == A.nnz
    assert same_bytes(got, expect)
    assert np.shares_memory(got.indices, A.indices)
    assert np.shares_memory(got.indptr, A.indptr)


class ExportWatch:
    """A SuperLU factor that calls `on_export` when its L or U is read."""

    def __init__(self, lu, on_export):
        self._lu, self._on_export = lu, on_export
        self.nnz = lu.nnz

    def solve(self, b):
        return self._lu.solve(b)

    @property
    def L(self):
        self._on_export()
        return self._lu.L

    @property
    def U(self):
        self._on_export()
        return self._lu.U


def test_the_factor_is_exported_after_A_and_the_kept_stacks_are_freed(monkeypatch):
    refs, alive_at_export = [], []
    assemble, splu = driver.assemble, spla.splu

    def watched_assemble(*args, **kwargs):
        dof, kept, A, rhs = assemble(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in (A, A.data, A.indices, A.indptr, *kept))
        return dof, kept, A, rhs

    def watched_splu(*args, **kwargs):
        return ExportWatch(splu(*args, **kwargs),
                           lambda: alive_at_export.append([r() is not None for r in refs]))

    monkeypatch.setattr(driver, "assemble", watched_assemble)
    monkeypatch.setattr(spla, "splu", watched_splu)
    sol = driver.assemble_and_solve(mesh_at_level(2), ProblemConfig(t=1e-2))
    assert len(refs) == 8
    assert alive_at_export and not any(map(any, alive_at_export))
    assert sol.stats["factor_nnz"] >= 2 * sol.n_free


def indefinite():
    """A 2 x 2 matrix with a positive diagonal and the pivots 1 and -3."""
    return symmetric_from_coo(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                              np.array([1.0, 2.0, 1.0]))


def test_the_pivot_check_runs_on_exit():
    stats = {}
    with pytest.raises(NotPositiveDefiniteError, match=r"\(pivot 1\)"):
        with spd_solver(indefinite(), stats=stats) as solve:
            x = solve(np.ones(2))
            # the factor solves the system; its pivots are checked on exit
            assert np.allclose(indefinite() @ x, 1.0)
            assert stats["factor_nnz"] == 0 < stats["factor_stored"]
            # a failed assert above would end in the pivot error as well
            stats["body done"] = True
    assert stats["body done"]
    assert stats["factor_nnz"] == 2 * 3


def test_the_pivot_error_takes_precedence_over_an_error_in_the_with_block():
    with pytest.raises(NotPositiveDefiniteError) as info:
        with spd_solver(indefinite()) as solve:
            solve(np.ones(2))
            raise SolveError("backward error")
    assert str(info.value.__context__) == "backward error"
    # a positive definite matrix passes the error on unchanged
    with pytest.raises(SolveError, match="backward error"):
        with spd_solver(sparse(np.eye(2))):
            raise SolveError("backward error")


def test_an_interrupt_skips_the_pivot_check(monkeypatch):
    checks = []
    monkeypatch.setattr(linalg, "_check_factor", lambda lu, stats: checks.append(lu))
    with pytest.raises(KeyboardInterrupt):
        with spd_solver(indefinite()):
            raise KeyboardInterrupt
    assert checks == []
    with spd_solver(indefinite()):
        pass
    assert len(checks) == 1


def test_clamped_level_0_is_not_positive_definite():
    # its 9 null modes are a gauge of the trace representation
    with pytest.raises(NotPositiveDefiniteError, match=r"^matrix is not positive "
                       r"definite \(pivot 52\)$"):
        driver.assemble_and_solve(mesh_at_level(0), ProblemConfig(t=0.0, bc="clamped"))


@pytest.mark.parametrize("fails", ["residual check", "estimator"])
def test_an_indefinite_system_fails_as_one_after_a_later_error(fails, monkeypatch):
    mesh, config = mesh_at_level(1), ProblemConfig(t=1e-2)
    assemble = driver.assemble

    def indefinite_assemble(*args, **kwargs):
        dof, kept, A, rhs = assemble(*args, **kwargs)
        # an off-diagonal pair far larger than its diagonal, in place
        i, j = 0, A.indices[A.indptr[0] + 1]
        for col, row in ((i, j), (j, i)):
            start, stop = A.indptr[col], A.indptr[col + 1]
            A.data[start + np.searchsorted(A.indices[start:stop], row)] = \
                10.0 * np.sqrt(A.diagonal()[i] * A.diagonal()[j])
        return dof, kept, A, rhs

    monkeypatch.setattr(driver, "assemble", indefinite_assemble)
    if fails == "residual check":
        solver = linalg.spd_solver

        @contextlib.contextmanager
        def perturbed(A, *args, **kwargs):
            with solver(A, *args, **kwargs) as solve:
                yield lambda b: solve(b) * (1.0 + 1e-6)

        monkeypatch.setattr(linalg, "spd_solver", perturbed)
        later = linalg.SolveError
    else:
        def failing_estimator(*args):
            raise RuntimeError("estimator failed")

        monkeypatch.setattr(dpg, "local_residuals", failing_estimator)
        later = RuntimeError
    with pytest.raises(NotPositiveDefiniteError) as info:
        driver.assemble_and_solve(mesh, config)
    assert isinstance(info.value.__context__, later)
