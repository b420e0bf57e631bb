"""Stacked element tables and systems, assembly and L2 errors against the per-element loop.

The reference in `element_loop.py` builds every element's HCT basis and
tables, its system, the COO triplets, the rhs sums, the estimator and the
L2 errors one element at a time with zero-padded features, condenses
through scipy's `cho_factor`/`cho_solve`, and keeps the strided trace
accumulation and the sparse-product Jacobi scaling.  The stacked code
must give the same bits: `np.array_equal` and equal bytes, so signed
zeros count too.
"""

import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from element_loop import (
    LoopHct,
    LoopKernel,
    LoopSystem,
    cho_equilibrated_cholesky,
    cho_normal_contribution,
    cho_residual,
    diags_scaled,
    loop_kernels,
    loop_l2_errors,
    loop_solve,
    strided_b_trace,
)
from oracles import jittered_mesh
from plate_dpg import dpg, driver, linalg, manufactured, parts
from plate_dpg.dpg import ElementKernel, ProblemConfig
from plate_dpg.hct import build_hct_element
from plate_dpg.mesh import Mesh, mesh_at_level

T_VALUES = (1e-2, 1e-8, 0.0)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def grid_mesh(n):
    """The unit square as an n x n grid of squares, two triangles each."""
    s = np.linspace(0.0, 1.0, n + 1)
    vertices = np.array([(x, y) for y in s for x in s])
    triangles = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 2, a + n + 1
            triangles += [(a, b, c), (a, c, d)]
    return Mesh(vertices, np.array(triangles, dtype=np.int64))


def random_triangles():
    """12 random CCW triangles of sizes 1e-4 to 10, away from the origin."""
    rng = np.random.default_rng(21)
    out = []
    for scale in (1e-4, 1e-2, 1.0, 10.0):
        for _ in range(3):
            coords = scale * rng.uniform(-1.0, 1.0, (3, 2)) + rng.uniform(-5, 5, 2)
            if np.linalg.det(coords[1:] - coords[0]) < 0:
                coords = coords[[0, 2, 1]]
            out.append(coords)
    return np.array(out)


# the grid's 18 elements make one full chunk of 16 and a partial one
MESHES = {
    "uniform level 2": lambda: mesh_at_level(2),
    "jittered level 2": lambda: jittered_mesh(2, seed=5),
    "18-element grid": lambda: grid_mesh(3),
    "uniform level 0": lambda: mesh_at_level(0),
}


TRIANGLE_SETS = [*MESHES, "12 random triangles"]


def triangles_of(name):
    """The (ne, 3, 2) vertices of a mesh of MESHES or "jittered level 3", or the random triangles."""
    if name == "12 random triangles":
        return random_triangles()
    mesh = jittered_mesh(3, seed=5) if name == "jittered level 3" else MESHES[name]()
    return mesh.vertices[mesh.triangles]


def assert_tables_match_loop(coords, tables):
    for ti, xy in enumerate(coords):
        ref = LoopKernel(xy)
        for name in ElementKernel.NAMES:
            assert_same_bits(getattr(tables, name)[ti], ref.table(name))


@pytest.mark.parametrize("name", TRIANGLE_SETS)
def test_element_tables_match_loop(name):
    coords = triangles_of(name)
    assert_tables_match_loop(coords, ElementKernel(coords))


# the reference takes each null space from scipy's `null_space`, the
# package from the bare `gesdd` that it calls
@pytest.mark.parametrize("name", [*TRIANGLE_SETS, "jittered level 3"])
def test_hct_bases_match_loop(name):
    coords = triangles_of(name)
    element = build_hct_element(coords)
    assert element.coeffs.flags.c_contiguous
    for ti, xy in enumerate(coords):
        ref = LoopHct(xy)
        assert_same_bits(element.coeffs[ti], ref.coeffs)
        assert_same_bits(element.sub_coords[ti], ref.sub_coords)
    # a single triangle is a stack of one
    assert_same_bits(build_hct_element(coords[-1]).coeffs, element.coeffs[-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hct_bases_of_a_non_finite_triangle_raise_what_null_space_raised(bad):
    coords = random_triangles()
    coords[7, 2, 0] = bad
    # the arithmetic on the way warns about the non-finite values
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as old:
            LoopHct(coords[7])
        with pytest.raises(ValueError) as new:
            build_hct_element(coords)
    assert str(new.value) == str(old.value) == "array must not contain infs or NaNs"


def test_small_chunks_build_the_same_tables(monkeypatch):
    # chunks of 5 over 64 elements end in a partial chunk of 4
    monkeypatch.setattr(parts, "CHUNK", 5)
    coords = triangles_of("jittered level 2")
    assert_tables_match_loop(coords, ElementKernel(coords))


def test_mesh_kernels_are_element_tables_sliced_by_chunk():
    mesh = jittered_mesh(2, seed=9)
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    assert isinstance(kernels, ElementKernel)
    assert "f_values" in kernels.NAMES
    for lo in range(0, mesh.num_triangles, parts.CHUNK):
        chunk = slice(lo, lo + parts.CHUNK)
        k = kernels[chunk]
        assert k.V.shape[-1] == k.tv.shape[-1] == dpg.N_SCALAR == 10
        for name in kernels.NAMES:
            assert_same_bits(getattr(k, name), getattr(kernels, name)[chunk])


@pytest.mark.parametrize("t", T_VALUES)
def test_batched_builders_match_loop_on_random_triangles(t):
    coords = random_triangles()
    tables = ElementKernel(coords)
    f_values = np.random.default_rng(3).standard_normal(tables.vw.shape)
    G = dpg.gram(tables, t)
    B_field = dpg.b_field(tables, t)
    B_trace = dpg.b_trace(tables, t)
    l = dpg.load(tables, f_values, t)
    for ti, xy in enumerate(coords):
        ref = LoopKernel(xy)
        assert_same_bits(G[ti], ref.gram(t))
        assert_same_bits(B_field[ti], ref.b_field(t))
        assert_same_bits(B_trace[ti], ref.b_trace(t))
        assert_same_bits(l[ti], ref.load(f_values[ti], t))


@pytest.mark.parametrize("name", MESHES)
def test_element_systems_match_loop(name):
    mesh = MESHES[name]()
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    refs, f_values = loop_kernels(mesh)
    for got, expect in zip(kernels.f_values, f_values):
        assert_same_bits(got, expect)
    for t in T_VALUES:
        cfg = ProblemConfig(t=t)
        pivot_min = np.inf
        for lo in range(0, mesh.num_triangles, parts.CHUNK):
            elements = slice(lo, lo + parts.CHUNK)
            Lp, dinv, B, l, _, _, pivots = driver.element_system(kernels, elements, cfg)
            G = dpg.gram(kernels[elements], t)
            for i, (ref, f) in enumerate(zip(refs[elements], f_values[elements])):
                expect = ref.system(t, f)
                assert_same_bits(G[i], expect.G)
                assert_same_bits(B[i], expect.B)
                assert_same_bits(l[i], expect.l)
                (c, _), d = cho_equilibrated_cholesky(expect.G)
                # the packed lower triangle of the factor, in np.tril_indices order
                assert_same_bits(Lp[i], c[np.tril_indices(len(c))])
                assert_same_bits(dinv[i], d)
                assert_same_bits(pivots[i], np.diag(c).min())
                pivot_min = min(pivot_min, np.diag(c).min())
        # the smallest pivot diag(L)**2 of every cho_factor of the mesh
        stats = {}
        driver.assemble(mesh, cfg, kernels, stats)
        assert_same_bits(stats["gram_pivot_min"], float(pivot_min) ** 2)


@pytest.mark.parametrize("name", MESHES)
def test_assembly_estimator_and_errors_match_loop(name):
    mesh = MESHES[name]()
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    refs, f_values = loop_kernels(mesh)
    for t in T_VALUES:
        cfg = ProblemConfig(t=t)
        dof, _, A, rhs = driver.assemble(mesh, cfg, kernels)
        A_ref, rhs_ref, x_ref, eta_ref = loop_solve(mesh, cfg, refs, f_values, dof)
        for part in ("data", "indices", "indptr"):
            assert_same_bits(getattr(A, part), getattr(A_ref, part))
        assert_same_bits(rhs, rhs_ref)

        sol = driver.assemble_and_solve(mesh, cfg, kernels)
        assert_same_bits(sol.eta_elements, eta_ref)
        assert_same_bits(sol.trace, x_ref[dof.field_total:])
        fields = x_ref[: dof.field_total].reshape(mesh.num_triangles, dof.n_field)
        theta = fields[:, 4:6] if dof.n_field == 6 else None
        errs = manufactured.l2_errors(mesh, sol.u, sol.M, sol.theta, t)
        for got, expect in zip(errs, loop_l2_errors(mesh, fields[:, 0], fields[:, 1:4],
                                                     theta, t)):
            assert_same_bits(got, expect)


def test_small_chunks_assemble_the_same_bits(monkeypatch):
    # chunks of 5 over 64 elements end in a partial chunk of 4
    mesh = jittered_mesh(2, seed=9)
    cfg = ProblemConfig(t=1e-8)
    kernels = driver.MeshKernels(mesh, cfg)
    _, _, A, rhs = driver.assemble(mesh, cfg, kernels)
    monkeypatch.setattr(parts, "CHUNK", 5)
    _, _, A5, rhs5 = driver.assemble(mesh, cfg, kernels)
    for part in ("data", "indices", "indptr"):
        assert_same_bits(getattr(A5, part), getattr(A, part))
    assert_same_bits(rhs5, rhs)


@pytest.mark.parametrize("t", (1e-2, 0.0))
@pytest.mark.parametrize("name", ["uniform level 2", "18-element grid", "jittered level 2"])
def test_one_blas_thread_gives_the_bits_of_two(name, t, blas_at_two, monkeypatch):
    # a chunk loop in two parts runs on one BLAS thread, so the loops of
    # this test run in one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    mesh = MESHES[name]()
    cfg = ProblemConfig(t=t)
    kernels = driver.MeshKernels(mesh, cfg)

    def run():
        _, (L, _, B, _), A, rhs = driver.assemble(mesh, cfg, kernels)
        with linalg.spd_solver(A) as solve:
            return L, B, A, rhs, solve(rhs)

    with linalg.one_blas_thread():
        L, B, A, rhs, x = run()
    assert [get() for get, _ in linalg._blas_thread_controls()] == [2] * blas_at_two
    L2, B2, A2, rhs2, x2 = run()
    for part in ("data", "indices", "indptr"):
        assert_same_bits(getattr(A2, part), getattr(A, part))
    assert_same_bits(rhs2, rhs)
    assert_same_bits(x2, x)
    assert_same_bits(L2, L)
    assert_same_bits(B2, B)


def test_assembled_matrix_is_exactly_symmetric():
    mesh = jittered_mesh(2, seed=5)
    cfg = ProblemConfig(t=1e-8)
    _, _, A, _ = driver.assemble(mesh, cfg, driver.MeshKernels(mesh, cfg))
    assert A.format == "csc"
    assert (A != A.T).nnz == 0


def test_kept_systems_drop_the_gram_matrices():
    mesh = mesh_at_level(2)
    cfg = ProblemConfig(t=1e-2)
    kernels = driver.MeshKernels(mesh, cfg)
    _, systems, _, _ = driver.assemble(mesh, cfg, kernels)
    G = dpg.gram(kernels, cfg.t)
    Lp, dinv, B, l = systems
    ne, n = dinv.shape
    # one stack per quantity, over the whole mesh; each factor keeps only
    # its lower triangle, packed
    assert Lp.shape == (ne, n * (n + 1) // 2)
    assert dinv.shape == l.shape == B.shape[:2] == G.shape[:2]
    assert len(G) == mesh.num_triangles
    # no kept array is G or a view of it: the packed stack holds the
    # Cholesky factors of the equilibrated G
    for a in systems:
        owner = a if a.base is None else a.base
        assert not (owner.shape == G.shape and np.array_equal(owner, G))
    factor = np.zeros(G.shape)
    factor[(slice(None),) + np.tril_indices(n)] = Lp
    G_eq = G * dinv[:, :, None] * dinv[:, None, :]
    assert np.allclose(factor @ factor.transpose(0, 2, 1), G_eq, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_parts", (1, 2))
@pytest.mark.parametrize("t", (1e-2, 0.0))
def test_estimator_on_packed_factors_matches_full_factor_loop(t, n_parts, monkeypatch):
    # 18 elements: one full chunk and a partial one
    if n_parts == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif parts.part_count() < 2:
        pytest.skip("the process has one core")
    mesh = MESHES["18-element grid"]()
    cfg = ProblemConfig(t=t)
    kernels = driver.MeshKernels(mesh, cfg)
    stats = {}
    _, (Lp, dinv, B, l), _, _ = driver.assemble(mesh, cfg, kernels, stats)
    assert stats["parts"] == n_parts
    G = dpg.gram(kernels, t)
    x = np.random.default_rng(3).standard_normal(B.shape[::2])
    eta = dpg.local_residuals(Lp, dinv, B, l, x)
    for i, sysm in enumerate(map(LoopSystem, G, B, l)):
        assert_same_bits(eta[i], cho_residual(sysm, x[i]))


@pytest.mark.parametrize("name", MESHES)
def test_b_trace_matches_strided_accumulation(name):
    tables = ElementKernel(triangles_of(name))
    for t in T_VALUES:
        assert_same_bits(dpg.b_trace(tables, t), strided_b_trace(tables, t))


@pytest.mark.parametrize("name", MESHES)
def test_condensation_and_estimator_match_cho_wrappers(name):
    mesh = MESHES[name]()
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    rng = np.random.default_rng(17)
    for t in T_VALUES:
        cfg = ProblemConfig(t=t)
        for lo in range(0, mesh.num_triangles, parts.CHUNK):
            elements = slice(lo, lo + parts.CHUNK)
            Lp, dinv, B, l, A, b, _ = driver.element_system(kernels, elements, cfg)
            G = dpg.gram(kernels[elements], t)
            x = rng.standard_normal(B.shape[::2])
            eta = dpg.local_residuals(Lp, dinv, B, l, x)
            for i, sysm in enumerate(map(LoopSystem, G, B, l)):
                A_ref, b_ref = cho_normal_contribution(sysm)
                assert_same_bits(A[i], A_ref)
                assert_same_bits(b[i], b_ref)
                assert_same_bits(eta[i], cho_residual(sysm, x[i]))


@pytest.mark.parametrize("name", MESHES)
def test_jacobi_scaling_matches_diags_product(name):
    mesh = MESHES[name]()
    kernels = driver.MeshKernels(mesh, ProblemConfig())
    for t in T_VALUES:
        _, _, A, _ = driver.assemble(mesh, ProblemConfig(t=t), kernels)
        s = 1.0 / np.sqrt(A.diagonal())
        got, expect = linalg._scaled(A, s), diags_scaled(A, s)
        for part in ("data", "indices", "indptr"):
            assert_same_bits(getattr(got, part), getattr(expect, part))


def test_jacobi_scaling_drops_zeros_as_the_product_does():
    # stored zeros at (0, 1) and (1, 0), and entries at (0, 2) and (2, 0)
    # whose scaled value underflows to zero
    data = [1e300, 0.0, 1e-30, 0.0, 2.0, 0.5, 1e-30, 0.5, 1e300]
    A = sp.csc_matrix((data, [0, 1, 2] * 3, [0, 3, 6, 9]), shape=(3, 3))
    before = [getattr(A, part).copy() for part in ("data", "indices", "indptr")]
    s = 1.0 / np.sqrt(A.diagonal())
    got, expect = linalg._scaled(A, s), diags_scaled(A, s)
    assert expect.nnz == A.nnz - 4
    for part in ("data", "indices", "indptr"):
        assert_same_bits(getattr(got, part), getattr(expect, part))
    # A itself is left as it was
    for part, old in zip(("data", "indices", "indptr"), before):
        assert_same_bits(getattr(A, part), old)


def one_element_system(t=1e-2):
    tables = ElementKernel(random_triangles()[5:6])
    G = dpg.gram(tables, t)[0]
    B = np.concatenate([dpg.b_field(tables, t), dpg.b_trace(tables, t)], axis=2)[0]
    l = dpg.load(tables, np.ones(tables.vw.shape), t)[0]
    return G, B, l


def spoil(case, G, B):
    if case == "negative diagonal":
        G[3, 3] = -1.0
    elif case == "NaN in B":
        B[2, 5] = np.nan
    else:
        # the equilibrated leading 2x2 block becomes [[1, 10], [10, 1]]
        G[0, 1] = G[1, 0] = 10.0 * np.sqrt(G[0, 0] * G[1, 1])


@pytest.mark.parametrize("case, error", [
    ("negative diagonal", np.linalg.LinAlgError),
    ("NaN in B", ValueError),
    ("indefinite G", np.linalg.LinAlgError),
])
def test_bad_systems_raise_what_the_cho_wrappers_raised(case, error):
    G, B, l = one_element_system()
    spoil(case, G, B)
    with pytest.raises(error) as old:
        cho_normal_contribution(LoopSystem(G, B, l))
    # the package raises without a numpy warning on the way
    with pytest.raises(error) as new, warnings.catch_warnings():
        warnings.simplefilter("error")
        dpg.condense(G[None], B[None], l[None])
    # the checks name the element by its place in the stack
    assert str(new.value) == "element 0: " + str(old.value)
    # a stack goes through the same checks
    with pytest.raises(error, match=re.escape(str(old.value))):
        dpg.condense(np.stack([G, G]), np.stack([B, B]), np.stack([l, l]))


def test_non_finite_trial_dofs_raise_what_the_cho_wrappers_raised():
    G, B, l = one_element_system()
    x = np.zeros(B.shape[1])
    x[4] = np.nan
    with pytest.raises(ValueError) as old:
        cho_residual(LoopSystem(G, B, l), x)
    Lp, dinv, *_ = dpg.condense(G[None], B[None], l[None])
    with pytest.raises(ValueError) as new:
        dpg.local_residuals(Lp, dinv, B[None], l[None], x[None])
    assert str(new.value) == "element 0: " + str(old.value)
