"""Global assembly, boundary conditions, solve, and the convergence study.

Unknowns are ordered fields-first: per element u, M11, M12, M22 (and
theta1, theta2 for t > 0), then 12 trace dofs per mesh vertex - the
(value, d/dx, d/dy) triples of the four generating C1 fields u-hat,
M11-hat, M12-hat, M22-hat.  Boundary conditions are imposed by hard
elimination of vertex dofs, which zeroes the corresponding edge traces
exactly: the value trace of a C1 field along a boundary edge is the
cubic fixed by the endpoint values and tangential derivatives.

Element tables (`MeshKernels`), element systems and condensation run
on chunks of `dpg.CHUNK` elements, split between this process and one
forked child (`parts.run_chunks`), the estimator once on the whole-mesh
stacks they fill; each stacked operation gives every element the bits of
the per-element formulas.  Assembly accumulates the element normal-equation
contributions in element order: a deterministic reduction for a fixed mesh.
"""

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import dpg, linalg, manufactured, mesh as meshmod, parts, quadrature

N_TRACE_PER_VERTEX = 12
TRACE_U, TRACE_M11, TRACE_M12, TRACE_M22 = 0, 1, 2, 3
VAL, DX, DY = 0, 1, 2
# largest backward error of the global solve accepted as a solution; the
# direct and CG paths reach at most 6.4e-18 at levels 2 and 3
RESIDUAL_MAX = 1e-12
# volume rule of `kirchhoff_limit_check`'s closed-form identity
LIMIT_QUAD_DEGREE = 16


class DofMap:
    """Global index layout and the constrained-dof mask for one mesh."""

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.n_field = dpg.n_components(config.t)
        self.field_total = self.n_field * mesh.num_triangles
        self.n_total = self.field_total + N_TRACE_PER_VERTEX * mesh.num_vertices
        if config.bc == "clamped":
            constrained = apply_bc_clamped(mesh)
        else:
            constrained = apply_bc_simply_supported(mesh)
        self.constrained = np.zeros(self.n_total, dtype=bool)
        self.constrained[self.trace_dof(*np.array(constrained).T)] = True
        self.free_index = np.full(self.n_total, -1, dtype=np.int64)
        free = np.flatnonzero(~self.constrained)
        self.free_index[free] = np.arange(free.size)
        self.n_free = free.size
        self.free = free

        # global dofs of each element's columns: fields, then 36 trace dofs
        # ordered field-major, then by vertex, then (value, d/dx, d/dy)
        nt = mesh.num_triangles
        fields = self.n_field * np.arange(nt)[:, None] + np.arange(self.n_field)
        traces = self.trace_dof(mesh.triangles[:, None, :, None],
                                np.arange(4)[:, None, None], np.arange(3))
        self.element_dofs = np.hstack([fields, traces.reshape(nt, dpg.N_TRACE_COLS)])

    def trace_dof(self, vertex, tfield, comp):
        """Global index of trace dof `comp` of generating field `tfield` at `vertex`.

        Takes integers or integer arrays, broadcast against each other.
        """
        return (self.field_total + N_TRACE_PER_VERTEX * vertex
                + 3 * tfield + comp)


def apply_bc_simply_supported(mesh):
    """Constrained (vertex, field, comp) triples for the soft support.

    On each boundary edge the deflection trace u-hat and the moment
    components entering M n must vanish: on horizontal edges (normal
    +-e_y) these are M12 and M22, on vertical edges M11 and M12.  Zeroing
    the value and tangential derivative at both endpoints kills the cubic
    value trace on the whole edge; corners accumulate both directions.
    """
    out = set()
    for e in mesh.boundary_edges:
        side = mesh.boundary_side[int(e)]
        if side is None:
            raise ValueError("boundary conditions require a unit-square mesh")
        horizontal = side in (meshmod.BOTTOM, meshmod.TOP)
        tang = DX if horizontal else DY
        fields = (TRACE_U, TRACE_M12, TRACE_M22) if horizontal \
            else (TRACE_U, TRACE_M11, TRACE_M12)
        for v in mesh.edges[e]:
            for f in fields:
                out.add((int(v), f, VAL))
                out.add((int(v), f, tang))
    return sorted(out)


def apply_bc_clamped(mesh):
    """Clamped limit: deflection value and full gradient pinned on the boundary.

    The reduced element's normal derivative is affine along each edge, so
    vertex gradients pin it exactly; the moment traces stay unconstrained.
    """
    out = set()
    for v in mesh.boundary_vertices:
        for c in (VAL, DX, DY):
            out.add((int(v), TRACE_U, c))
    return sorted(out)


class MeshKernels(dpg.ElementKernel):
    """The element tables of one mesh, with the load values `f_values` (nt, nq).

    The load is taken once per mesh, at the volume quadrature points; a
    slice of elements slices it with the tables.  The tables are the same
    for every `config`: its t, bc and solver enter only the element systems.
    """

    NAMES = dpg.ElementKernel.NAMES + ("f_values",)

    def __init__(self, mesh, config):
        self.vertices = mesh.vertices.copy()
        self.triangles = mesh.triangles.copy()
        super().__init__(mesh.vertices[mesh.triangles])
        ex = manufactured.ExactSolution(0.0)
        self.f_values = ex.f(self.vpts[..., 0], self.vpts[..., 1])

    def check(self, mesh):
        """Raise ValueError unless these kernels were built for `mesh`."""
        if not (np.array_equal(self.vertices, mesh.vertices)
                and np.array_equal(self.triangles, mesh.triangles)):
            raise ValueError("cached kernels were built for another mesh")


@dataclass
class Solution:
    u: np.ndarray                 # (nt,) elementwise deflection
    M: np.ndarray                 # (nt, 3) elementwise moments (11, 12, 22)
    theta: np.ndarray | None      # (nt, 2) elementwise rotations, None at t = 0
    trace: np.ndarray             # (12 nv,) trace dofs, zeros where constrained
    eta: float                    # global residual estimator
    eta_elements: np.ndarray      # (nt,) local estimator contributions
    n_free: int
    residual_inf: float           # free-system residual, consistency guard
    # what the solve did: seconds per phase (systems_s: element systems and
    # condensation, assembly_s, solve_s, estimator_s), parts (the number of
    # processes the element systems ran in, 1 or 2), n_free, nnz of the
    # assembled matrix, residual_inf, gram_pivot_min (the smallest pivot
    # diag(L)**2 of the equilibrated Gram factors), eta_max and eta_mean,
    # cg_iterations (0 on the direct path) and blas_pinned (the OpenBLAS
    # libraries the solve ran on one thread)
    stats: dict = field(default_factory=dict)


@contextlib.contextmanager
def _timed(stats, phase):
    """Add the seconds spent in the with-block to stats[phase]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stats[phase] = stats.get(phase, 0.0) + time.perf_counter() - start


def element_system(kernels, elements, config):
    """Factored local systems of the elements in the slice `elements`, built as one stack.

    Returns (L, dinv, B, l): the equilibrated Gram factors of
    `dpg.gram_factors`, the trial-to-test matrices (ne, n_test, m) and the
    load vectors (ne, n_test).  G itself is not kept.
    """
    k = kernels[elements]
    t = config.t
    G = dpg.gram(k, t)
    B = np.concatenate([dpg.b_field(k, t), dpg.b_trace(k, t)], axis=2)
    l = dpg.load(k, k.f_values, t)
    L, dinv = dpg.gram_factors(G, B, l)
    return L, dinv, B, l


def assemble(mesh, config, kernels, stats=None):
    """Element systems and the free-dof normal equations of one mesh.

    Returns (dof map, the whole-mesh `element_system` stacks, A as a full
    CSC matrix, rhs).  The chunks of element systems and their
    condensation run through `parts.run_chunks`: where the process has
    two cores, a forked child fills the second half of the stacks, which
    live in shared memory, with the bits of one process.  The COO triplets and
    the rhs sums run element by element, in element order.  A given dict
    `stats` receives systems_s, parts, assembly_s, gram_pivot_min and nnz
    (see `Solution.stats`).
    """
    stats = {} if stats is None else stats
    dof = DofMap(mesh, config)
    nt = mesh.num_triangles
    n = dpg.n_test(config.t)
    m = dof.element_dofs.shape[1]
    A_loc = parts.empty((nt, m, m))
    b_loc = parts.empty((nt, m))
    # each L[i] is Fortran-ordered, as dpotrf leaves its factor
    L = parts.empty((nt, n, n)).transpose(0, 2, 1)
    dinv, B, l = (parts.empty(shape) for shape in ((nt, n), (nt, n, m), (nt, n)))

    def fill(starts):
        for lo in starts:
            chunk = slice(lo, lo + dpg.CHUNK)
            L[chunk], dinv[chunk], B[chunk], l[chunk] = element_system(kernels, chunk, config)
            A_loc[chunk], b_loc[chunk] = dpg.condense(L[chunk], dinv[chunk], B[chunk], l[chunk])

    with _timed(stats, "systems_s"):
        stats["parts"] = parts.run_chunks(range(0, nt, dpg.CHUNK), fill)
    stats["gram_pivot_min"] = float(np.diagonal(L, axis1=1, axis2=2).min()) ** 2

    with _timed(stats, "assembly_s"):
        fidx = dof.free_index[dof.element_dofs]
        keep = fidx >= 0
        # only the lower triangle enters A, so only its triplets are built
        pairs = keep[:, None, :] & (fidx[:, :, None] >= fidx[:, None, :])
        rows = np.broadcast_to(fidx[:, :, None], pairs.shape)[pairs]
        cols = np.broadcast_to(fidx[:, None, :], pairs.shape)[pairs]
        vals = A_loc[pairs]
        rhs = np.zeros(dof.n_free)
        np.add.at(rhs, fidx[keep], b_loc[keep])
        # the local matrices are freed before the sparse matrix is built
        del A_loc, b_loc, pairs
        A = linalg.symmetric_from_coo(dof.n_free, rows, cols, vals)
    stats["nnz"] = A.nnz
    return dof, (L, dinv, B, l), A, rhs


def assemble_and_solve(mesh, config, kernels=None):
    """Minimum-residual solve of the manufactured problem on one mesh.

    Everything after `MeshKernels` runs on one OpenBLAS thread
    (`linalg.one_blas_thread`).  Raises linalg.SolveError when the solve
    fails or its backward error `residual_inf` exceeds RESIDUAL_MAX.
    """
    if kernels is None:
        kernels = MeshKernels(mesh, config)
    else:
        kernels.check(mesh)
    with linalg.one_blas_thread() as blas_pinned:
        stats = {"blas_pinned": blas_pinned}
        dof, systems, A, rhs = assemble(mesh, config, kernels, stats)
        nt = mesh.num_triangles

        with _timed(stats, "solve_s"):
            x_free = linalg.solve_spd(A, rhs, method=config.solver, stats=stats)
            res = np.abs(A @ x_free - rhs).max()
            scale = np.abs(rhs).max() + np.abs(A).max() * max(np.abs(x_free).max(), 1.0)
            residual_inf = res / scale
        if not residual_inf <= RESIDUAL_MAX:
            raise linalg.SolveError(f"backward error residual_inf = {residual_inf:.3e} "
                                    f"exceeds {RESIDUAL_MAX:g}")

        x = np.zeros(dof.n_total)
        x[dof.free] = x_free

        nf = dof.n_field
        fields = x[: dof.field_total].reshape(nt, nf)
        x_loc = x[dof.element_dofs]
        with _timed(stats, "estimator_s"):
            eta = dpg.local_residuals(*systems, x_loc)
            # a scalar power calls libm's pow, whose bits can differ from eta * eta
            eta_sq = np.array([e ** 2 for e in eta])
        eta_elements = np.sqrt(eta_sq)
        stats.update(n_free=dof.n_free, residual_inf=float(residual_inf),
                     eta_max=float(eta_elements.max()), eta_mean=float(eta_elements.mean()))
        return Solution(
            u=fields[:, 0].copy(),
            M=fields[:, 1:4].copy(),
            theta=fields[:, 4:6].copy() if nf == 6 else None,
            trace=x[dof.field_total :].copy(),
            eta=float(np.sqrt(eta_sq.sum())),
            eta_elements=eta_elements,
            n_free=dof.n_free,
            residual_inf=float(residual_inf),
            stats=stats,
        )


@dataclass
class StudyRecord:
    level: int
    t: float
    ndof: int
    err_u: float
    err_M: float
    err_theta: float
    eta: float
    rate_u: float
    rate_M: float
    rate_theta: float
    # the solve's Solution.stats; not part of the CSV
    stats: dict = field(default_factory=dict, repr=False, compare=False)


CSV_HEADER = "level,t,ndof,err_u,err_M,err_theta,eta,rate_u,rate_M,rate_theta"


def _rate(prev, cur):
    if prev is None or not (prev > 0.0) or not (cur > 0.0):
        return float("nan")
    return float(np.log2(prev / cur))


def run_study(t_list, levels, config, mesh_chain=None, kernels_chain=None,
              progress=None):
    """Solve on levels 0..levels-1 for each thickness; returns StudyRecords.

    Clamped studies start at level 1: the level-0 clamped matrix is
    singular.  Its 9 null modes live in the M-hat trace dofs of the
    4-triangle mesh and pair to zero with every test function, a gauge of
    the trace representation rather than a solution kernel; level 1 has
    none.

    Meshes and element tables are shared across thicknesses.  `progress`
    is an optional callable taking a status string.  A failed solve raises
    linalg.SolveError naming its level and t.
    """
    from dataclasses import replace

    if mesh_chain is None:
        mesh_chain = [meshmod.mesh_at_level(0)]
    while len(mesh_chain) < levels:
        mesh_chain.append(meshmod.refine_uniform(mesh_chain[-1]))
    if kernels_chain is None:
        kernels_chain = [None] * levels
    records = []
    for t in t_list:
        cfg = replace(config, t=t)
        prev = None
        for level in range(1 if config.bc == "clamped" else 0, levels):
            if kernels_chain[level] is None:
                kernels_chain[level] = MeshKernels(mesh_chain[level], cfg)
            start = time.perf_counter()
            try:
                sol = assemble_and_solve(mesh_chain[level], cfg, kernels_chain[level])
            except linalg.SolveError as err:
                raise linalg.SolveError(f"level {level}, t = {t:g}: {err}") from err
            err_u, err_M, err_th = manufactured.l2_errors(
                mesh_chain[level], sol.u, sol.M, sol.theta, t
            )
            rec = StudyRecord(
                level=level, t=t, ndof=sol.n_free,
                err_u=float(err_u), err_M=float(err_M), err_theta=float(err_th),
                eta=sol.eta,
                rate_u=_rate(prev and prev.err_u, err_u),
                rate_M=_rate(prev and prev.err_M, err_M),
                rate_theta=_rate(prev and prev.err_theta, err_th),
                stats=sol.stats,
            )
            records.append(rec)
            prev = rec
            if progress is not None:
                progress(
                    f"t={t:g} level={level} ndof={rec.ndof} "
                    f"err_u={rec.err_u:.3e} err_M={rec.err_M:.3e} eta={rec.eta:.3e} "
                    f"[{time.perf_counter() - start:.2f}s]"
                )
    return records


def write_csv(records, stream):
    stream.write(CSV_HEADER + "\n")
    for r in records:
        cells = [str(r.level)] + [
            f"{v:.16g}" for v in (r.t, r.ndof, r.err_u, r.err_M, r.err_theta,
                                  r.eta, r.rate_u, r.rate_M, r.rate_theta)
        ]
        stream.write(",".join(cells) + "\n")


def _p0_l2_diff(mesh, a, b, weights=None):
    areas = meshmod.signed_areas(mesh)
    d = np.asarray(a) - np.asarray(b)
    if d.ndim == 1:
        return float(np.sqrt(np.sum(areas * d * d)))
    w = np.asarray(weights, dtype=float)
    return float(np.sqrt(np.sum(areas[:, None] * w[None, :] * d * d)))


def kirchhoff_limit_check(level=3, t_sequence=(1e-1, 1e-2, 1e-3)):
    """Distance of the finite-thickness solution to the bending limit t = 0.

    Solves on one mesh for each t in `t_sequence` and for t = 0, and reports
    the elementwise-L2 distances of the deflection and moment fields, which
    must shrink monotonically as t decreases.  Also evaluates the identity
    ||u(t) - u(0)||_L2 = t^2 ||lap phi||_L2 of the closed-form solution, in
    extended precision because the difference is far below the field scale.
    """
    config = dpg.ProblemConfig(t=0.0)
    msh = meshmod.mesh_at_level(level)
    kernels = MeshKernels(msh, config)
    sol0 = assemble_and_solve(msh, config, kernels)
    rows = []
    for t in t_sequence:
        sol = assemble_and_solve(msh, dpg.ProblemConfig(t=t), kernels)
        du = _p0_l2_diff(msh, sol.u, sol0.u)
        dM = _p0_l2_diff(msh, sol.M, sol0.M, weights=(1.0, 2.0, 1.0))
        rows.append((float(t), du, dM))

    pts, w = quadrature.map_to_triangles(quadrature.triangle_rule(LIMIT_QUAD_DEGREE),
                                         msh.vertices[msh.triangles])
    x = pts[..., 0].astype(np.longdouble)
    y = pts[..., 1].astype(np.longdouble)
    wl = w.astype(np.longdouble)
    ex_0 = manufactured.ExactSolution(0.0)
    u_0 = ex_0.u(x, y)
    lap = ex_0.lap_phi(x, y)

    def element_sum(values):
        # one extended-precision dot product per element, rounded to double
        # and added in element order
        return np.cumsum(np.vecdot(wl, values).astype(float))[-1]

    den = element_sum(lap * lap)
    ident_err = 0.0
    for t in t_sequence:
        diff = manufactured.ExactSolution(t).u(x, y) - u_0
        num = element_sum(diff * diff)
        lhs = np.sqrt(num)
        rhs = t * t * np.sqrt(den)
        ident_err = max(ident_err, abs(lhs - rhs) / rhs)

    du_seq = [r[1] for r in rows]
    dM_seq = [r[2] for r in rows]
    return {
        "level": level,
        "rows": rows,
        "monotone_u": all(a > b for a, b in zip(du_seq, du_seq[1:])),
        "monotone_M": all(a > b for a, b in zip(dM_seq, dM_seq[1:])),
        "identity_rel_err": float(ident_err),
    }
