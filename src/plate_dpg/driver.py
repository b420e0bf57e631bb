"""Global assembly, boundary conditions, solve, and the convergence study.

Unknowns are ordered fields-first: per element u, M11, M12, M22 (and
theta1, theta2 for t > 0), then 12 trace dofs per mesh vertex - the
(value, d/dx, d/dy) triples of the four generating C1 fields u-hat,
M11-hat, M12-hat, M22-hat.  Boundary conditions are imposed by hard
elimination of vertex dofs, which zeroes the corresponding edge traces
exactly: the value trace of a C1 field along a boundary edge is the
cubic fixed by the endpoint values and tangential derivatives.

Element tables (`MeshKernels`), element systems and condensation run
on chunks of `parts.CHUNK` elements, split between this process and one
forked child (`parts.stack_chunks`), the estimator once on the whole-mesh
stacks they fill; each stacked operation gives every element the bits of
the per-element formulas.  Assembly accumulates the element normal-equation
contributions in element order: a deterministic reduction for a fixed mesh.
"""

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import dpg, linalg, manufactured, mesh as meshmod, parts, quadrature

TRACE_U, TRACE_M11, TRACE_M12, TRACE_M22 = 0, 1, 2, 3
VAL, DX, DY = 0, 1, 2
# largest backward error of the global solve accepted as a solution; the
# direct and CG paths reach at most 6.4e-18 at levels 2 and 3
RESIDUAL_MAX = 1e-12


class DofMap:
    """Global index layout and the constrained-dof mask for one mesh."""

    def __init__(self, mesh, config):
        mask = constrained_traces(mesh, config.bc)
        self.n_field = dpg.n_components(config.t)
        self.field_total = self.n_field * mesh.num_triangles
        self.n_total = self.field_total + mask.size
        # global ids of the trace dofs (vertex, field, comp), after the fields in C order
        self.traces = np.arange(self.field_total, self.n_total).reshape(mask.shape)
        self.constrained = np.zeros(self.n_total, dtype=bool)
        self.constrained[self.traces] = mask
        self.free_index = np.full(self.n_total, -1, dtype=np.int64)
        free = np.flatnonzero(~self.constrained)
        self.free_index[free] = np.arange(free.size)
        self.n_free = free.size
        self.free = free

        # global dofs of each element's columns: fields, then 36 trace dofs
        # ordered field-major, then by vertex, then (value, d/dx, d/dy)
        nt = mesh.num_triangles
        fields = self.n_field * np.arange(nt)[:, None] + np.arange(self.n_field)
        traces = self.traces[mesh.triangles].transpose(0, 2, 1, 3)
        self.element_dofs = np.hstack([fields, traces.reshape(nt, dpg.N_TRACE_COLS)])


def constrained_traces(mesh, bc):
    """The (nv, 4, 3) mask of the trace dofs (vertex, field, comp) that `bc` constrains.

    Clamped: the deflection value and full gradient at every boundary
    vertex.  The reduced element's normal derivative is affine along each
    edge, so vertex gradients pin it exactly; the moment traces stay free.

    Simply supported: on each boundary edge the deflection trace u-hat and
    the moment components entering M n must vanish: on horizontal edges
    (normal +-e_y) these are M12 and M22, on vertical edges M11 and M12.
    Zeroing the value and tangential derivative at both endpoints kills the
    cubic value trace on the whole edge; corners accumulate both directions.
    Both ends on y = 0 or both on y = 1 make an edge horizontal, both on
    x = 0 or both on x = 1 vertical; any other edge raises ValueError.
    """
    mask = np.zeros((mesh.num_vertices, 4, 3), dtype=bool)
    if bc == "clamped":
        mask[mesh.boundary_vertices, TRACE_U] = True
        return mask
    ends = mesh.edges[mesh.boundary_edges]
    p, q = mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]]
    # per edge and coordinate: both ends on the same side of the square
    on_side = (p == q) & np.isin(p, (0.0, 1.0))
    if not on_side.any(axis=1).all():
        raise ValueError("boundary conditions require a unit-square mesh")
    horizontal = on_side[:, 1]
    mask[np.ix_(ends[horizontal].ravel(), (TRACE_U, TRACE_M12, TRACE_M22), (VAL, DX))] = True
    mask[np.ix_(ends[~horizontal].ravel(), (TRACE_U, TRACE_M11, TRACE_M12), (VAL, DY))] = True
    return mask


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
    # processes the element systems ran in, 1 or 2), kept_mb (the MB of the
    # stacks kept from the element systems to the estimator: the packed
    # lower triangles of the Gram factors, dinv, B and l; 14.3 of them are
    # the factors at level 4, t > 0), n_free, nnz of the assembled matrix,
    # residual_inf, gram_pivot_min (the smallest pivot diag(L)**2 of the
    # equilibrated Gram factors), eta_max and eta_mean, cg_iterations (0 on
    # the direct path) and blas_pinned (the OpenBLAS libraries the solve
    # ran on one thread)
    stats: dict = field(default_factory=dict)


@contextlib.contextmanager
def _timed(stats, phase):
    """Add the seconds spent in the with-block to stats[phase]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stats[phase] = stats.get(phase, 0.0) + time.perf_counter() - start


@contextlib.contextmanager
def _at_level(level, t):
    """Prefix "level L, t = T: " to a SolveError or ValueError of the with-block.

    The exception keeps its type and its other attributes.
    """
    try:
        yield
    except (linalg.SolveError, ValueError) as err:
        err.args = (f"level {level}, t = {t:g}: {err}",)
        raise


def element_system(kernels, elements, config):
    """Condensed local systems of the elements in the slice `elements`, built as one stack.

    Returns (Lp, dinv, B, l, A, b, pivots): B (ne, n_test, m), l (ne,
    n_test), and `dpg.condense`'s packed Gram factors Lp, dinv, A, b and
    each factor's smallest diagonal entry.  G is not kept.  A t too large
    for float64 overflows G and B without a warning, and `dpg.condense`
    rejects them in one line.
    """
    k = kernels[elements]
    t = config.t
    with np.errstate(over="ignore", invalid="ignore"):
        G = dpg.gram(k, t)
        B = np.concatenate([dpg.b_field(k, t), dpg.b_trace(k, t)], axis=2)
    l = dpg.load(k, k.f_values, t)
    Lp, dinv, A, b, pivots = dpg.condense(G, B, l, first=elements.start or 0)
    return Lp, dinv, B, l, A, b, pivots


def _lower_csr(n, fidx, keep, A_loc):
    """The n x n CSR matrix of the lower-triangle entries of the element matrices `A_loc`.

    `fidx` holds each element column's free dof, `keep` where it is one.
    The triplets are built in element order, and scipy's COO-to-CSR
    conversion sums their duplicates; they are freed on return.
    """
    # only the lower triangle enters A, so only its triplets are built
    pairs = keep[:, None, :] & (fidx[:, :, None] >= fidx[:, None, :])
    rows = np.broadcast_to(fidx[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(fidx[:, None, :], pairs.shape)[pairs]
    vals = A_loc[pairs]
    del pairs
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _symmetric_from_lower(lower):
    """The full CSC matrix L + L^T - diag(L) of a lower-triangular CSR matrix L.

    The upper triangle is the mirror image of the lower one, so the result
    is exactly symmetric, and its CSC arrays are the CSR arrays of the sum.
    Each diagonal entry is (d + d) - d, and entries that come out zero are
    dropped, as the sparse sum `lower + lower.T - diags(d)` forms them.
    """
    d = lower.diagonal()
    full = lower + lower.T
    rows = np.repeat(np.arange(full.shape[0], dtype=full.indices.dtype), np.diff(full.indptr))
    diagonal = np.flatnonzero(full.indices == rows)
    del rows
    full.data[diagonal] -= d[full.indices[diagonal]]
    return sp.csc_matrix((full.data, full.indices, full.indptr), shape=full.shape)


def _check_direct_size(dof, config, level, hint=""):
    """On the direct path, ValueError, ended by `hint`, past linalg.DIRECT_SIZE_LIMIT free dofs."""
    if config.solver == "direct" and dof.n_free > linalg.DIRECT_SIZE_LIMIT:
        raise ValueError(f"level {level} has {dof.n_free} free dofs, more than the "
                         f"{linalg.DIRECT_SIZE_LIMIT} of the direct solver{hint}")


def assemble(mesh, config, kernels=None, stats=None):
    """Element systems and the free-dof normal equations of one mesh.

    Returns (dof map, the whole-mesh `element_system` stacks Lp, dinv, B
    and l, A as a full CSC matrix, rhs).  A direct solve past
    linalg.DIRECT_SIZE_LIMIT free dofs raises ValueError before any table;
    then `kernels` of another mesh raise it, and missing ones are built.
    The element systems run chunk by chunk in `parts.stack_chunks`, with
    the bits of one process.
    The COO triplets and the rhs sums run element by element, in element
    order.  A given dict `stats` receives systems_s, parts, kept_mb,
    assembly_s, gram_pivot_min and nnz (see `Solution.stats`).
    """
    stats = {} if stats is None else stats
    dof = DofMap(mesh, config)
    _check_direct_size(dof, config, mesh.level)
    if kernels is None:
        kernels = MeshKernels(mesh, config)
    else:
        kernels.check(mesh)

    with _timed(stats, "systems_s"):
        # `element_system` is looked up per chunk, where tests and the benchmark wrap it
        (*kept, A_loc, b_loc, pivots), stats["parts"] = parts.stack_chunks(
            mesh.num_triangles, lambda elements: element_system(kernels, elements, config))
    stats["kept_mb"] = sum(a.nbytes for a in kept) / 2**20
    stats["gram_pivot_min"] = float(pivots.min()) ** 2

    with _timed(stats, "assembly_s"):
        # the int32 indices scipy's sparse matrices take at these sizes
        fidx = dof.free_index[dof.element_dofs].astype(np.int32)
        keep = fidx >= 0
        rhs = np.zeros(dof.n_free)
        np.add.at(rhs, fidx[keep], b_loc[keep])
        lower = _lower_csr(dof.n_free, fidx, keep, A_loc)
        # the local matrices are freed before the sum
        del A_loc, b_loc
        A = _symmetric_from_lower(lower)
    stats["nnz"] = A.nnz
    return dof, kept, A, rhs


def assemble_and_solve(mesh, config, kernels=None):
    """Minimum-residual solve of the manufactured problem on one mesh.

    Runs on one OpenBLAS thread (`linalg.one_blas_thread`), `assemble` and
    its tables included.  Raises ValueError as `assemble` does, and
    linalg.SolveError when the solve fails or its backward error
    `residual_inf` exceeds RESIDUAL_MAX.  A and the kept element stacks are
    dropped before `linalg.spd_solver` exports the factor for its pivot check.
    """
    with linalg.one_blas_thread() as blas_pinned:
        stats = {"blas_pinned": blas_pinned}
        dof, systems, A, rhs = assemble(mesh, config, kernels, stats)
        nt = mesh.num_triangles

        # the factor's export and pivot check on exit belong to the solve
        with _timed(stats, "solve_s"), linalg.spd_solver(A, config.solver, stats) as solve:
            x_free = solve(rhs)
            res = np.abs(A @ x_free - rhs).max()
            scale = np.abs(rhs).max() + np.abs(A.data).max() * max(np.abs(x_free).max(), 1.0)
            residual_inf = res / scale
            del A
            if not residual_inf <= RESIDUAL_MAX:
                raise linalg.SolveError(f"backward error residual_inf = {residual_inf:.3e} "
                                        f"exceeds {RESIDUAL_MAX:g}")

            x = np.zeros(dof.n_total)
            x[dof.free] = x_free
            x_loc = x[dof.element_dofs]
            with _timed(stats, "estimator_s"):
                eta = dpg.local_residuals(*systems, x_loc)
                del systems
                # a scalar power calls libm's pow, whose bits can differ from eta * eta
                eta_sq = np.array([e ** 2 for e in eta])
        stats["solve_s"] -= stats["estimator_s"]
        eta_elements = np.sqrt(eta_sq)
        stats.update(n_free=dof.n_free, residual_inf=float(residual_inf),
                     eta_max=float(eta_elements.max()), eta_mean=float(eta_elements.mean()))
        nf = dof.n_field
        fields = x[: dof.field_total].reshape(nt, nf)
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


def _mesh_chain(levels, config, mesh_chain, hint=""):
    """`mesh_chain` extended to `levels` meshes from level 0, one refinement at a time.

    Each level's free dofs under `config` are counted as it is reached,
    and on the direct path the first level past linalg.DIRECT_SIZE_LIMIT
    raises ValueError, ended by `hint`, before a finer mesh is built.
    """
    for level in range(levels):
        if level == len(mesh_chain):
            mesh_chain.append(meshmod.refine_uniform(mesh_chain[-1]) if mesh_chain
                              else meshmod.unit_square_initial())
        _check_direct_size(DofMap(mesh_chain[level], config), config, level, hint)
    return mesh_chain


def run_study(t_list, levels, config, mesh_chain=None, kernels_chain=None,
              progress=None):
    """Solve on levels 0..levels-1 for each thickness; returns StudyRecords.

    Clamped studies start at level 1: the level-0 clamped matrix is
    singular.  Its 9 null modes live in the M-hat trace dofs of the
    4-triangle mesh and pair to zero with every test function, a gauge of
    the trace representation rather than a solution kernel; level 1 has
    none.

    Before any solve, ValueError rejects an empty `t_list`, a t that
    `config` with that t rejects, fewer than 1 level (2 if clamped) and,
    on the direct path, a level past linalg.DIRECT_SIZE_LIMIT free dofs.
    A given `mesh_chain` (levels 0, 1, ...) and `kernels_chain` (a level's
    `MeshKernels` or None) are extended to `levels` entries and filled in
    place.  Meshes and element tables are shared across thicknesses.  `progress` is an
    optional callable taking a status string.  A linalg.SolveError or
    ValueError of a level's tables or solve names its level and t.
    """
    from dataclasses import replace

    if not len(t_list):
        raise ValueError("t_list must hold at least one thickness")
    configs = [replace(config, t=t) for t in t_list]
    if levels < 1:
        raise ValueError(f"levels must be >= 1 (got {levels})")
    first = 1 if config.bc == "clamped" else 0
    if levels <= first:
        raise ValueError(f"levels must be >= 2 for clamped plates, whose studies "
                         f"start at level 1 (got {levels})")
    # the free dofs grow with the field components, so the widest layout bounds them
    widest = max(configs, key=lambda cfg: dpg.n_components(cfg.t))
    mesh_chain = _mesh_chain(levels, widest, [] if mesh_chain is None else mesh_chain,
                             hint="; use the cg solver")
    kernels_chain = [] if kernels_chain is None else kernels_chain
    kernels_chain.extend([None] * (levels - len(kernels_chain)))
    records = []
    for t, cfg in zip(t_list, configs):
        prev = None
        for level in range(first, levels):
            with _at_level(level, t):
                if kernels_chain[level] is None:
                    kernels_chain[level] = MeshKernels(mesh_chain[level], cfg)
                start = time.perf_counter()
                sol = assemble_and_solve(mesh_chain[level], cfg, kernels_chain[level])
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

    Before any solve, ValueError rejects a negative `level`, one past
    linalg.DIRECT_SIZE_LIMIT free dofs, and an empty `t_sequence` or one
    with a t that is not finite and > 0.  A linalg.SolveError or ValueError
    of the tables or a solve names the level and t.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0 (got {level})")
    if not len(t_sequence) or not all(t > 0.0 and np.isfinite(t) for t in t_sequence):
        raise ValueError("the limit study needs finite thicknesses t > 0")
    config = dpg.ProblemConfig(t=0.0)
    msh = _mesh_chain(level + 1, dpg.ProblemConfig(t=t_sequence[0]), [])[level]
    with _at_level(level, 0.0):
        kernels = MeshKernels(msh, config)
        sol0 = assemble_and_solve(msh, config, kernels)
    rows = []
    for t in t_sequence:
        with _at_level(level, t):
            sol = assemble_and_solve(msh, dpg.ProblemConfig(t=t), kernels)
        du = _p0_l2_diff(msh, sol.u, sol0.u)
        dM = _p0_l2_diff(msh, sol.M, sol0.M, weights=(1.0, 2.0, 1.0))
        rows.append((float(t), du, dM))

    pts, w = quadrature.map_to_triangles(
        quadrature.triangle_rule(manufactured.L2_QUAD_DEGREE), msh.vertices[msh.triangles])
    x = pts[..., 0].astype(np.longdouble)
    y = pts[..., 1].astype(np.longdouble)
    wl = w.astype(np.longdouble)
    ex_0 = manufactured.ExactSolution(0.0)
    u_0 = ex_0.u(x, y)
    lap = ex_0.lap_phi(x, y)
    den = manufactured.sum_over_elements(wl, lap * lap)
    ident_err = 0.0
    for t in t_sequence:
        diff = manufactured.ExactSolution(t).u(x, y) - u_0
        num = manufactured.sum_over_elements(wl, diff * diff)
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
