"""Per-element kernels of the minimum-residual plate discretization.

On each triangle the trial data are elementwise constants (deflection u,
symmetric moment tensor M, and for t > 0 the rotation theta) plus the
traces generated by four vertex-based C1 scalar fields (u-hat and the
three components of M-hat, with the rotation trace tied to the gradient
of u-hat).  Test functions are broken polynomial triples (z, Theta, tau).

The element Gram matrix carries the thickness-adapted test inner product

    (z, z') + t(grad z, grad z') + (Theta, Theta') + t(tau, tau')
    + (eps(grad z - t^2 div Theta), eps(grad z' - t^2 div Theta'))
    + (div(div Theta + t(tau - grad z)), div(div Theta' + t(tau' - grad z')))

whose t = 0 limit drops the tau blocks entirely.  The bilinear form pairs
trial fields against volume terms and the trace unknowns against the
element boundary through edge integrals; local normal equations
B^T G^{-1} B are produced by one Cholesky factorization of G per element
(after a symmetric diagonal scaling that leaves them invariant).  Every
function here takes a stack of elements on a leading axis; only LAPACK's
potrf and potrs, and the estimator's scalar dot, run per element.
"""

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import hct, parts, quadrature, testspace
from .testspace import N_SCALAR

TRACE_FIELDS = ("u_hat", "m11_hat", "m12_hat", "m22_hat")
N_TRACE_COLS = 36  # 4 generating fields x 9 vertex dofs
# at test degree 3 (testspace.DEGREE) the volume integrands have degree 11 or
# less (the load: f, of degree 8, times a cubic), so 11 would do; 14 stays
# because its points are in every G, B and l
QUAD_DEGREE = 14
# at degree 3 b_trace's edge integrands have degree 6 or less, so 6 would do;
# 8 stays because its points are in every B
EDGE_DEGREE = 8


@dataclass
class ProblemConfig:
    """Thickness, boundary condition, and solver."""

    t: float = 0.01
    bc: str = "simply-supported"
    solver: str = "direct"

    def __post_init__(self):
        """Reject every setting the solver cannot honour, with a one-line message."""
        if not np.isfinite(self.t) or self.t < 0.0:
            raise ValueError("thickness t must be finite and >= 0")
        # + 0.0 turns -0.0 into 0.0, so a t of -0 is t = 0 in every record and message
        self.t = float(self.t) + 0.0
        if self.bc not in ("simply-supported", "clamped"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.bc == "clamped" and self.t != 0.0:
            raise ValueError("clamped plates are supported only at t = 0")
        if self.solver not in ("direct", "cg"):
            raise ValueError(f"unknown solver {self.solver!r}")


def n_components(t):
    """Test components (z, Theta11, Theta12, Theta22, tau1, tau2) at thickness t.

    At t = 0 tau leaves, and with it the rotation: the count is also that
    of an element's field unknowns (u, M11, M12, M22, theta1, theta2).
    """
    return 6 if t > 0.0 else 4


def n_test(t):
    """Columns of the broken test space at thickness t: N_SCALAR per component."""
    return n_components(t) * N_SCALAR


def block(comp):
    """Slice of component `comp` (z, th11, th12, th22, tau1, tau2) in the n_test(t) columns."""
    return slice(comp * N_SCALAR, (comp + 1) * N_SCALAR)


class ElementKernel:
    """Basis tables of a stack of triangles at their volume and edge quadrature points.

    Built from the triangles `coords` (ne, 3, 2) in one stacked call per
    chunk of them (`parts.stack_chunks`), with the rules of QUAD_DEGREE and
    EDGE_DEGREE taken once.  Each chunk passes `testspace.triangle_gate`
    first, which names a bad triangle by its index in `coords`, as the HCT
    set-up's own checks do.  The test
    basis tables hold the N_SCALAR Bernstein polynomials of
    testspace.DEGREE, one block of each component's test functions (see
    `block`).  Every table carries the elements on its leading axis.
    Volume tables: points `vpts` (ne, nq, 2), weights `vw` (ne, nq), test
    basis values `V` and derivatives `Dx`, `Dy`, `Hxx`, `Hxy`, `Hyy`
    (ne, nq, N_SCALAR).  Edge tables are stacked over the three edges:
    weights `ew` (ne, 3, nqe), outward unit normals `en` (ne, 3, 2), test
    basis `tv`, `tx`, `ty` (ne, 3, nqe, N_SCALAR) and C1 trace basis `hv`,
    `hx`, `hy` (ne, 3, nqe, 9).  Slicing with a slice of element indices
    gives the tables of those elements as views.  `gram`, `b_field`,
    `b_trace` and `load` take a stack and return one matrix or vector per
    element.
    """

    NAMES = ("vpts", "vw", "V", "Dx", "Dy", "Hxx", "Hxy", "Hyy",
             "ew", "en", "tv", "tx", "ty", "hv", "hx", "hy")

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if len(coords) == 0:
            raise ValueError("element tables need at least one triangle")
        vol = quadrature.triangle_rule(QUAD_DEGREE)
        erule = quadrature.edge_rule(EDGE_DEGREE)

        def tables(elements):
            xy = coords[elements]
            bary = testspace.triangle_gate(xy, elements.start)
            vpts, vw = quadrature.map_to_triangles(vol, xy)
            val, grad, hess = testspace.eval_scalar_basis(bary, vpts)
            ends = xy[:, quadrature.NEXT]
            epts, ew = quadrature.map_to_edge(erule, xy, ends)
            tval, tgrad, _ = testspace.eval_scalar_basis(bary, epts, order=1)
            basis = hct.build_hct_element(xy, elements.start)
            hval, hgrad = hct.eval_on_parent_edges(basis, erule.points)
            return (vpts, vw, val, grad[..., 0], grad[..., 1],
                    hess[..., 0], hess[..., 1], hess[..., 2],
                    ew, hct.unit_normals(xy, ends), tval, tgrad[..., 0], tgrad[..., 1],
                    hval, hgrad[..., 0], hgrad[..., 1])

        for name, stack in zip(ElementKernel.NAMES, parts.stack_chunks(len(coords), tables)[0]):
            setattr(self, name, stack)

    def __len__(self):
        return self.vw.shape[0]

    def __getitem__(self, elements):
        view = copy.copy(self)  # the constructor would rebuild the tables
        for name in self.NAMES:
            setattr(view, name, getattr(self, name)[elements])
        return view


def _full_width(blocks, n, scale=None, out=None):
    """The (..., n) test-function feature {component: (..., N_SCALAR) block}, zero elsewhere.

    Each block, times `scale` when given, is written into its columns
    (`block`) of `out`, which must hold +0.0, or of a new zeroed array.
    """
    if out is None:
        out = np.zeros(next(iter(blocks.values())).shape[:-1] + (n,))
    for c, table in blocks.items():
        if scale is None:
            out[..., block(c)] = table
        else:
            np.multiply(scale, table, out=out[..., block(c)])
    return out


def _features(k, t):
    """Features e11, e22, e12 of eps(grad z - t^2 div Theta) and div(div Theta + t(tau - grad z)).

    Each maps a component of (z, th11, th12, th22, tau1, tau2) to its
    (ne, nq, N_SCALAR) block per test dof; the other components are zero.
    """
    e11, e22, e12 = {0: k.Hxx}, {0: k.Hyy}, {0: k.Hxy}
    s = {1: k.Hxx, 2: 2.0 * k.Hxy, 3: k.Hyy}
    if t > 0.0:
        tt = t * t
        h = 0.5 * tt
        e11.update({1: -tt * k.Hxx, 2: -tt * k.Hxy})
        e22.update({2: -tt * k.Hxy, 3: -tt * k.Hyy})
        e12.update({1: -h * k.Hxy, 2: -h * (k.Hyy + k.Hxx), 3: -h * k.Hxy})
        s.update({0: -t * (k.Hxx + k.Hyy), 4: t * k.Dx, 5: t * k.Dy})
    return e11, e22, e12, s


def gram(k, t):
    """Gram matrices (ne, n_test, n_test) of the test inner product at thickness t.

    G = R^T R, with R stacking the square-root-weighted features row-wise.
    """
    n = n_test(t)
    e11, e22, e12, s = _features(k, t)
    feats = [(1.0, {0: k.V}), (1.0, {1: k.V}), (2.0, {2: k.V}), (1.0, {3: k.V}),
             (1.0, e11), (1.0, e22), (2.0, e12), (1.0, s)]
    if t > 0.0:
        feats += [(t, {0: k.Dx}), (t, {0: k.Dy}), (t, {4: k.V}), (t, {5: k.V})]
    ne, nq = k.vw.shape
    sqw = np.sqrt(k.vw)[:, :, None]
    R = np.zeros((ne, len(feats) * nq, n))
    for i, (c, F) in enumerate(feats):
        _full_width(F, n, np.sqrt(c) * sqw, out=R[:, i * nq : (i + 1) * nq])
    return R.transpose(0, 2, 1) @ R


def b_field(k, t):
    """Volume blocks (ne, n_test, n_components(t)) of the trial-to-test matrix: u, M, (theta)."""
    n = n_test(t)
    e11, e22, e12, s = _features(k, t)

    def plus_v(F, c):
        # the identity law: the compliance of a Theta component is that
        # component; at t = 0 its block of F is zero, and V + (+-0.0) is V
        return {**F, c: k.V + F[c] if c in F else k.V}

    cols = [(1.0, s), (1.0, plus_v(e11, 1)), (2.0, plus_v(e12, 2)), (1.0, plus_v(e22, 3))]
    if t > 0.0:
        cols += [(t, {4: k.V, 0: -k.Dx}), (t, {5: k.V, 0: -k.Dy})]
    B = np.empty((len(k), n, len(cols)))
    w = k.vw[:, None, :]
    for j, (c, F) in enumerate(cols):
        # w @ F per element: one gemv over the full (nq, n) feature
        B[:, :, j] = c * (w @ _full_width(F, n))[:, 0, :]
    return B


def b_trace(k, t):
    """Skeleton blocks (ne, n_test, 36): columns generated by the four C1 vertex fields.

    Column order: field-major (u-hat, M11-hat, M12-hat, M22-hat), then
    the nine vertex dofs (value, d/dx, d/dy per vertex) of each.
    """
    n = n_test(t)
    # one contiguous (ne, n, 9) accumulator per generating field
    u_hat, m11, m12, m22 = blocks = [np.zeros((len(k), n, 9)) for _ in TRACE_FIELDS]
    tt = t * t
    for e in range(3):
        w = k.ew[:, e, :, None]
        n0 = k.en[:, e, 0, None, None]
        n1 = k.en[:, e, 1, None, None]
        tv, tx, ty = k.tv[:, e], k.tx[:, e], k.ty[:, e]
        hv, hx, hy = k.hv[:, e], k.hx[:, e], k.hy[:, e]
        Thn1 = {1: n0 * tv, 2: n1 * tv}
        Thn2 = {2: n0 * tv, 3: n1 * tv}
        zf = {0: tv}
        w1 = {0: tx, 1: -tt * tx, 2: -tt * ty}        # grad z - t^2 div Th, first row
        w2 = {0: ty, 2: -tt * tx, 3: -tt * ty}
        qn = {1: n0 * tx, 2: n0 * ty + n1 * tx, 3: n1 * ty}  # n . div Th
        if t > 0.0:
            qn.update({0: -t * (n0 * tx + n1 * ty), 4: t * n0 * tv, 5: t * n1 * tv})

        # (w F)^T per feature, as the left operand of one gemm per element
        qnT, Thn1T, Thn2T, zfT, w1T, w2T = (
            _full_width(F, n, w).transpose(0, 2, 1) for F in (qn, Thn1, Thn2, zf, w1, w2)
        )
        # u-hat columns: -<u, n.(div Th + t(tau - grad z))> + <grad u, Th n>
        u_hat += qnT @ (-hv) + Thn1T @ hx + Thn2T @ hy
        # M-hat columns: <n.div M, z> - <M n, grad z - t^2 div Th> - t^2 <div M, Th n>,
        # for M = phi E11, phi E12 and phi E22
        m11 += zfT @ (n0 * hx)
        m11 -= tt * (Thn1T @ hx)
        m11 -= w1T @ (n0 * hv)
        m12 += zfT @ (n0 * hy)
        m12 -= tt * (Thn1T @ hy)
        m12 += zfT @ (n1 * hx)
        m12 -= tt * (Thn2T @ hx)
        m12 -= w1T @ (n1 * hv)
        m12 -= w2T @ (n0 * hv)
        m22 += zfT @ (n1 * hy)
        m22 -= tt * (Thn2T @ hy)
        m22 -= w2T @ (n1 * hv)
    return np.concatenate(blocks, axis=2)


def load(k, f_values, t):
    """Load functionals -(f, z) (ne, n_test) against the test basis."""
    l = np.zeros((len(k), n_test(t)))
    l[:, block(0)] = (-(k.vw * f_values)[:, None, :] @ k.V)[:, 0, :]
    return l


def _cho_solve(L, rhs):
    """G^{-1} rhs from one Fortran-ordered factor L, as `cho_solve` gives it."""
    x, info = dpotrs(L, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def condense(G, B, l, first=0):
    """Element contributions B^T G^{-1} B and B^T G^{-1} l, with the factors of G.

    Takes the stacks G (ne, n, n), B (ne, n, m) and l (ne, n) and returns
    (Lp, dinv, A, b, pivots): dinv = 1 / sqrt(diag G) (ne, n); Lp (ne,
    n(n+1)/2), the lower triangle of the Cholesky factor of dinv G dinv,
    symmetrized, packed through the mask `np.tri(n, dtype=bool)` (row 0
    of the triangle, then row 1, and so on); A (ne, m, m) and b (ne, m),
    which are invariant under the equilibration; and each factor's smallest
    diagonal entry (ne,).  Each factor has the bits of scipy's
    `cho_factor(..., lower=True)`, and each element's potrf and potrs run
    in one pass.  Raises what `cho_factor` and `cho_solve` raised on the
    element's data, in this order: LinAlgError for a non-positive or
    non-finite diagonal of G, ValueError for a non-finite entry of the
    scaled G, of B or of l, LinAlgError for a matrix that is not positive
    definite.  Each error names the first failing element, at place i of
    the stack, as "element {first + i}: ".
    """
    diag = np.diagonal(G, axis1=1, axis2=2)
    # checked before the square root, which would warn on a negative entry
    positive = (np.isfinite(diag) & (diag > 0.0)).all(axis=1)
    if not positive.all():
        raise np.linalg.LinAlgError(f"element {first + int(np.argmin(positive))}: "
                                    "Gram matrix has a non-positive diagonal")
    dinv = 1.0 / np.sqrt(diag)
    Gt = G * dinv[:, :, None] * dinv[:, None, :]
    S = 0.5 * (Gt + Gt.transpose(0, 2, 1))
    finite = (np.isfinite(S).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
              & np.isfinite(l).all(axis=1))
    if not finite.all():
        raise ValueError(f"element {first + int(np.argmin(finite))}: "
                         "array must not contain infs or NaNs")
    Bt = B * dinv[:, :, None]
    ne, n, m = B.shape
    # Y's slices are Fortran-ordered, as potrs returns them, so the stacked
    # products below make the BLAS calls of the per-element ones
    Y = np.empty((ne, m, n)).transpose(0, 2, 1)
    # S is exactly symmetric, so each S[i].T is the same matrix in Fortran
    # order, and potrf factors it in place
    for i, (Li, Bi, Yi) in enumerate(zip(S.transpose(0, 2, 1), Bt, Y)):
        _, info = dpotrf(Li, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"element {first + i}: {info}-th leading minor "
                                        "of the array is not positive definite")
        if info < 0:
            raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                             'on entry to "POTRF".')
        Yi[...] = _cho_solve(Li, Bi)
    A = Bt.transpose(0, 2, 1) @ Y
    b = (Y.transpose(0, 2, 1) @ (l * dinv)[:, :, None])[:, :, 0]
    pivots = np.diagonal(S, axis1=1, axis2=2).min(axis=1)
    # the factor L[e] is S[e].T; the mask takes its lower triangle row by row
    Lp = S.transpose(0, 2, 1)[:, np.tri(n, dtype=bool)]
    return Lp, dinv, 0.5 * (A + A.transpose(0, 2, 1)), b, pivots


def local_residuals(Lp, dinv, B, l, x_loc):
    """Test-norm magnitudes (ne,) of the local residuals l - B x for trial dofs x_loc (ne, m).

    Reuses the factors that `condense` returned: dinv, and the packed
    lower triangles Lp (ne, n(n+1)/2), half the memory of the full stack.
    Each triangle is written into the lower triangle of one reused
    Fortran-ordered n x n buffer, whose upper triangle stays zero; `dpotrs`
    reads only the lower one, so every element gets the bits of its full
    factor.  A non-finite residual raises ValueError naming the first such
    element, at place i of the stack, as "element {i}: ".
    """
    r = (l - (B @ x_loc[:, :, None])[:, :, 0]) * dinv
    finite = np.isfinite(r).all(axis=1)
    if not finite.all():
        raise ValueError(f"element {int(np.argmin(finite))}: "
                         "array must not contain infs or NaNs")
    n = dinv.shape[1]
    Li = np.zeros((n, n), order="F")
    # the mask `condense` packed with
    lower = np.tri(n, dtype=bool)
    eta = np.empty(len(r))
    for i, (Lpi, ri) in enumerate(zip(Lp, r)):
        Li[lower] = Lpi
        eta[i] = np.sqrt(max(float(ri @ _cho_solve(Li, ri)), 0.0))
    return eta
