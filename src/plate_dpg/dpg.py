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
from .testspace import BarycentricMap

TRACE_FIELDS = ("u_hat", "m11_hat", "m12_hat", "m22_hat")
N_TRACE_COLS = 36  # 4 generating fields x 9 vertex dofs
# Bernstein degree of the enriched broken test space (practical DPG,
# Gopalakrishnan and Qiu 2014) for constant fields and traces cubic along
# each edge; every study, `limit` and `verify` runs at 3
TEST_DEGREE = 3
N_SCALAR = testspace.scalar_basis_size(TEST_DEGREE)  # polynomials per component
# at degree 3 the volume integrands have degree 11 or less (the load: f, of
# degree 8, times a cubic), so 11 would do; 14 stays because its points are in
# every G, B and l
QUAD_DEGREE = 14
# at degree 3 b_trace's edge integrands have degree 6 or less, so 6 would do;
# 8 stays because its points are in every B
EDGE_DEGREE = 8
# elements per stacked call, for the element tables and the element systems:
# the transient stacked R of the Gram matrices stays near 6 MB, and a chunk's
# tables well below that; larger chunks save little time and raise peak memory
CHUNK = 16


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
    CHUNK of them, with the rules of QUAD_DEGREE and EDGE_DEGREE taken
    once.  The test basis tables hold the N_SCALAR Bernstein polynomials
    of TEST_DEGREE, one block of each component's test functions (see
    `block`).  Every table carries the elements on its leading axis.
    Volume tables: points `vpts` (ne, nq, 2), weights `vw` (ne, nq), test
    basis values `V` and derivatives `Dx`, `Dy`, `Hxx`, `Hxy`, `Hyy`
    (ne, nq, N_SCALAR).  Edge tables are stacked over the three edges:
    weights `ew` (ne, 3, nqe),
    outward unit normals `en` (ne, 3, 2), test basis `tv`, `tx`, `ty`
    (ne, 3, nqe, N_SCALAR) and C1 trace basis `hv`, `hx`, `hy`
    (ne, 3, nqe, 9).  Slicing with a slice of element indices gives the
    tables of those elements as views.  `gram`, `b_field`, `b_trace` and
    `load` take a stack and return one matrix or vector per element.

    The tables are allocated by `parts.empty`.  Chunk 0 is built first,
    which gives their shapes; the other chunks run through
    `parts.run_chunks`, the second half of them in a forked child where
    the process has two cores, with the bits of one process.
    """

    NAMES = ("vpts", "vw", "V", "Dx", "Dy", "Hxx", "Hxy", "Hyy",
             "ew", "en", "tv", "tx", "ty", "hv", "hx", "hy")

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if len(coords) == 0:
            raise ValueError("element tables need at least one triangle")
        vol = quadrature.triangle_rule(QUAD_DEGREE)
        erule = quadrature.edge_rule(EDGE_DEGREE)

        def fill(starts):
            for lo in starts:
                xy = coords[lo : lo + CHUNK]
                # mapped first: it rejects a clockwise, degenerate or non-finite
                # triangle, on which the barycentric inverse would fail or go on with NaN
                vpts, vw = quadrature.map_to_triangles(vol, xy)
                bary = BarycentricMap(xy)
                val, grad, hess = testspace.eval_scalar_basis(bary, vpts, TEST_DEGREE)
                ends = xy[:, [1, 2, 0]]
                epts, ew = quadrature.map_to_edge(erule, xy, ends)
                tval, tgrad, _ = testspace.eval_scalar_basis(bary, epts, TEST_DEGREE,
                                                             order=1)
                element = hct.build_hct_element(xy)
                traces = [hct.eval_on_parent_edge(element, k, erule.points) for k in range(3)]
                hgrad = np.stack([g for _, g in traces], axis=1)
                chunk = dict(
                    vpts=vpts, vw=vw, V=val, Dx=grad[..., 0], Dy=grad[..., 1],
                    Hxx=hess[..., 0], Hxy=hess[..., 1], Hyy=hess[..., 2],
                    ew=ew, en=hct.unit_normals(xy, ends),
                    tv=tval, tx=tgrad[..., 0], ty=tgrad[..., 1],
                    hv=np.stack([v for v, _ in traces], axis=1),
                    hx=hgrad[..., 0], hy=hgrad[..., 1])
                for name, table in chunk.items():
                    if lo == 0:
                        setattr(self, name, parts.empty((len(coords),) + table.shape[1:]))
                    getattr(self, name)[lo : lo + CHUNK] = table

        # chunk 0 gives the table shapes, and the rest may run in two parts
        fill([0])
        parts.run_chunks(range(CHUNK, len(coords), CHUNK), fill)

    def __len__(self):
        return self.vw.shape[0]

    def __getitem__(self, elements):
        view = copy.copy(self)  # the constructor would rebuild the tables
        for name in self.NAMES:
            setattr(view, name, getattr(self, name)[elements])
        return view


class _Blocks:
    """A (ne, nq, n_test) array of test-function features, held by component.

    `blocks` maps a component of (z, th11, th12, th22, tau1, tau2) to its
    (ne, nq, n_scalar) block; every other entry is zero.  The per-element
    formulas build the same features as zero-padded full-width arrays.
    """

    __array_ufunc__ = None  # `ndarray * _Blocks` goes to __rmul__

    def __init__(self, blocks):
        self.blocks = blocks

    def _apply(self, op, other):
        if not isinstance(other, _Blocks):
            return _Blocks({c: op(a, other) for c, a in self.blocks.items()})
        comps = self.blocks.keys() | other.blocks.keys()
        return _Blocks({c: op(self.blocks.get(c, 0.0), other.blocks.get(c, 0.0))
                        for c in comps})

    def __add__(self, other):
        return self._apply(np.add, other)

    def __sub__(self, other):
        return self._apply(np.subtract, other)

    def __mul__(self, other):
        return self._apply(np.multiply, other)

    __rmul__ = __mul__  # IEEE products commute, bits included

    def update(self, comp, op, value):
        """Block `comp` replaced by op(block, value), as `out[:, block] op= value` would."""
        blocks = dict(self.blocks)
        blocks[comp] = op(blocks.get(comp, 0.0), value)
        return _Blocks(blocks)

    def full(self, n, out=None):
        """The full-width (..., n) array, written into `out` (all +0.0) when given."""
        a = next(iter(self.blocks.values()))
        ns = a.shape[-1]
        if out is None:
            out = np.zeros(a.shape[:-1] + (n,))
        for c, table in self.blocks.items():
            out[..., c * ns : (c + 1) * ns] = table
        return out


def _place(comp, table):
    return _Blocks({comp: table})


def _strain_features(k, t):
    """(e11, e22, e12) of eps(grad z - t^2 div Theta) per test dof."""
    tt = t * t
    e11 = _place(0, k.Hxx) - tt * (_place(1, k.Hxx) + _place(2, k.Hxy))
    e22 = _place(0, k.Hyy) - tt * (_place(2, k.Hxy) + _place(3, k.Hyy))
    e12 = _place(0, k.Hxy) - 0.5 * tt * (
        _place(1, k.Hxy) + _place(2, k.Hyy) + _place(2, k.Hxx) + _place(3, k.Hxy)
    )
    return e11, e22, e12


def _scaled_div_feature(k, t):
    """div(div Theta + t(tau - grad z)) per test dof."""
    s = _place(1, k.Hxx) + 2.0 * _place(2, k.Hxy) + _place(3, k.Hyy)
    if t > 0.0:
        s = s - t * (_place(0, k.Hxx) + _place(0, k.Hyy))
        s = s + t * (_place(4, k.Dx) + _place(5, k.Dy))
    return s


def _weighted_sum(w, feature, n):
    """w @ F per element: one gemv over the full (nq, n) feature."""
    return (w[:, None, :] @ feature.full(n))[:, 0, :]


def gram(k, t):
    """Gram matrices (ne, n_test, n_test) of the test inner product at thickness t.

    G = R^T R, with R stacking the square-root-weighted features row-wise.
    """
    n = n_test(t)
    e11, e22, e12 = _strain_features(k, t)
    feats = [
        (1.0, _place(0, k.V)),
        (1.0, _place(1, k.V)),
        (2.0, _place(2, k.V)),
        (1.0, _place(3, k.V)),
        (1.0, e11), (1.0, e22), (2.0, e12),
        (1.0, _scaled_div_feature(k, t)),
    ]
    if t > 0.0:
        feats += [
            (t, _place(0, k.Dx)),
            (t, _place(0, k.Dy)),
            (t, _place(4, k.V)),
            (t, _place(5, k.V)),
        ]
    ne, nq = k.vw.shape
    sqw = np.sqrt(k.vw)[:, :, None]
    R = np.zeros((ne, len(feats) * nq, n))
    for i, (c, F) in enumerate(feats):
        (np.sqrt(c) * sqw * F).full(n, out=R[:, i * nq : (i + 1) * nq])
    G = R.transpose(0, 2, 1) @ R
    return 0.5 * (G + G.transpose(0, 2, 1))


def b_field(k, t):
    """Volume blocks (ne, n_test, n_components(t)) of the trial-to-test matrix: u, M, (theta)."""
    n = n_test(t)
    B = np.empty((len(k), n, n_components(t)))
    w = k.vw
    e11, e22, e12 = _strain_features(k, t)
    B[:, :, 0] = _weighted_sum(w, _scaled_div_feature(k, t), n)
    # the identity law: the compliance of a Theta component is that component
    B[:, :, 1] = _weighted_sum(w, _place(1, k.V) + e11, n)
    B[:, :, 2] = 2.0 * _weighted_sum(w, _place(2, k.V) + e12, n)
    B[:, :, 3] = _weighted_sum(w, _place(3, k.V) + e22, n)
    if t > 0.0:
        B[:, :, 4] = t * _weighted_sum(w, _place(4, k.V) - _place(0, k.Dx), n)
        B[:, :, 5] = t * _weighted_sum(w, _place(5, k.V) - _place(0, k.Dy), n)
    return B


def b_trace(k, t):
    """Skeleton blocks (ne, n_test, 36): columns generated by the four C1 vertex fields.

    Column order: field-major (u-hat, M11-hat, M12-hat, M22-hat), then
    the nine vertex dofs (value, d/dx, d/dy per vertex) of each.
    """
    n = n_test(t)
    # one contiguous (ne, n, 9) accumulator per generating field
    blocks = [np.zeros((len(k), n, 9)) for _ in TRACE_FIELDS]
    tt = t * t
    for e in range(3):
        w = k.ew[:, e, :, None]
        n0 = k.en[:, e, 0, None, None]
        n1 = k.en[:, e, 1, None, None]
        tv, tx, ty = k.tv[:, e], k.tx[:, e], k.ty[:, e]
        hv, hx, hy = k.hv[:, e], k.hx[:, e], k.hy[:, e]
        dTh1 = _Blocks({1: tx, 2: ty})
        dTh2 = _Blocks({2: tx, 3: ty})
        Thn1 = _Blocks({1: n0 * tv, 2: n1 * tv})
        Thn2 = _Blocks({2: n0 * tv, 3: n1 * tv})
        zf = _place(0, tv)
        w1 = _place(0, tx) - tt * dTh1
        w2 = _place(0, ty) - tt * dTh2
        qn = n0 * dTh1 + n1 * dTh2
        if t > 0.0:
            qn = qn.update(0, np.subtract, t * (n0 * tx + n1 * ty))
            qn = qn.update(4, np.add, t * n0 * tv)
            qn = qn.update(5, np.add, t * n1 * tv)

        # (w F)^T per feature, as the left operand of one gemm per element
        qnT, Thn1T, Thn2T, zfT, w1T, w2T = (
            (w * F).full(n).transpose(0, 2, 1) for F in (qn, Thn1, Thn2, zf, w1, w2)
        )
        # u-hat columns: -<u, n.(div Th + t(tau - grad z))> + <grad u, Th n>
        blocks[0] += qnT @ (-hv) + Thn1T @ hx + Thn2T @ hy
        # M-hat columns: <n.div M, z> - <M n, grad z - t^2 div Th>
        #                - t^2 <div M, Th n>
        for c, (d1, d2, m1, m2) in enumerate(
            (
                (hx, None, n0 * hv, None),        # M = phi * E11
                (hy, hx, n1 * hv, n0 * hv),       # M = phi * E12
                (None, hy, None, n1 * hv),        # M = phi * E22
            )
        ):
            out = blocks[c + 1]
            if d1 is not None:
                out += zfT @ (n0 * d1)
                out -= tt * (Thn1T @ d1)
            if d2 is not None:
                out += zfT @ (n1 * d2)
                out -= tt * (Thn2T @ d2)
            if m1 is not None:
                out -= w1T @ m1
            if m2 is not None:
                out -= w2T @ m2
    return np.concatenate(blocks, axis=2)


def load(k, f_values, t):
    """Load functionals -(f, z) (ne, n_test) against the test basis."""
    l = np.zeros((len(k), n_test(t)))
    l[:, block(0)] = (-(k.vw * f_values)[:, None, :] @ k.V)[:, 0, :]
    return l


def gram_factors(G, *data):
    """Cholesky factors of the equilibrated Gram matrices of a stack, and every input check.

    Returns (L, dinv): dinv = 1 / sqrt(diag G) per element (ne, n), and L
    (ne, n, n) whose Fortran-ordered slices hold in their lower triangles
    the Cholesky factors of dinv G dinv, symmetrized.  Each factor has the
    bits of scipy's `cho_factor(..., lower=True)`, and this function raises
    what `cho_factor` and `cho_solve` raised on the element's data:
    LinAlgError for a non-positive or non-finite diagonal of G or a matrix
    that is not positive definite, ValueError for a non-finite entry of the
    scaled G or of the further arrays `data` (the elements' B and l).
    """
    diag = np.diagonal(G, axis1=1, axis2=2)
    # checked before the square root, which would warn on a negative entry
    if not (np.isfinite(diag) & (diag > 0.0)).all():
        raise np.linalg.LinAlgError("Gram matrix has a non-positive diagonal")
    dinv = 1.0 / np.sqrt(diag)
    Gt = G * dinv[:, :, None] * dinv[:, None, :]
    S = 0.5 * (Gt + Gt.transpose(0, 2, 1))
    if not all(np.isfinite(a).all() for a in (S, *data)):
        raise ValueError("array must not contain infs or NaNs")
    # S is exactly symmetric, so each S[i].T is the same matrix in Fortran
    # order, and potrf factors it in place
    L = S.transpose(0, 2, 1)
    for Li in L:
        _, info = dpotrf(Li, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        if info < 0:
            raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                             'on entry to "POTRF".')
    return L, dinv


def _cho_solve(L, rhs):
    """G^{-1} rhs from one factor L of `gram_factors`, as `cho_solve` gives it."""
    x, info = dpotrs(L, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def condense(L, dinv, B, l):
    """Element contributions (B^T G^{-1} B, B^T G^{-1} l) to the normal equations.

    Takes the factors (L, dinv) of `gram_factors` and the stacks B
    (ne, n, m) and l (ne, n); returns A (ne, m, m) and b (ne, m).  The
    result is invariant under the equilibration.  Y's slices are
    Fortran-ordered, as potrs returns them, so the stacked products make
    the BLAS calls of the per-element ones.
    """
    Bt = B * dinv[:, :, None]
    ne, n, m = B.shape
    Y = np.empty((ne, m, n)).transpose(0, 2, 1)
    for Li, Bi, Yi in zip(L, Bt, Y):
        Yi[...] = _cho_solve(Li, Bi)
    A = Bt.transpose(0, 2, 1) @ Y
    b = (Y.transpose(0, 2, 1) @ (l * dinv)[:, :, None])[:, :, 0]
    return 0.5 * (A + A.transpose(0, 2, 1)), b


def local_residuals(L, dinv, B, l, x_loc):
    """Test-norm magnitudes (ne,) of the local residuals l - B x for trial dofs x_loc (ne, m).

    Reuses the factors (L, dinv) of `gram_factors` that `condense` used.
    """
    r = (l - (B @ x_loc[:, :, None])[:, :, 0]) * dinv
    if not np.isfinite(r).all():
        raise ValueError("array must not contain infs or NaNs")
    eta = np.empty(len(r))
    for i, (Li, ri) in enumerate(zip(L, r)):
        eta[i] = np.sqrt(max(float(ri @ _cho_solve(Li, ri)), 0.0))
    return eta
