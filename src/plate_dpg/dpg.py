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
(after a symmetric diagonal scaling that leaves them invariant).
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import quadrature
from .hct import eval_on_parent_edge
from .linalg import CG_TOL
from .testspace import BrokenTestBasis

TRACE_FIELDS = ("u_hat", "m11_hat", "m12_hat", "m22_hat")
N_TRACE_COLS = 36  # 4 generating fields x 9 vertex dofs


class MaterialLaw:
    """Isotropic bending stiffness acting on symmetric tensors (11, 12, 22).

    C(X) = D [nu tr(X) I + (1 - nu) X] with D = E / (12 (1 - nu^2)).
    The identity law is the nu = 0, E = 12 member of the family.
    """

    def __init__(self, E=12.0, nu=0.0):
        if not E > 0.0:
            raise ValueError("Young modulus must be positive")
        if not -1.0 < nu <= 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 1/2]")
        self.E = E
        self.nu = nu
        self.D = E / (12.0 * (1.0 - nu * nu))

    @classmethod
    def identity(cls):
        return cls(E=12.0, nu=0.0)

    @classmethod
    def isotropic(cls, E, nu):
        return cls(E=E, nu=nu)

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        out[..., 0] = self.D * (X[..., 0] + self.nu * X[..., 2])
        out[..., 1] = self.D * (1.0 - self.nu) * X[..., 1]
        out[..., 2] = self.D * (X[..., 2] + self.nu * X[..., 0])
        return out

    def apply_inverse(self, Y):
        Y = np.asarray(Y, dtype=float)
        out = np.empty_like(Y)
        a = 1.0 / (self.D * (1.0 - self.nu * self.nu))
        out[..., 0] = a * (Y[..., 0] - self.nu * Y[..., 2])
        out[..., 1] = Y[..., 1] / (self.D * (1.0 - self.nu))
        out[..., 2] = a * (Y[..., 2] - self.nu * Y[..., 0])
        return out


@dataclass
class ProblemConfig:
    """Thickness, boundary condition, material, and discretization knobs."""

    t: float = 0.01
    bc: str = "simply-supported"
    material: MaterialLaw = field(default_factory=MaterialLaw.identity)
    test_degree: int = 3
    quad_degree: int = 14
    edge_degree: int = 8
    solver: str = "direct"
    cg_tol: float = CG_TOL

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t < 0.0:
            raise ValueError("thickness t must be finite and >= 0")
        if self.bc not in ("simply-supported", "clamped"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.bc == "clamped" and self.t != 0.0:
            raise ValueError("clamped plates are supported only at t = 0")
        if self.solver not in ("direct", "cg"):
            raise ValueError(f"unknown solver {self.solver!r}")

    def n_field(self):
        return 6 if self.t > 0.0 else 4


@dataclass
class ElementSystem:
    """Local Gram matrix, extended trial-to-test matrix, and load vector.

    `gram_factor` factors G on first use and keeps the factor, so a caller
    that holds the system only for `local_residual` after
    `local_normal_contribution` may drop G.
    """

    G: np.ndarray | None
    B: np.ndarray
    l: np.ndarray

    @functools.cached_property
    def gram_factor(self):
        """(Cholesky factor, 1 / sqrt(diag G)) of the equilibrated G, computed once."""
        return _equilibrated_cholesky(self.G)


class ElementKernel:
    """Precomputed tables of one triangle, reusable across thicknesses."""

    def __init__(self, coords, hct_element, layout=None, quad_degree=14, edge_degree=8):
        self.coords = np.asarray(coords, dtype=float)
        self.hct = hct_element
        self.layout = layout if layout is not None else BrokenTestBasis()
        vol = quadrature.triangle_rule(quad_degree)
        self.vpts, self.vw = quadrature.map_to_triangle(vol, self.coords)
        val, grad, hess = self.layout.tables(self.coords, self.vpts)
        self.V = val
        self.Dx, self.Dy = grad[:, :, 0], grad[:, :, 1]
        self.Hxx, self.Hxy, self.Hyy = hess[:, :, 0], hess[:, :, 1], hess[:, :, 2]

        erule = quadrature.edge_rule(edge_degree)
        self.edges = []
        for k in range(3):
            p = self.coords[k]
            q = self.coords[(k + 1) % 3]
            pts, we = quadrature.map_to_edge(erule, p, q)
            d = q - p
            n = np.array([d[1], -d[0]]) / np.hypot(*d)
            tval, tgrad, _ = self.layout.tables(self.coords, pts)
            hval, hgrad = eval_on_parent_edge(hct_element, k, erule.points)
            self.edges.append(
                dict(w=we, n=n, tv=tval, tx=tgrad[:, :, 0], ty=tgrad[:, :, 1],
                     hv=hval, hx=hgrad[:, :, 0], hy=hgrad[:, :, 1])
            )

    # ---- volume features: (nq, n_test) arrays of test-function quantities

    def _place(self, t, comp, table):
        ns = self.layout.n_scalar
        out = np.zeros((table.shape[0], self.layout.n_test(t)))
        out[:, comp * ns : (comp + 1) * ns] = table
        return out

    def strain_features(self, t):
        """(e11, e22, e12) of eps(grad z - t^2 div Theta) per test dof."""
        tt = t * t
        e11 = self._place(t, 0, self.Hxx)
        e11 -= tt * (self._place(t, 1, self.Hxx) + self._place(t, 2, self.Hxy))
        e22 = self._place(t, 0, self.Hyy)
        e22 -= tt * (self._place(t, 2, self.Hxy) + self._place(t, 3, self.Hyy))
        e12 = self._place(t, 0, self.Hxy)
        e12 -= 0.5 * tt * (
            self._place(t, 1, self.Hxy) + self._place(t, 2, self.Hyy)
            + self._place(t, 2, self.Hxx) + self._place(t, 3, self.Hxy)
        )
        return e11, e22, e12

    def scaled_div_feature(self, t):
        """div(div Theta + t(tau - grad z)) per test dof."""
        s = self._place(t, 1, self.Hxx) + 2.0 * self._place(t, 2, self.Hxy) \
            + self._place(t, 3, self.Hyy)
        if t > 0.0:
            s -= t * (self._place(t, 0, self.Hxx) + self._place(t, 0, self.Hyy))
            s += t * (self._place(t, 4, self.Dx) + self._place(t, 5, self.Dy))
        return s

    def gram(self, t):
        """Gram matrix of the test inner product at thickness t."""
        e11, e22, e12 = self.strain_features(t)
        feats = [
            (1.0, self._place(t, 0, self.V)),
            (1.0, self._place(t, 1, self.V)),
            (2.0, self._place(t, 2, self.V)),
            (1.0, self._place(t, 3, self.V)),
            (1.0, e11), (1.0, e22), (2.0, e12),
            (1.0, self.scaled_div_feature(t)),
        ]
        if t > 0.0:
            feats += [
                (t, self._place(t, 0, self.Dx)),
                (t, self._place(t, 0, self.Dy)),
                (t, self._place(t, 4, self.V)),
                (t, self._place(t, 5, self.V)),
            ]
        sqw = np.sqrt(self.vw)
        R = np.vstack([np.sqrt(c) * sqw[:, None] * F for c, F in feats])
        G = R.T @ R
        return 0.5 * (G + G.T)

    def b_field(self, t, material):
        """Volume block of the trial-to-test matrix: columns u, M, (theta)."""
        n_field = 6 if t > 0.0 else 4
        B = np.empty((self.layout.n_test(t), n_field))
        w = self.vw
        e11, e22, e12 = self.strain_features(t)
        th = [self._place(t, 1, self.V), self._place(t, 2, self.V),
              self._place(t, 3, self.V)]
        # inverse material law applied to the Theta test block, componentwise
        ci = material.apply_inverse(np.stack(th, axis=-1))
        B[:, 0] = w @ self.scaled_div_feature(t)
        B[:, 1] = w @ (ci[..., 0] + e11)
        B[:, 2] = 2.0 * (w @ (ci[..., 1] + e12))
        B[:, 3] = w @ (ci[..., 2] + e22)
        if t > 0.0:
            B[:, 4] = t * (w @ (self._place(t, 4, self.V) - self._place(t, 0, self.Dx)))
            B[:, 5] = t * (w @ (self._place(t, 5, self.V) - self._place(t, 0, self.Dy)))
        return B

    def b_trace(self, t):
        """Skeleton block: 36 columns generated by the four C1 vertex fields.

        Column order: field-major (u-hat, M11-hat, M12-hat, M22-hat), then
        the nine vertex dofs (value, d/dx, d/dy per vertex) of each.
        """
        ns = self.layout.n_scalar
        n_test = self.layout.n_test(t)
        B = np.zeros((n_test, N_TRACE_COLS))
        tt = t * t
        zsl = self.layout.block(0)
        for e in self.edges:
            w, n = e["w"], e["n"]
            tv, tx, ty = e["tv"], e["tx"], e["ty"]
            hv, hx, hy = e["hv"], e["hx"], e["hy"]
            dTh1 = np.zeros((w.size, n_test))
            dTh2 = np.zeros((w.size, n_test))
            dTh1[:, 1 * ns : 2 * ns] = tx
            dTh1[:, 2 * ns : 3 * ns] = ty
            dTh2[:, 2 * ns : 3 * ns] = tx
            dTh2[:, 3 * ns : 4 * ns] = ty
            Thn1 = np.zeros((w.size, n_test))
            Thn2 = np.zeros((w.size, n_test))
            Thn1[:, 1 * ns : 2 * ns] = n[0] * tv
            Thn1[:, 2 * ns : 3 * ns] = n[1] * tv
            Thn2[:, 2 * ns : 3 * ns] = n[0] * tv
            Thn2[:, 3 * ns : 4 * ns] = n[1] * tv
            zf = np.zeros((w.size, n_test))
            zf[:, zsl] = tv
            w1 = np.zeros((w.size, n_test))
            w2 = np.zeros((w.size, n_test))
            w1[:, zsl] = tx
            w2[:, zsl] = ty
            w1 -= tt * dTh1
            w2 -= tt * dTh2
            qn = n[0] * dTh1 + n[1] * dTh2
            if t > 0.0:
                qn[:, zsl] -= t * (n[0] * tx + n[1] * ty)
                qn[:, 4 * ns : 5 * ns] += t * n[0] * tv
                qn[:, 5 * ns : 6 * ns] += t * n[1] * tv

            wq = w[:, None]
            # u-hat columns: -<u, n.(div Th + t(tau - grad z))> + <grad u, Th n>
            B[:, 0:9] += (wq * qn).T @ (-hv) + (wq * Thn1).T @ hx + (wq * Thn2).T @ hy
            # M-hat columns: <n.div M, z> - <M n, grad z - t^2 div Th>
            #                - t^2 <div M, Th n>
            for c, (d1, d2, m1, m2) in enumerate(
                (
                    (hx, None, n[0] * hv, None),        # M = phi * E11
                    (hy, hx, n[1] * hv, n[0] * hv),     # M = phi * E12
                    (None, hy, None, n[1] * hv),        # M = phi * E22
                )
            ):
                cols = slice(9 * (c + 1), 9 * (c + 2))
                if d1 is not None:
                    B[:, cols] += (wq * zf).T @ (n[0] * d1)
                    B[:, cols] -= tt * ((wq * Thn1).T @ d1)
                if d2 is not None:
                    B[:, cols] += (wq * zf).T @ (n[1] * d2)
                    B[:, cols] -= tt * ((wq * Thn2).T @ d2)
                if m1 is not None:
                    B[:, cols] -= (wq * w1).T @ m1
                if m2 is not None:
                    B[:, cols] -= (wq * w2).T @ m2
        return B

    def load(self, f_values, t):
        """Load functional -(f, z) against the test basis."""
        l = np.zeros(self.layout.n_test(t))
        l[self.layout.block(0)] = -(self.vw * f_values) @ self.V
        return l


def _equilibrated_cholesky(G):
    d = np.sqrt(np.diag(G))
    if np.any(~np.isfinite(d)) or np.any(d <= 0.0):
        raise np.linalg.LinAlgError("Gram matrix has a non-positive diagonal")
    dinv = 1.0 / d
    Gt = G * dinv[:, None] * dinv[None, :]
    return cho_factor(0.5 * (Gt + Gt.T), lower=True), dinv


def local_normal_contribution(system):
    """Element contribution (B^T G^{-1} B, B^T G^{-1} l) to the normal equations.

    One Cholesky factorization of the (diagonally equilibrated) Gram matrix
    plus triangular solves; the result is invariant under the scaling.
    """
    cho, dinv = system.gram_factor
    Bt = system.B * dinv[:, None]
    Y = cho_solve(cho, Bt)
    A = Bt.T @ Y
    b = Y.T @ (system.l * dinv)
    return 0.5 * (A + A.T), b


def local_residual(system, x_local):
    """Test-norm magnitude of the local residual l - B x for given trial dofs.

    Reuses the Gram factorization of `local_normal_contribution`.
    """
    cho, dinv = system.gram_factor
    r = (system.l - system.B @ x_local) * dinv
    val = float(r @ cho_solve(cho, r))
    return np.sqrt(max(val, 0.0))


# ---- diagnostic pairings used to cross-check the assembled skeleton terms


def trace_pair_edge(coords, gen_a, gen_b, t, edge_degree=8):
    """Edge-representation duality pairing of two smooth triples on one triangle.

    `gen_a(pts)` returns (u, grad_u (nq,2), M (nq,3), div_M (nq,2), theta (nq,2));
    `gen_b(pts)` returns (z, grad_z, Theta (nq,3), div_Theta (nq,2), tau (nq,2)).
    """
    coords = np.asarray(coords, dtype=float)
    rule = quadrature.edge_rule(edge_degree)
    tt = t * t
    total = 0.0
    for k in range(3):
        p, q = coords[k], coords[(k + 1) % 3]
        pts, w = quadrature.map_to_edge(rule, p, q)
        d = q - p
        n = np.array([d[1], -d[0]]) / np.hypot(*d)
        u, gu, M, dM, th = gen_a(pts)
        z, gz, Th, dTh, tau = gen_b(pts)
        qn_b = dTh @ n + t * ((tau - gz) @ n)
        qn_a = dM @ n + t * ((th - gu) @ n)
        Mn = np.stack([M[:, 0] * n[0] + M[:, 1] * n[1],
                       M[:, 1] * n[0] + M[:, 2] * n[1]], axis=1)
        Thn = np.stack([Th[:, 0] * n[0] + Th[:, 1] * n[1],
                        Th[:, 1] * n[0] + Th[:, 2] * n[1]], axis=1)
        wa = gz - tt * dTh
        wb = gu - tt * dM
        total += w @ (u * qn_b - qn_a * z
                      + np.einsum("qd,qd->q", Mn, wa)
                      - np.einsum("qd,qd->q", wb, Thn))
    return total


def trace_pair_volume(subtris, gen_a, gen_b, t, quad_degree=14):
    """Volume-form duality pairing, integrated over a list of subtriangles.

    `gen_a(pts)` returns (u, grad_u (nq,2), M (nq,3), eps_a (nq,3), s_a (nq,),
    theta (nq,2)) with eps_a = eps(grad u - t^2 div M) and
    s_a = div(div M + t(theta - grad u)); `gen_b` returns the analogous
    tuple for (z, Theta, tau).  Second derivatives jump across macro-element
    subtriangles, hence the explicit subdivision of the integration domain.
    Equals the edge representation for smooth arguments.
    """
    rule = quadrature.triangle_rule(quad_degree)
    total = 0.0
    for tri in subtris:
        pts, w = quadrature.map_to_triangle(rule, tri)
        u, gu, M, ea, sa, th = gen_a(pts)
        z, gz, Th, eb, sb, tau = gen_b(pts)
        frob_Me = M[:, 0] * eb[:, 0] + 2.0 * M[:, 1] * eb[:, 1] + M[:, 2] * eb[:, 2]
        frob_eT = ea[:, 0] * Th[:, 0] + 2.0 * ea[:, 1] * Th[:, 1] + ea[:, 2] * Th[:, 2]
        total += w @ (u * sb - sa * z + frob_Me - frob_eT
                      - t * np.einsum("qd,qd->q", th, gz)
                      + t * np.einsum("qd,qd->q", gu, tau))
    return total
