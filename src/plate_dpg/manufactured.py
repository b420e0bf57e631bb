"""Closed-form test problem on the unit square with thickness-robust errors.

The construction starts from the potential phi(x, y) = -g(x) g(y) / 3 with
g(s) = s^3 (1-s)^3.  The rotation psi = grad phi makes the shear term
vanish identically, the moment tensor M = -hess phi and the load
f = -div div M = lap^2 phi are independent of the thickness t, and the
deflection solving grad u = psi + t^2 div M is u = phi - t^2 lap phi.
Both u and the full moment trace M n vanish identically on the boundary
(g and g'' vanish at 0 and 1), so the pair satisfies the soft simply
supported conditions for every t >= 0, including the bending limit t = 0.

All factors are evaluated in factored form so the boundary zeros are
exact in floating point, and the material law is the identity.
"""

import numpy as np

from .quadrature import map_to_triangles, triangle_rule


def g0(s):
    return s**3 * (1.0 - s) ** 3


def g1(s):
    return 3.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s)


def g2(s):
    return 6.0 * s * (1.0 - s) * ((1.0 - 2.0 * s) ** 2 - s * (1.0 - s))


def g3(s):
    return 6.0 * (1.0 - 2.0 * s) * ((1.0 - 2.0 * s) ** 2 - 6.0 * s * (1.0 - s))


def g4(s):
    return -72.0 * (1.0 - 5.0 * s + 5.0 * s**2)


class ExactSolution:
    """Vectorized closed forms of the exact fields at thickness t."""

    def __init__(self, t):
        if t < 0.0:
            raise ValueError("thickness must be >= 0")
        self.t = float(t)

    def phi(self, x, y):
        return -g0(x) * g0(y) / 3.0

    def lap_phi(self, x, y):
        return -(g2(x) * g0(y) + g0(x) * g2(y)) / 3.0

    def grad_lap_phi(self, x, y):
        return (
            -(g3(x) * g0(y) + g1(x) * g2(y)) / 3.0,
            -(g2(x) * g1(y) + g0(x) * g3(y)) / 3.0,
        )

    def u(self, x, y):
        return self.phi(x, y) - self.t**2 * self.lap_phi(x, y)

    def grad_u(self, x, y):
        px, py = self.psi(x, y)
        qx, qy = self.grad_lap_phi(x, y)
        return (px - self.t**2 * qx, py - self.t**2 * qy)

    def psi(self, x, y):
        """Rotation of the bending limit: grad phi."""
        return (-g1(x) * g0(y) / 3.0, -g0(x) * g1(y) / 3.0)

    def theta(self, x, y):
        """Rotation field; coincides with grad u."""
        return self.grad_u(x, y)

    def M(self, x, y):
        """Moment tensor -hess phi as (11, 12, 22)."""
        return (
            g2(x) * g0(y) / 3.0,
            g1(x) * g1(y) / 3.0,
            g0(x) * g2(y) / 3.0,
        )

    def div_M(self, x, y):
        """Row-wise divergence of M; equals -grad lap phi."""
        qx, qy = self.grad_lap_phi(x, y)
        return (-qx, -qy)

    def f(self, x, y):
        """Transverse load -div div M = lap^2 phi; independent of t."""
        return -(g4(x) * g0(y) + 2.0 * g2(x) * g2(y) + g0(x) * g4(y)) / 3.0


def _fd_jacobian(fun, x, y, h):
    """Central differences (d/dx, d/dy) of `np.array(fun(x, y))`, a field or a tuple of them."""
    return (
        (np.array(fun(x + h, y)) - np.array(fun(x - h, y))) / (2.0 * h),
        (np.array(fun(x, y + h)) - np.array(fun(x, y - h))) / (2.0 * h),
    )


# sample points of `verify_manufactured` (interior, and boundary over the
# four sides), the seed that draws them and the finite-difference step
VERIFY_INTERIOR, VERIFY_BOUNDARY, VERIFY_SEED, VERIFY_STEP = 100, 40, 0, 1e-5


def verify_manufactured(t):
    """Finite-difference residuals of the strong equations and boundary data.

    Returns a dict of max-norm residuals: 'p1' for the equilibrium equation
    -div(div M + t(theta - grad u)) = f, 'p2' for the constitutive relation
    M + eps(grad u - t^2 div M) = 0, 'p3' for theta = grad u, plus exact
    boundary values 'bc_u' and 'bc_Mn' and an internal consistency check of
    div M against differentiated M.
    """
    ex = ExactSolution(t)
    h = VERIFY_STEP
    rng = np.random.default_rng(VERIFY_SEED)
    x, y = rng.uniform(0.05, 0.95, size=(2, VERIFY_INTERIOR))

    def shear(xx, yy):
        gx, gy = ex.grad_u(xx, yy)
        tx, ty = ex.theta(xx, yy)
        dm = ex.div_M(xx, yy)
        return dm[0] + t * (tx - gx), dm[1] + t * (ty - gy)

    (q1x, _), (_, q2y) = _fd_jacobian(shear, x, y, h)
    p1 = np.abs(-(q1x + q2y) - ex.f(x, y)).max()

    def wvec(xx, yy):
        gx, gy = ex.grad_u(xx, yy)
        dm = ex.div_M(xx, yy)
        return gx - t * t * dm[0], gy - t * t * dm[1]

    (w1x, w2x), (w1y, w2y) = _fd_jacobian(wvec, x, y, h)
    m11, m12, m22 = ex.M(x, y)
    p2 = max(
        np.abs(m11 + w1x).max(),
        np.abs(m12 + 0.5 * (w1y + w2x)).max(),
        np.abs(m22 + w2y).max(),
    )

    ux, uy = _fd_jacobian(ex.u, x, y, h)
    tx, ty = ex.theta(x, y)
    p3 = max(np.abs(tx - ux).max(), np.abs(ty - uy).max())

    (m1x, m2x, _), (_, m2y, m3y) = _fd_jacobian(ex.M, x, y, h)
    dm = ex.div_M(x, y)
    div_check = max(np.abs(m1x + m2y - dm[0]).max(), np.abs(m2x + m3y - dm[1]).max())

    s = rng.uniform(0.0, 1.0, VERIFY_BOUNDARY // 4)
    bc_u = 0.0
    bc_mn = 0.0
    for px, py, n in (
        (s, np.zeros_like(s), (0.0, -1.0)),
        (np.ones_like(s), s, (1.0, 0.0)),
        (s, np.ones_like(s), (0.0, 1.0)),
        (np.zeros_like(s), s, (-1.0, 0.0)),
    ):
        bc_u = max(bc_u, np.abs(ex.u(px, py)).max())
        m11, m12, m22 = ex.M(px, py)
        bc_mn = max(
            bc_mn,
            np.abs(m11 * n[0] + m12 * n[1]).max(),
            np.abs(m12 * n[0] + m22 * n[1]).max(),
        )
    return {"p1": p1, "p2": p2, "p3": p3, "bc_u": bc_u, "bc_Mn": bc_mn,
            "div_M_consistency": div_check}


# volume rule of `l2_errors`: the squared exact fields have degree 24 (u
# holds g0(x) g0(y), of degree 12), which no triangle rule integrates
# exactly; 16 agrees with 18 to 1e-12 relative
L2_QUAD_DEGREE = 16


def _l2_points(mesh):
    """Points (nt, nq, 2) and weights (nt, nq) of the L2_QUAD_DEGREE rule on each triangle of `mesh`."""
    return map_to_triangles(triangle_rule(L2_QUAD_DEGREE), mesh.vertices[mesh.triangles])


def l2_errors(mesh, u_el, M_el, theta_el, t):
    """L2 errors of elementwise-constant fields against the exact solution.

    The moment error uses the Frobenius norm (off-diagonal counted twice).
    At t = 0 the rotation is not a field of the system and its error is 0
    by convention.  Returns (err_u, err_M, err_theta).
    """
    ex = ExactSolution(t)
    pts, w = _l2_points(mesh)
    x, y = pts[..., 0], pts[..., 1]
    su = sum_over_elements(w, (ex.u(x, y) - u_el[:, None]) ** 2)
    m11, m12, m22 = ex.M(x, y)
    sm = sum_over_elements(w, (m11 - M_el[:, 0, None]) ** 2
                           + 2.0 * (m12 - M_el[:, 1, None]) ** 2
                           + (m22 - M_el[:, 2, None]) ** 2)
    sth = 0.0
    if theta_el is not None:
        tx, ty = ex.theta(x, y)
        sth = sum_over_elements(w, (tx - theta_el[:, 0, None]) ** 2
                                + (ty - theta_el[:, 1, None]) ** 2)
    return np.sqrt(su), np.sqrt(sm), np.sqrt(sth)


def sum_over_elements(w, values):
    """Sum over elements of w_T @ values_T: one dot product per element, rounded
    to double and added in element order (a pairwise `sum` would add in another
    order, with other bits)."""
    return np.cumsum(np.vecdot(w, values).astype(float, copy=False))[-1]


def limit_identity_error(mesh, t_sequence):
    """Largest relative error over `t_sequence` of ||u(t) - u(0)||_L2 = t^2 ||lap phi||_L2.

    The closed form has u(t) - u(0) = -t^2 lap phi.  Both sides are taken
    on the L2_QUAD_DEGREE rule of `mesh` in extended precision, because the
    difference is far below the field scale; a NaN error is returned as NaN.
    """
    pts, w = _l2_points(mesh)
    x = pts[..., 0].astype(np.longdouble)
    y = pts[..., 1].astype(np.longdouble)
    wl = w.astype(np.longdouble)
    ex_0 = ExactSolution(0.0)
    u_0 = ex_0.u(x, y)
    lap = ex_0.lap_phi(x, y)
    den = sum_over_elements(wl, lap * lap)
    ident_err = 0.0
    for t in t_sequence:
        diff = ExactSolution(t).u(x, y) - u_0
        num = sum_over_elements(wl, diff * diff)
        lhs = np.sqrt(num)
        rhs = t * t * np.sqrt(den)
        # np.maximum keeps a NaN, which max() would drop
        ident_err = np.maximum(ident_err, abs(lhs - rhs) / rhs)
    return float(ident_err)
