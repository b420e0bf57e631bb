"""Reference: element tables, systems, assembly and L2 errors one element at a time.

These are the per-element formulas the stacked code in `plate_dpg.hct`,
`plate_dpg.dpg`, `plate_dpg.driver` and `plate_dpg.manufactured`
reproduces bit for bit: the reduced HCT basis and the basis tables of
each triangle are built on their own, every test-function feature is a
zero-padded (nq, n_test) array built with `LoopKernel._place`, and every
loop runs in element order.  The condensation and the estimator go
through scipy's `cho_factor` and `cho_solve`, the trace blocks of a
stack accumulate in strided column views of zero-padded features
(`strided_b_trace`), and A is the sparse sum of
`oracles.symmetric_from_coo`.  Tests compare the package against them
with `np.array_equal` and equal bytes.
"""

from collections import namedtuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, null_space

from oracles import symmetric_from_coo
from plate_dpg import dpg, linalg, manufactured, quadrature
from plate_dpg.hct import _GRAD_S, _VALUE_S, N_DOFS
from plate_dpg.testspace import N_SCALAR, BarycentricMap, eval_scalar_basis


def _edge_points(p, q, s):
    return p[None, :] + np.outer(s, q - p)


class LoopHct:
    """The reduced HCT basis of one triangle, built with one table per constraint group."""

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        center = coords.mean(axis=0)
        self.coords = coords
        self.sub_coords = np.array(
            [[coords[k], coords[(k + 1) % 3], center] for k in range(3)]
        )
        self.sub_maps = [BarycentricMap(self.sub_coords[k]) for k in range(3)]
        rows = []

        def basis_row(sub, pts, kind):
            # (npts, 10) tables of subtriangle `sub` at `pts`
            val, grad, _ = eval_scalar_basis(self.sub_maps[sub], pts)
            if kind == "val":
                return (val,)
            return grad[:, :, 0], grad[:, :, 1]

        # C0 and C1 across internal edge (p_k, center), shared by subs k-1 and k
        for k in range(3):
            left, right = (k - 1) % 3, k
            pts_v = _edge_points(coords[k], center, _VALUE_S)
            pts_g = _edge_points(coords[k], center, _GRAD_S)
            for kind, pts in (("val", pts_v), ("grad", pts_g)):
                tabs_l = basis_row(left, pts, kind)
                tabs_r = basis_row(right, pts, kind)
                for tl, tr in zip(tabs_l, tabs_r):
                    for i in range(tl.shape[0]):
                        row = np.zeros(30)
                        row[10 * left : 10 * left + 10] = tl[i]
                        row[10 * right : 10 * right + 10] -= tr[i]
                        rows.append(row)

        # reduced condition: normal derivative affine along exterior edge k of sub k
        for k in range(3):
            p, q = coords[k], coords[(k + 1) % 3]
            d = q - p
            n = np.array([d[1], -d[0]]) / np.hypot(*d)
            pts = _edge_points(p, q, _GRAD_S)
            _, grad, _ = eval_scalar_basis(self.sub_maps[k], pts)
            gn = grad[:, :, 0] * n[0] + grad[:, :, 1] * n[1]  # (3, 10)
            row = np.zeros(30)
            row[10 * k : 10 * k + 10] = gn[1] - 0.5 * (gn[0] + gn[2])
            rows.append(row)

        A = np.array(rows)
        A /= np.linalg.norm(A, axis=1)[:, None]
        Z = null_space(A, rcond=1e-10)
        assert Z.shape[1] == N_DOFS

        # nodal matrix: value, d/dx, d/dy at each parent vertex, from sub k
        N = np.empty((N_DOFS, N_DOFS))
        for k in range(3):
            val, grad, _ = eval_scalar_basis(self.sub_maps[k], coords[k][None, :])
            N[3 * k] = val[0] @ Z[10 * k : 10 * k + 10]
            N[3 * k + 1] = grad[0, :, 0] @ Z[10 * k : 10 * k + 10]
            N[3 * k + 2] = grad[0, :, 1] @ Z[10 * k : 10 * k + 10]
        self.coeffs = (Z @ np.linalg.inv(N)).T.reshape(N_DOFS, 3, 10)

    def edge_trace(self, k, s):
        """Basis values (nq, 9) and gradients (nq, 9, 2) on exterior edge k at s."""
        pts = _edge_points(self.coords[k], self.coords[(k + 1) % 3], np.asarray(s))
        v, g, _ = eval_scalar_basis(self.sub_maps[k], pts)
        C = self.coeffs[:, k, :].T
        return v @ C, np.einsum("qbd,bj->qjd", g, C)


# the Gram matrix, trial-to-test matrix and load vector of one element
LoopSystem = namedtuple("LoopSystem", "G B l")


class LoopKernel:
    """Tables of one triangle and its element system, one element at a time."""

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=float)
        self.hct = LoopHct(self.coords)
        bary = BarycentricMap(self.coords)
        vol = quadrature.triangle_rule(dpg.QUAD_DEGREE)
        (self.vpts,), (self.vw,) = quadrature.map_to_triangles(vol, self.coords[None])
        val, grad, hess = eval_scalar_basis(bary, self.vpts)
        self.V = val
        self.Dx, self.Dy = grad[:, :, 0], grad[:, :, 1]
        self.Hxx, self.Hxy, self.Hyy = hess[:, :, 0], hess[:, :, 1], hess[:, :, 2]

        erule = quadrature.edge_rule(dpg.EDGE_DEGREE)
        self.edges = []
        for k in range(3):
            p = self.coords[k]
            q = self.coords[(k + 1) % 3]
            pts = p + np.outer(erule.points, q - p)
            we = erule.weights * np.hypot(*(q - p))
            d = q - p
            n = np.array([d[1], -d[0]]) / np.hypot(*d)
            tval, tgrad, _ = eval_scalar_basis(bary, pts)
            hval, hgrad = self.hct.edge_trace(k, erule.points)
            self.edges.append(
                dict(w=we, n=n, tv=tval, tx=tgrad[:, :, 0], ty=tgrad[:, :, 1],
                     hv=hval, hx=hgrad[:, :, 0], hy=hgrad[:, :, 1])
            )

    def table(self, name):
        """The table `name` of `dpg.ElementKernel.NAMES` for this element."""
        if hasattr(self, name):
            return getattr(self, name)
        key = {"ew": "w", "en": "n"}.get(name, name)
        return np.stack([e[key] for e in self.edges])

    def n_test(self, t):
        return dpg.n_components(t) * N_SCALAR

    def _place(self, t, comp, table):
        ns = N_SCALAR
        out = np.zeros((table.shape[0], self.n_test(t)))
        out[:, comp * ns : (comp + 1) * ns] = table
        return out

    def strain_features(self, t):
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
        s = self._place(t, 1, self.Hxx) + 2.0 * self._place(t, 2, self.Hxy) \
            + self._place(t, 3, self.Hyy)
        if t > 0.0:
            s -= t * (self._place(t, 0, self.Hxx) + self._place(t, 0, self.Hyy))
            s += t * (self._place(t, 4, self.Dx) + self._place(t, 5, self.Dy))
        return s

    def gram(self, t):
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

    def b_field(self, t):
        n_field = 6 if t > 0.0 else 4
        B = np.empty((self.n_test(t), n_field))
        w = self.vw
        e11, e22, e12 = self.strain_features(t)
        B[:, 0] = w @ self.scaled_div_feature(t)
        B[:, 1] = w @ (self._place(t, 1, self.V) + e11)
        B[:, 2] = 2.0 * (w @ (self._place(t, 2, self.V) + e12))
        B[:, 3] = w @ (self._place(t, 3, self.V) + e22)
        if t > 0.0:
            B[:, 4] = t * (w @ (self._place(t, 4, self.V) - self._place(t, 0, self.Dx)))
            B[:, 5] = t * (w @ (self._place(t, 5, self.V) - self._place(t, 0, self.Dy)))
        return B

    def b_trace(self, t):
        ns = N_SCALAR
        n_test = self.n_test(t)
        B = np.zeros((n_test, dpg.N_TRACE_COLS))
        tt = t * t
        zsl = slice(0, ns)
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
            B[:, 0:9] += (wq * qn).T @ (-hv) + (wq * Thn1).T @ hx + (wq * Thn2).T @ hy
            for c, (d1, d2, m1, m2) in enumerate(
                (
                    (hx, None, n[0] * hv, None),
                    (hy, hx, n[1] * hv, n[0] * hv),
                    (None, hy, None, n[1] * hv),
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
        l = np.zeros(self.n_test(t))
        l[: N_SCALAR] = -(self.vw * f_values) @ self.V
        return l

    def system(self, t, f_values):
        G = self.gram(t)
        B = np.hstack([self.b_field(t), self.b_trace(t)])
        return LoopSystem(G, B, self.load(f_values, t))


def cho_equilibrated_cholesky(G):
    """(cho_factor result, 1 / sqrt(diag G)) of the equilibrated G of one element."""
    diag = np.diag(G)
    # checked before the square root, which would warn on a negative entry
    if np.any(~np.isfinite(diag)) or np.any(diag <= 0.0):
        raise np.linalg.LinAlgError("Gram matrix has a non-positive diagonal")
    dinv = 1.0 / np.sqrt(diag)
    Gt = G * dinv[:, None] * dinv[None, :]
    return cho_factor(0.5 * (Gt + Gt.T), lower=True), dinv


def cho_normal_contribution(system):
    """(B^T G^{-1} B, B^T G^{-1} l) of one element through cho_factor and cho_solve."""
    cho, dinv = cho_equilibrated_cholesky(system.G)
    Bt = system.B * dinv[:, None]
    Y = cho_solve(cho, Bt)
    A = Bt.T @ Y
    b = Y.T @ (system.l * dinv)
    return 0.5 * (A + A.T), b


def cho_residual(system, x_local):
    """Test-norm magnitude of l - B x of one element through cho_factor and cho_solve."""
    cho, dinv = cho_equilibrated_cholesky(system.G)
    r = (system.l - system.B @ x_local) * dinv
    val = float(r @ cho_solve(cho, r))
    return np.sqrt(max(val, 0.0))


def strided_b_trace(k, t):
    """`dpg.b_trace` of a stack, accumulated in strided column views of one array."""
    ns = N_SCALAR
    n_test = dpg.n_test(t)
    B = np.zeros((len(k), n_test, dpg.N_TRACE_COLS))
    tt = t * t
    zsl = slice(0, ns)
    for e in range(3):
        w = k.ew[:, e, :, None]
        n0 = k.en[:, e, 0, None, None]
        n1 = k.en[:, e, 1, None, None]
        tv, tx, ty = k.tv[:, e], k.tx[:, e], k.ty[:, e]
        hv, hx, hy = k.hv[:, e], k.hx[:, e], k.hy[:, e]
        # the zero-padded full-width features of `LoopKernel.b_trace`, stacked
        dTh1, dTh2, Thn1, Thn2, zf, w1, w2 = (
            np.zeros(tv.shape[:-1] + (n_test,)) for _ in range(7))
        dTh1[..., 1 * ns : 2 * ns] = tx
        dTh1[..., 2 * ns : 3 * ns] = ty
        dTh2[..., 2 * ns : 3 * ns] = tx
        dTh2[..., 3 * ns : 4 * ns] = ty
        Thn1[..., 1 * ns : 2 * ns] = n0 * tv
        Thn1[..., 2 * ns : 3 * ns] = n1 * tv
        Thn2[..., 2 * ns : 3 * ns] = n0 * tv
        Thn2[..., 3 * ns : 4 * ns] = n1 * tv
        zf[..., zsl] = tv
        w1[..., zsl] = tx
        w2[..., zsl] = ty
        w1 -= tt * dTh1
        w2 -= tt * dTh2
        qn = n0 * dTh1 + n1 * dTh2
        if t > 0.0:
            qn[..., zsl] -= t * (n0 * tx + n1 * ty)
            qn[..., 4 * ns : 5 * ns] += t * n0 * tv
            qn[..., 5 * ns : 6 * ns] += t * n1 * tv
        qnT, Thn1T, Thn2T, zfT, w1T, w2T = (
            (w * F).transpose(0, 2, 1) for F in (qn, Thn1, Thn2, zf, w1, w2)
        )
        B[:, :, 0:9] += qnT @ (-hv) + Thn1T @ hx + Thn2T @ hy
        for c, (d1, d2, m1, m2) in enumerate(
            (
                (hx, None, n0 * hv, None),
                (hy, hx, n1 * hv, n0 * hv),
                (None, hy, None, n1 * hv),
            )
        ):
            cols = slice(9 * (c + 1), 9 * (c + 2))
            if d1 is not None:
                B[:, :, cols] += zfT @ (n0 * d1)
                B[:, :, cols] -= tt * (Thn1T @ d1)
            if d2 is not None:
                B[:, :, cols] += zfT @ (n1 * d2)
                B[:, :, cols] -= tt * (Thn2T @ d2)
            if m1 is not None:
                B[:, :, cols] -= w1T @ m1
            if m2 is not None:
                B[:, :, cols] -= w2T @ m2
    return B


def loop_kernels(mesh):
    """One LoopKernel per element, with the load values at its quadrature points."""
    kernels = [LoopKernel(mesh.vertices[mesh.triangles[ti]]) for ti in range(mesh.num_triangles)]
    ex = manufactured.ExactSolution(0.0)
    f_values = [ex.f(k.vpts[:, 0], k.vpts[:, 1]) for k in kernels]
    return kernels, f_values


def element_dofs(dof, mesh, ti):
    """Global dofs of one element's columns: fields, then 36 trace dofs."""
    out = np.empty(dof.n_field + dpg.N_TRACE_COLS, dtype=np.int64)
    out[: dof.n_field] = dof.n_field * ti + np.arange(dof.n_field)
    k = dof.n_field
    for tfield in range(4):
        for v in mesh.triangles[ti]:
            base = dof.traces[v, tfield, 0]
            out[k : k + 3] = (base, base + 1, base + 2)
            k += 3
    return out


def loop_solve(mesh, config, kernels, f_values, dof):
    """Assembly, solve and estimator element by element.

    Returns (A as a full CSC matrix, rhs, x over all dofs, eta_elements).
    """
    rows, cols, vals = [], [], []
    rhs = np.zeros(dof.n_free)
    systems = []
    for ti in range(mesh.num_triangles):
        sysm = kernels[ti].system(config.t, f_values[ti])
        A_T, b_T = cho_normal_contribution(sysm)
        systems.append(sysm)
        fidx = dof.free_index[element_dofs(dof, mesh, ti)]
        keep = fidx >= 0
        sub = fidx[keep]
        A_keep = A_T[np.ix_(keep, keep)]
        rows.append(np.repeat(sub, sub.size))
        cols.append(np.tile(sub, sub.size))
        vals.append(A_keep.ravel())
        np.add.at(rhs, sub, b_T[keep])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    lower = rows >= cols
    A = symmetric_from_coo(dof.n_free, rows[lower], cols[lower], vals[lower])
    x = np.zeros(dof.n_total)
    with linalg.spd_solver(A, config.solver) as solve:
        x[dof.free] = solve(rhs)
    eta_sq = np.empty(mesh.num_triangles)
    for ti in range(mesh.num_triangles):
        eta_sq[ti] = cho_residual(systems[ti], x[element_dofs(dof, mesh, ti)]) ** 2
    return A, rhs, x, np.sqrt(eta_sq)


def loop_l2_errors(mesh, u_el, M_el, theta_el, t):
    """L2 errors of elementwise constants, summed element by element."""
    ex = manufactured.ExactSolution(t)
    rule = quadrature.triangle_rule(manufactured.L2_QUAD_DEGREE)
    su = sm = sth = 0.0
    for ti in range(mesh.num_triangles):
        (pts,), (w,) = quadrature.map_to_triangles(rule, mesh.vertices[mesh.triangles[ti]][None])
        x, y = pts[:, 0], pts[:, 1]
        su += w @ (ex.u(x, y) - u_el[ti]) ** 2
        m11, m12, m22 = ex.M(x, y)
        sm += w @ ((m11 - M_el[ti, 0]) ** 2 + 2.0 * (m12 - M_el[ti, 1]) ** 2
                   + (m22 - M_el[ti, 2]) ** 2)
        if theta_el is not None:
            tx, ty = ex.theta(x, y)
            sth += w @ ((tx - theta_el[ti, 0]) ** 2 + (ty - theta_el[ti, 1]) ** 2)
    return np.sqrt(su), np.sqrt(sm), np.sqrt(sth)
