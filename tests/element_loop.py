"""Reference: element systems, assembly and L2 errors computed one element at a time.

These are the per-element formulas the batched code in `plate_dpg.dpg`,
`plate_dpg.driver` and `plate_dpg.manufactured` reproduces bit for bit:
every test-function feature is a zero-padded (nq, n_test) array built with
`_place`, and every loop runs in element order.  Tests compare the
package against them with `np.array_equal` and equal bytes.
"""

import numpy as np

from plate_dpg import dpg, linalg, manufactured, quadrature
from plate_dpg.hct import eval_on_parent_edge
from plate_dpg.testspace import BrokenTestBasis


class LoopKernel:
    """Tables of one triangle and its element system, one element at a time."""

    def __init__(self, coords, hct_element, layout=None, quad_degree=14):
        self.coords = np.asarray(coords, dtype=float)
        self.layout = layout if layout is not None else BrokenTestBasis()
        vol = quadrature.triangle_rule(quad_degree)
        self.vpts, self.vw = quadrature.map_to_triangle(vol, self.coords)
        val, grad, hess = self.layout.tables(self.coords, self.vpts)
        self.V = val
        self.Dx, self.Dy = grad[:, :, 0], grad[:, :, 1]
        self.Hxx, self.Hxy, self.Hyy = hess[:, :, 0], hess[:, :, 1], hess[:, :, 2]

        erule = quadrature.edge_rule(dpg.EDGE_DEGREE)
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

    def _place(self, t, comp, table):
        ns = self.layout.n_scalar
        out = np.zeros((table.shape[0], self.layout.n_test(t)))
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

    def b_field(self, t, material):
        n_field = 6 if t > 0.0 else 4
        B = np.empty((self.layout.n_test(t), n_field))
        w = self.vw
        e11, e22, e12 = self.strain_features(t)
        th = [self._place(t, 1, self.V), self._place(t, 2, self.V),
              self._place(t, 3, self.V)]
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
        ns = self.layout.n_scalar
        n_test = self.layout.n_test(t)
        B = np.zeros((n_test, dpg.N_TRACE_COLS))
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
        l = np.zeros(self.layout.n_test(t))
        l[self.layout.block(0)] = -(self.vw * f_values) @ self.V
        return l

    def system(self, t, material, f_values):
        G = self.gram(t)
        B = np.hstack([self.b_field(t, material), self.b_trace(t)])
        return dpg.ElementSystem(G, B, self.load(f_values, t))


def loop_kernels(mesh, hct_elements, config):
    """One LoopKernel per element, with the load values at its quadrature points."""
    kernels = [LoopKernel(mesh.triangle_coords(ti), hct_elements[ti],
                          BrokenTestBasis(config.test_degree), config.quad_degree)
               for ti in range(mesh.num_triangles)]
    ex = manufactured.ExactSolution(0.0)
    f_values = [ex.f(k.vpts[:, 0], k.vpts[:, 1]) for k in kernels]
    return kernels, f_values


def element_dofs(dof, ti):
    """Global dofs of one element's columns: fields, then 36 trace dofs."""
    out = np.empty(dof.n_field + dpg.N_TRACE_COLS, dtype=np.int64)
    out[: dof.n_field] = dof.n_field * ti + np.arange(dof.n_field)
    k = dof.n_field
    for tfield in range(4):
        for v in dof.mesh.triangles[ti]:
            base = dof.trace_dof(v, tfield, 0)
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
        sysm = kernels[ti].system(config.t, config.material, f_values[ti])
        A_T, b_T = dpg.local_normal_contribution(sysm)
        systems.append(sysm)
        fidx = dof.free_index[element_dofs(dof, ti)]
        keep = fidx >= 0
        sub = fidx[keep]
        A_keep = A_T[np.ix_(keep, keep)]
        rows.append(np.repeat(sub, sub.size))
        cols.append(np.tile(sub, sub.size))
        vals.append(A_keep.ravel())
        np.add.at(rhs, sub, b_T[keep])
    A = linalg.symmetric_from_coo(
        dof.n_free, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    x = np.zeros(dof.n_total)
    x[dof.free] = linalg.solve_spd(A, rhs, method=config.solver, tol=config.cg_tol)
    eta_sq = np.empty(mesh.num_triangles)
    for ti in range(mesh.num_triangles):
        eta_sq[ti] = dpg.local_residual(systems[ti], x[element_dofs(dof, ti)]) ** 2
    return A, rhs, x, np.sqrt(eta_sq)


def loop_l2_errors(mesh, u_el, M_el, theta_el, t, quad_degree=16):
    """L2 errors of elementwise constants, summed element by element."""
    ex = manufactured.ExactSolution(t)
    rule = quadrature.triangle_rule(quad_degree)
    su = sm = sth = 0.0
    for ti in range(mesh.num_triangles):
        pts, w = quadrature.map_to_triangle(rule, mesh.triangle_coords(ti))
        x, y = pts[:, 0], pts[:, 1]
        su += w @ (ex.u(x, y) - u_el[ti]) ** 2
        m11, m12, m22 = ex.M(x, y)
        sm += w @ ((m11 - M_el[ti, 0]) ** 2 + 2.0 * (m12 - M_el[ti, 1]) ** 2
                   + (m22 - M_el[ti, 2]) ** 2)
        if theta_el is not None:
            tx, ty = ex.theta(x, y)
            sth += w @ ((tx - theta_el[ti, 0]) ** 2 + (ty - theta_el[ti, 1]) ** 2)
    return np.sqrt(su), np.sqrt(sm), np.sqrt(sth)
