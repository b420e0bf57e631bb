"""Triangle meshes of the unit square with uniform red refinement.

The initial mesh splits the square into four triangles around the center
point.  Each refinement replaces every triangle by four children obtained
by connecting edge midpoints, so level k has 4**(k+1) triangles.  All
derived connectivity (edge list, the edges of each triangle, boundary
edges and vertices) is rebuilt deterministically from the triangle
array by one sort of its edge keys, never mutated incrementally.
"""

import numpy as np

from . import quadrature, testspace


class Mesh:
    """Conforming triangle mesh.

    The mesh owns float64 and int64 copies of the arrays it is given, so
    the caller's later edits of them leave it as it was checked.

    Attributes
    ----------
    vertices : ndarray (nv, 2)
        Vertex coordinates.
    triangles : ndarray (nt, 3)
        Vertex indices per triangle, counterclockwise.
    edges : ndarray (ne, 2)
        Sorted vertex pairs, in deterministic first-seen order.
    tri_edges : ndarray (nt, 3)
        Edge index of local edge k = (v_k, v_{k+1 mod 3}).
    boundary_edges : ndarray
        Indices of edges with exactly one adjacent triangle.
    boundary_vertices : ndarray
        Sorted indices of the vertices of the boundary edges.
    level : int
        Number of uniform refinements applied to the initial mesh.
    """

    def __init__(self, vertices, triangles, level=0):
        self.vertices = np.asarray(vertices)
        self.triangles = np.asarray(triangles)
        self.level = level
        self._check_arrays()
        self.triangles = self.triangles.astype(np.int64)
        self._build_edges()

    def _check_arrays(self):
        """Raise a one-line ValueError for arrays that are not a triangle mesh.

        Vertices that pass are cast to float before `testspace.triangle_gate`.
        """
        v, tri = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must have shape (nv, 2), not {v.shape}")
        # a cast to float would take "1" for 1
        if v.dtype.kind not in "iuf":
            raise ValueError(f"vertices must be integers or floats, not {v.dtype}")
        # before the cast, which warns on a long double past COORD_MAX
        if not (np.abs(v) <= testspace.COORD_MAX).all():  # NaN fails it too
            raise ValueError("vertices must be finite and at most "
                             f"{testspace.COORD_MAX:.3g} in magnitude")
        self.vertices = v = v.astype(float)
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise ValueError(f"triangles must have shape (nt, 3), not {tri.shape}")
        if len(tri) == 0:
            raise ValueError("a mesh needs at least one triangle")
        # a cast to int64 would take 1.7 for 1 and "1" for 1
        if tri.dtype.kind not in "iu":
            raise ValueError(f"vertex indices must be integers, not {tri.dtype}")
        bad = (tri < 0) | (tri >= len(v))
        if bad.any():
            raise ValueError(f"vertex index {tri[bad][0]} is outside [0, {len(v)})")
        # its 12 trace dofs would couple to nothing and make every solve singular
        if (unused := np.bincount(tri.ravel(), minlength=len(v)) == 0).any():
            raise ValueError(f"vertex {np.argmax(unused)} is in no triangle")
        testspace.triangle_gate(v[tri], 0)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def _build_edges(self):
        tails = self.triangles.ravel()                  # local edge k of triangle t at 3t + k
        heads = self.triangles[:, quadrature.NEXT].ravel()
        nv = self.num_vertices
        keys = np.minimum(tails, heads) * nv + np.maximum(tails, heads)
        sorted_keys, first, which, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        # CCW neighbours traverse their shared edge in opposite directions; every
        # first occurrence runs its own way, so a fault makes the sum exceed len(first)
        same_way = tails == tails[first[which]]
        if counts.max() > 2 or same_way.sum() > len(first):
            raise ValueError(_edge_fault(tails, heads, which, counts, same_way))
        # edge ids in first-seen order, which `refine_uniform` numbers midpoints by
        order = np.argsort(first)
        self.edges = np.stack(np.divmod(sorted_keys[order], nv), axis=1)
        self.tri_edges = np.argsort(order)[which].reshape(-1, 3)
        self.boundary_edges = np.flatnonzero(counts[order] == 1)
        self.boundary_vertices = np.unique(self.edges[self.boundary_edges])


def _edge_fault(tails, heads, which, counts, same_way):
    """The message of the first edge occurrence that is a third, or a second the same way."""
    by_edge = np.argsort(which, kind="stable")
    nth = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts, counts)
    i = by_edge[(nth > 1) | ((nth == 1) & same_way[by_edge])].min()
    a, b, *c = np.flatnonzero(which[: i + 1] == which[i]) // 3
    p, q = tails[i], heads[i]
    if c:
        return f"triangles {a}, {b} and {c[0]} share edge {min(p, q)}-{max(p, q)}"
    return f"triangles {a} and {b} overlap: both traverse edge {p}-{q} in one direction"


def signed_areas(mesh):
    """Signed area of each triangle of `mesh`, positive on a CCW one."""
    return 0.5 * quadrature.triangle_jacobians(mesh.vertices[mesh.triangles])[2]


def unit_square_initial():
    """Initial mesh: unit square split into 4 triangles around (0.5, 0.5)."""
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    triangles = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(vertices, triangles, level=0)


# the four children of triangle (a, b, c) with edge midpoints (m0, m1, m2), as
# columns of (a, b, c, m0, m1, m2): (a, m0, m2), (b, m1, m0), (c, m2, m1), (m0, m1, m2)
_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])


def refine_uniform(mesh):
    """One uniform red refinement: every triangle into four via edge midpoints.

    The midpoint of edge e becomes vertex nv + e, so vertex numbering is a
    pure function of the input mesh.
    """
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    corners = np.hstack([mesh.triangles, mesh.num_vertices + mesh.tri_edges])
    # the children of triangle t are rows 4t to 4t + 3
    return Mesh(vertices, corners[:, _CHILDREN].reshape(-1, 3), level=mesh.level + 1)


def mesh_at_level(level):
    """Unit-square mesh after `level` uniform refinements."""
    m = unit_square_initial()
    for _ in range(level):
        m = refine_uniform(m)
    return m


def write_mesh_text(mesh, stream):
    """Dump the mesh as plain text: 'v x y' per vertex, 't i j k' per triangle."""
    for x, y in mesh.vertices:
        stream.write(f"v {float(x)!r} {float(y)!r}\n")
    for i, j, k in mesh.triangles:
        stream.write(f"t {int(i)} {int(j)} {int(k)}\n")
