"""Triangle meshes of the unit square with uniform red refinement.

The initial mesh splits the square into four triangles around the center
point.  Each refinement replaces every triangle by four children obtained
by connecting edge midpoints, so level k has 4**(k+1) triangles.  All
derived connectivity (edge list, edge-to-triangle adjacency, boundary
edges and vertices) is rebuilt deterministically from the triangle
array, never mutated incrementally.
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
    edge_tris : ndarray (ne, 2)
        Adjacent triangle indices; -1 marks a missing neighbor.
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
        testspace.triangle_gate(v[tri], 0)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def _build_edges(self):
        index = {}
        edges = []
        tri_edges = np.empty((self.num_triangles, 3), dtype=np.int64)
        adj = []
        tails = []
        for ti, (a, b, c) in enumerate(self.triangles):
            for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
                key = (min(p, q), max(p, q))
                e = index.get(key)
                if e is None:
                    e = len(edges)
                    index[key] = e
                    edges.append(key)
                    adj.append([ti, -1])
                    tails.append(p)  # the vertex its first triangle leaves it from
                else:
                    if adj[e][1] != -1:
                        raise ValueError("edge shared by more than two triangles")
                    # CCW neighbours traverse their shared edge in opposite directions
                    if tails[e] == p:
                        raise ValueError(f"triangles {adj[e][0]} and {ti} overlap: both "
                                         f"traverse edge {p}-{q} in one direction")
                    adj[e][1] = ti
                tri_edges[ti, k] = e
        self.edges = np.array(edges, dtype=np.int64)
        self.tri_edges = tri_edges
        self.edge_tris = np.array(adj, dtype=np.int64)
        self.boundary_edges = np.flatnonzero(self.edge_tris[:, 1] == -1)
        self.boundary_vertices = np.unique(self.edges[self.boundary_edges])


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
