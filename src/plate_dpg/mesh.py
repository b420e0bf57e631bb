"""Triangle meshes of the unit square with uniform red refinement.

The initial mesh splits the square into four triangles around the center
point.  Each refinement replaces every triangle by four children obtained
by connecting edge midpoints, so level k has 4**(k+1) triangles.  All
derived connectivity (edge list, edge-to-triangle adjacency, boundary
tags) is rebuilt deterministically from the triangle array, never
mutated incrementally.
"""

import numpy as np

# side tags for boundary edges of the unit square
BOTTOM, RIGHT, TOP, LEFT = "bottom", "right", "top", "left"


class Mesh:
    """Conforming triangle mesh.

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
    boundary_side : dict
        Maps boundary edge index to its side tag.
    level : int
        Number of uniform refinements applied to the initial mesh.
    """

    def __init__(self, vertices, triangles, level=0):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.level = level
        self._check_arrays()
        self._build_edges()
        self._validate()

    def _check_arrays(self):
        """Raise a one-line ValueError for arrays that are not a triangle mesh."""
        v, tri = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must have shape (nv, 2), not {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise ValueError(f"triangles must have shape (nt, 3), not {tri.shape}")
        if len(tri) == 0:
            raise ValueError("a mesh needs at least one triangle")
        bad = (tri < 0) | (tri >= len(v))
        if bad.any():
            raise ValueError(f"vertex index {tri[bad][0]} is outside [0, {len(v)})")

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
        for ti, (a, b, c) in enumerate(self.triangles):
            for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
                key = (min(p, q), max(p, q))
                e = index.get(key)
                if e is None:
                    e = len(edges)
                    index[key] = e
                    edges.append(key)
                    adj.append([ti, -1])
                else:
                    if adj[e][1] != -1:
                        raise ValueError("edge shared by more than two triangles")
                    adj[e][1] = ti
                tri_edges[ti, k] = e
        self.edges = np.array(edges, dtype=np.int64)
        self.tri_edges = tri_edges
        self.edge_tris = np.array(adj, dtype=np.int64)
        self.boundary_edges = np.flatnonzero(self.edge_tris[:, 1] == -1)
        self.boundary_side = {}
        for e in self.boundary_edges:
            p, q = self.vertices[self.edges[e]]
            if p[1] == 0.0 and q[1] == 0.0:
                side = BOTTOM
            elif p[0] == 1.0 and q[0] == 1.0:
                side = RIGHT
            elif p[1] == 1.0 and q[1] == 1.0:
                side = TOP
            elif p[0] == 0.0 and q[0] == 0.0:
                side = LEFT
            else:
                side = None  # not on the unit square; BC code rejects this
            self.boundary_side[int(e)] = side
        bverts = set()
        for e in self.boundary_edges:
            bverts.update(self.edges[e])
        self.boundary_vertices = np.array(sorted(bverts), dtype=np.int64)

    def _validate(self):
        if np.any(signed_areas(self) <= 0.0):
            raise ValueError("triangle with non-positive area (orientation must be CCW)")


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def unit_square_initial():
    """Initial mesh: unit square split into 4 triangles around (0.5, 0.5)."""
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    triangles = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(vertices, triangles, level=0)


def refine_uniform(mesh):
    """One uniform red refinement: every triangle into four via edge midpoints.

    The midpoint of edge e becomes vertex nv + e, so vertex numbering is a
    pure function of the input mesh.
    """
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    children = []
    for ti, (a, b, c) in enumerate(mesh.triangles):
        m0, m1, m2 = nv + mesh.tri_edges[ti]
        children.extend([(a, m0, m2), (b, m1, m0), (c, m2, m1), (m0, m1, m2)])
    return Mesh(vertices, np.array(children, dtype=np.int64), level=mesh.level + 1)


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
