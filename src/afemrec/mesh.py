"""Conforming triangulations with oriented edges and newest-vertex bisection.

Every edge ``F = (s_F, e_F)`` is oriented by counting, with no geometric
test: a new edge runs counterclockwise around its lower-id triangle, and an
edge that survives a refinement inherits its ``(s_F, e_F)`` pair verbatim.
``K-`` (first adjacency slot) is the triangle around which ``s_F -> e_F``
runs counterclockwise; the other, if any, is ``K+``.  As triangles are
counterclockwise, the edge's local slot fixes the local vertex indices:
``s_F, e_F`` sit at ``(slot + 1) % 3, (slot + 2) % 3`` of ``K-`` and the
other way round on ``K+``.  The tangent is ``t_F = (x_e - x_s) / h_F`` and
the normal ``n_F = (t_y, -t_x)`` is the outward normal of ``K-``; both are
functions of the pair alone, so they never flip, nor change a bit, under
refinement of other elements.

Meshes are immutable after construction: all queries are read-only and safe
for concurrent use; :func:`refine` returns a new mesh.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INTERIOR",
    "DIRICHLET",
    "NEUMANN",
    "Mesh",
    "MeshError",
    "EdgePatch",
    "build_mesh",
    "edge_patch",
    "refine",
    "initial_kellogg_mesh",
    "unit_square_mesh",
    "write_mesh_text",
    "read_mesh_text",
]

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_LABEL_CHAR = {DIRICHLET: "D", NEUMANN: "N"}
_CHAR_LABEL = {"D": DIRICHLET, "N": NEUMANN}


class MeshError(ValueError):
    """Raised for invalid mesh input (non-manifold, degenerate, unlabeled)."""


def _rot90(v):
    """Rotate vectors by +90 degrees: (x, y) -> (-y, x)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _area2(coords):
    """(m,) twice the signed areas of the triangles ``coords`` (m, 3, 2)."""
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _check_arrays(vertices, triangles):
    """Shape and vertex-id checks shared by every way of making a mesh."""
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (nv, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (nt, 3) array")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
        raise MeshError("triangle references an unknown vertex")


def _lookup(table, keys):
    """``(pos, found)`` of each of ``keys`` in the sorted, nonempty ``table``."""
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return pos, table[pos] == keys


class Mesh:
    """Oriented conforming triangulation.

    Attributes
    ----------
    vertices : (nv, 2) float
    triangles : (nt, 3) int, counterclockwise
    tri_region : (nt,) int coefficient-region ids (children inherit them)
    refinement_edge : (nt,) int local index of each triangle's bisection edge
    edges : (ne, 2) int endpoint ids ``(s_F, e_F)``
    edge_label : (ne,) int, one of INTERIOR / DIRICHLET / NEUMANN
    edge_tris : (ne, 2) int ``[K-, K+]`` with ``K+ = -1`` on the boundary
    edge_slot : (ne, 2) int local slot of the edge inside ``K-`` / ``K+``
    edge_loc_s, edge_loc_e : (ne, 2) int local vertex index of ``s_F`` /
        ``e_F`` inside ``K-`` / ``K+`` (-1 where there is no ``K+``)
    edge_normal, edge_tangent : (ne, 2) float
    edge_length : (ne,) float
    tri_edges : (nt, 3) int edge id opposite each local vertex
    tri_edge_sign : (nt, 3) int, +1 where the triangle is ``K-``
    tri_area, tri_diam : (nt,) float
    grad_lambda : (nt, 3, 2) float gradients of the barycentric coordinates
    vertex_label : (nv,) int vertex classification (Dirichlet wins at corners)

    ``label_of_key`` is the boundary-label table ``(keys, labels)``: sorted
    edge keys ``min(a, b) * nv + max(a, b)`` of vertex-id pairs and their
    DIRICHLET / NEUMANN labels.  Every boundary edge must be listed.
    """

    def __init__(
        self,
        vertices,
        triangles,
        tri_region,
        refinement_edge,
        label_of_key,
        orient_table=None,
    ):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        _check_arrays(vertices, triangles)
        nv, nt = len(vertices), len(triangles)

        self.vertices = vertices
        self.triangles = triangles
        self.tri_region = np.ascontiguousarray(tri_region, dtype=np.int64)
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)

        coords = vertices[triangles]  # (nt, 3, 2)
        area2 = _area2(coords)
        if np.any(area2 <= 0.0):
            bad = int(np.argmax(area2 <= 0.0))
            raise MeshError(f"triangle {bad} is degenerate or not counterclockwise")
        self.tri_area = 0.5 * area2

        # edge vectors e_l = x_{l+2} - x_{l+1} (opposite local vertex l)
        evec = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
        elen = np.linalg.norm(evec, axis=2)
        self.tri_diam = elen.max(axis=1)
        self.grad_lambda = _rot90(evec) / area2[:, None, None]

        # deduplicate edges
        keys = _encode(triangles[:, [1, 2, 0]].ravel(), triangles[:, [2, 0, 1]].ravel(), nv)
        ukeys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        if counts.max(initial=0) > 2:
            raise MeshError("non-manifold edge (more than two adjacent triangles)")
        ne = len(ukeys)
        self.tri_edges = inverse.reshape(nt, 3)

        # incidences t * 3 + slot grouped by edge: the stable sort lists the
        # lower-id triangle of every edge first
        order = np.argsort(inverse, kind="stable")
        first = np.searchsorted(inverse[order], np.arange(ne))
        two = counts == 2
        boundary = ~two
        inc = np.full((ne, 2), -1, dtype=np.int64)
        inc[:, 0] = order[first]
        inc[two, 1] = order[first[two] + 1]

        # labels: the sorted (keys, labels) table is keyed like ukeys
        label = np.zeros(ne, dtype=np.int64)
        bidx = np.flatnonzero(boundary)
        lkeys, lvals = label_of_key
        found = np.zeros(len(bidx), dtype=bool)
        if len(lkeys):
            pos, found = _lookup(lkeys, ukeys[bidx])
            found &= np.isin(lvals[pos], (DIRICHLET, NEUMANN))
            label[bidx] = lvals[pos]
        if not found.all():
            miss = bidx[np.flatnonzero(~found)[0]]
            a, b = divmod(int(ukeys[miss]), nv)
            raise MeshError(f"boundary edge ({a}, {b}) has no D/N label")
        if not np.any(label == DIRICHLET):
            raise MeshError("the Dirichlet boundary set must be nonempty")

        # orientation by counting: a new edge runs counterclockwise around
        # its lower-id triangle; an inherited (s, e) pair wins
        tri0, slot0 = np.divmod(inc[:, 0], 3)
        start = triangles[tri0, (slot0 + 1) % 3]
        s_ids = start.copy()
        e_ids = triangles[tri0, (slot0 + 2) % 3]
        if orient_table is not None and len(orient_table[0]):
            okeys, os_, oe_ = orient_table
            pos, found = _lookup(okeys, ukeys)
            s_ids[found] = os_[pos[found]]
            e_ids[found] = oe_[pos[found]]
        # K- is the triangle around which s -> e runs counterclockwise
        flip = s_ids != start
        if np.any(flip & boundary):
            raise MeshError("inherited edge normal points out of the domain")
        inc = np.where(flip[:, None], inc[:, ::-1], inc)
        has = inc >= 0
        self.edge_tris = np.where(has, inc // 3, -1)
        self.edge_slot = np.where(has, inc % 3, -1)
        # s, e follow the edge slot counterclockwise on K-, clockwise on K+
        self.edge_loc_s = np.where(has, (self.edge_slot + [1, 2]) % 3, -1)
        self.edge_loc_e = np.where(has, (self.edge_slot + [2, 1]) % 3, -1)

        self.edges = np.stack([s_ids, e_ids], axis=1)
        self.edge_label = label
        s_to_e = vertices[e_ids] - vertices[s_ids]
        self.edge_length = np.linalg.norm(s_to_e, axis=1)
        self.edge_tangent = s_to_e / self.edge_length[:, None]
        self.edge_normal = -_rot90(self.edge_tangent)  # (t_y, -t_x)

        sign = np.where(
            self.edge_tris[self.tri_edges, 0] == np.arange(nt)[:, None], 1, -1
        )
        self.tri_edge_sign = sign.astype(np.int64)

        vlabel = np.zeros(nv, dtype=np.int64)
        neu = self.edges[label == NEUMANN]
        vlabel[neu.ravel()] = NEUMANN
        dir_ = self.edges[label == DIRICHLET]
        vlabel[dir_.ravel()] = DIRICHLET
        self.vertex_label = vlabel

        self._check_orientation_invariant()

    # -- basic sizes ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    # -- index sets ------------------------------------------------------

    @property
    def interior_edges(self):
        return np.flatnonzero(self.edge_label == INTERIOR)

    @property
    def dirichlet_edges(self):
        return np.flatnonzero(self.edge_label == DIRICHLET)

    @property
    def neumann_edges(self):
        return np.flatnonzero(self.edge_label == NEUMANN)

    @property
    def interior_vertices(self):
        return np.flatnonzero(self.vertex_label == INTERIOR)

    @property
    def dirichlet_vertices(self):
        return np.flatnonzero(self.vertex_label == DIRICHLET)

    @property
    def neumann_vertices(self):
        return np.flatnonzero(self.vertex_label == NEUMANN)

    # -- geometry helpers -------------------------------------------------

    def tri_coords(self):
        """(nt, 3, 2) vertex coordinates per triangle."""
        return self.vertices[self.triangles]

    def tri_edge_midpoints(self):
        """(nt, 3, 2) midpoint of the edge opposite each local vertex."""
        c = self.tri_coords()
        return 0.5 * (c[:, [1, 2, 0]] + c[:, [2, 0, 1]])

    def edge_midpoints(self):
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    def tri_barycenters(self):
        return self.tri_coords().mean(axis=1)

    def eval_vertex_field(self, C, tris, points) -> np.ndarray:
        """Values ``sum_v lambda_v(p) C[t, v]`` of a field in vertex-vector
        form ``C`` (nt, 3, 2) on triangles ``tris`` (m,) at physical
        ``points`` (m, 2)."""
        x = self.vertices[self.triangles[tris]]
        lam = 1.0 + np.einsum("mvd,mvd->mv", self.grad_lambda[tris], points[:, None] - x)
        return np.einsum("mv,mvx->mx", lam, C[tris])

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles (radians)."""
        c = self.tri_coords()
        angles = []
        for l in range(3):
            u = c[:, (l + 1) % 3] - c[:, l]
            v = c[:, (l + 2) % 3] - c[:, l]
            cosv = (u * v).sum(axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angles.append(np.arccos(np.clip(cosv, -1.0, 1.0)))
        return float(np.min(angles))

    def __repr__(self):
        return (
            f"Mesh({self.n_vertices} vertices, {self.n_triangles} triangles, "
            f"{self.n_edges} edges)"
        )

    def _check_orientation_invariant(self):
        """Outward normal of K- must equal n_F on every edge (to 1e-13)."""
        km = self.edge_tris[:, 0]
        opp = self.triangles[km, self.edge_slot[:, 0]]
        mid = self.edge_midpoints()
        out = ((mid - self.vertices[opp]) * self.edge_normal).sum(axis=1)
        evec = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        tangential = np.abs((evec * self.edge_normal).sum(axis=1))
        unit = np.abs((self.edge_normal**2).sum(axis=1) - 1.0)
        if (
            np.any(out <= 0.0)
            or np.any(tangential > 1e-13 * self.edge_length)
            or np.any(unit > 1e-13)
        ):
            raise MeshError("edge normal does not match the outward normal of K-")


class EdgePatch:
    """The one- or two-element patch of an edge.

    ``elements`` lists ``K-`` (and ``K+`` for interior edges);
    ``boundary_edges`` are the patch-boundary edges, excluding the edge
    itself, in slot order per element.
    """

    def __init__(self, edge: int, elements, boundary_edges):
        self.edge = int(edge)
        self.elements = tuple(int(t) for t in elements)
        self.boundary_edges = tuple(int(e) for e in boundary_edges)

    def __repr__(self):
        return (
            f"EdgePatch(edge={self.edge}, elements={self.elements}, "
            f"boundary_edges={self.boundary_edges})"
        )


def edge_patch(mesh: Mesh, F: int) -> EdgePatch:
    """Patch data of edge ``F``: adjacent elements and surrounding edges."""
    if not 0 <= F < mesh.n_edges:
        raise MeshError(f"edge id {F} out of range")
    elements = [t for t in mesh.edge_tris[F] if t >= 0]
    boundary = [
        int(e)
        for t in elements
        for e in mesh.tri_edges[t]
        if e != F
    ]
    return EdgePatch(F, elements, boundary)


def _encode(a, b, base):
    return np.minimum(a, b) * np.int64(base) + np.maximum(a, b)


def _prepare(vertices, triangles):
    """Input step shared by :func:`build_mesh` and :func:`read_mesh_text`.

    Checks the array shapes and vertex ids, flips clockwise triangles to
    counterclockwise and takes each triangle's longest edge as its initial
    bisection edge.  Returns ``(vertices, triangles, refinement_edge)``.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.array(triangles, dtype=np.int64)
    _check_arrays(vertices, triangles)

    area2 = _area2(vertices[triangles])
    if np.any(area2 == 0.0):
        raise MeshError(f"triangle {int(np.argmax(area2 == 0.0))} has zero area")
    flip = area2 < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    coords = vertices[triangles]
    evec = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
    ref_local = np.linalg.norm(evec, axis=2).argmax(axis=1)
    return vertices, triangles, ref_local


def build_mesh(vertices, triangles, boundary_labeler=None, regions=None) -> Mesh:
    """Build a mesh from raw vertex/triangle arrays.

    Triangles may come in either orientation; they are flipped to
    counterclockwise.  ``boundary_labeler(pa, pb)`` receives the endpoint
    coordinates of a boundary edge and must return ``'D'`` or ``'N'``
    (default: everything Dirichlet).  ``regions`` assigns per-triangle
    coefficient-region ids (default all zero).  The initial bisection edge
    of each triangle is its longest edge.
    """
    vertices, triangles, ref_local = _prepare(vertices, triangles)
    nv = len(vertices)
    keys = _encode(triangles[:, [1, 2, 0]].ravel(), triangles[:, [2, 0, 1]].ravel(), nv)
    ukeys, counts = np.unique(keys, return_counts=True)
    bkeys = ukeys[counts == 1]
    if boundary_labeler is None:
        labels = np.full(len(bkeys), DIRICHLET)
    else:
        code = {DIRICHLET: DIRICHLET, NEUMANN: NEUMANN, **_CHAR_LABEL}
        labels = np.array(
            [code.get(boundary_labeler(vertices[k // nv], vertices[k % nv]), -1)
             for k in bkeys],
            dtype=np.int64,
        )
    if regions is None:
        regions = np.zeros(len(triangles), dtype=np.int64)
    return Mesh(vertices, triangles, regions, ref_local, (bkeys, labels))


def refine(mesh: Mesh, marked_elements) -> Mesh:
    """Newest-vertex bisection of the marked elements with conforming closure.

    Every marked element is bisected at least once; hanging nodes are
    removed by recursively bisecting neighbours.  Boundary labels, edge
    orientations of surviving edges, and coefficient regions are inherited.
    Returns ``mesh`` itself when nothing is marked.
    """
    marked = np.unique(np.asarray(marked_elements, dtype=np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise MeshError("marked element id out of range")

    nt, ne, nv = mesh.n_triangles, mesh.n_edges, mesh.n_vertices
    ref_edge_ids = mesh.tri_edges[np.arange(nt), mesh.refinement_edge]

    cut = np.zeros(ne, dtype=bool)
    cut[ref_edge_ids[marked]] = True
    for _ in range(nt + 1):
        need = cut[mesh.tri_edges].any(axis=1) & ~cut[ref_edge_ids]
        if not need.any():
            break
        cut[ref_edge_ids[need]] = True
    else:  # pragma: no cover - closure always terminates
        raise MeshError("refinement closure did not terminate")

    cut_ids = np.flatnonzero(cut)
    mid_of_cut = nv + np.arange(len(cut_ids), dtype=np.int64)
    midpoints = mesh.edge_midpoints()[cut_ids]
    new_vertices = np.vstack([mesh.vertices, midpoints])
    nv_new = len(new_vertices)

    cut_keys = _encode(mesh.edges[cut_ids, 0], mesh.edges[cut_ids, 1], nv_new)
    key_order = np.argsort(cut_keys)
    cut_keys_sorted = cut_keys[key_order]
    mid_sorted = mid_of_cut[key_order]

    # label inheritance: surviving boundary edges and halves of cut ones
    bnd = np.flatnonzero(mesh.edge_label != INTERIOR)
    bkeep = bnd[~cut[bnd]]
    bcut = bnd[cut[bnd]]
    mid_b = mid_of_cut[np.searchsorted(cut_ids, bcut)]
    lkeys = np.concatenate(
        [
            _encode(mesh.edges[bkeep, 0], mesh.edges[bkeep, 1], nv_new),
            _encode(mesh.edges[bcut, 0], mid_b, nv_new),
            _encode(mesh.edges[bcut, 1], mid_b, nv_new),
        ]
    )
    lvals = np.concatenate(
        [mesh.edge_label[bkeep], mesh.edge_label[bcut], mesh.edge_label[bcut]]
    )
    lorder = np.argsort(lkeys)
    label_table = (lkeys[lorder], lvals[lorder])

    # surviving edges keep their (s, e) pair
    kept = mesh.edges[~cut]
    okeys = _encode(kept[:, 0], kept[:, 1], nv_new)
    oorder = np.argsort(okeys)
    orient_table = (okeys[oorder], kept[oorder, 0], kept[oorder, 1])

    verts = mesh.triangles
    region = mesh.tri_region
    ref = mesh.refinement_edge
    for _ in range(4):
        rows = np.arange(len(verts))
        i1 = (ref + 1) % 3
        i2 = (ref + 2) % 3
        b = verts[rows, i1]
        c = verts[rows, i2]
        pos, split = _lookup(cut_keys_sorted, _encode(b, c, nv_new))
        if not split.any():
            break
        m = mid_sorted[pos]
        p = verts[rows, ref]

        counts = 1 + split.astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        out_n = int(counts.sum())
        new_verts = np.empty((out_n, 3), dtype=np.int64)
        new_region = np.empty(out_n, dtype=np.int64)
        new_ref = np.empty(out_n, dtype=np.int64)

        keep = ~split
        new_verts[starts[keep]] = verts[keep]
        new_region[starts[keep]] = region[keep]
        new_ref[starts[keep]] = ref[keep]

        sp = np.flatnonzero(split)
        child1 = np.stack([p[sp], b[sp], m[sp]], axis=1)
        child2 = np.stack([p[sp], m[sp], c[sp]], axis=1)
        new_verts[starts[sp]] = child1
        new_verts[starts[sp] + 1] = child2
        new_region[starts[sp]] = region[sp]
        new_region[starts[sp] + 1] = region[sp]
        new_ref[starts[sp]] = 2
        new_ref[starts[sp] + 1] = 1

        verts, region, ref = new_verts, new_region, new_ref
    else:  # pragma: no cover - at most three bisection passes are possible
        raise MeshError("bisection pass limit exceeded")

    return Mesh(new_vertices, verts, region, ref, label_table, orient_table)


def _structured_square(n, lo, hi):
    """Criss-cross-free n x n grid of the square [lo, hi]^2, diagonals SW-NE."""
    xs = np.linspace(lo, hi, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    return vertices, np.array(tris, dtype=np.int64)


def initial_kellogg_mesh(n: int) -> Mesh:
    """Uniform n x n mesh of (-1, 1)^2 with the axes as mesh lines.

    Each cell is split along its SW-NE diagonal; the per-triangle region id
    is the quadrant code ``(x > 0) + 2 * (y > 0)`` of the barycenter, so the
    four coefficient regions of the checkerboard benchmark are resolved
    exactly.  ``n`` must be even (odd n would put cells across the axes).
    All boundary edges are Dirichlet.
    """
    if n < 2 or n % 2 != 0:
        raise MeshError("n must be an even integer >= 2")
    vertices, tris = _structured_square(n, -1.0, 1.0)
    bary = vertices[tris].mean(axis=1)
    regions = (bary[:, 0] > 0).astype(np.int64) + 2 * (bary[:, 1] > 0)
    return build_mesh(vertices, tris, regions=regions)


def unit_square_mesh(n: int, boundary_labeler=None) -> Mesh:
    """Uniform n x n mesh of the unit square (0, 1)^2."""
    if n < 1:
        raise MeshError("n must be a positive integer")
    vertices, tris = _structured_square(n, 0.0, 1.0)
    return build_mesh(vertices, tris, boundary_labeler=boundary_labeler)


def write_mesh_text(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format.

    Line 1 holds ``V T E`` (vertex, triangle, and boundary-edge record
    counts), followed by ``V`` lines ``x y``, ``T`` lines
    ``v0 v1 v2 region_id`` and ``E`` lines ``va vb label`` with label D or N.
    """
    bnd = np.flatnonzero(mesh.edge_label != INTERIOR)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles} {len(bnd)}\n")
        _write_rows(fh, "%.17g %.17g\n", mesh.vertices)
        _write_rows(fh, "%d %d %d %d\n", np.column_stack([mesh.triangles, mesh.tri_region]))
        labels = [_LABEL_CHAR[lab] for lab in mesh.edge_label[bnd].tolist()]
        _write_rows(fh, "%d %d %s\n", mesh.edges[bnd], labels)


_ROW_CHUNK = 4096


def _write_rows(fh, template: str, rows: np.ndarray, tags=None) -> None:
    """Write ``template % (*row, tag)`` for each row of ``rows`` (n, k), with
    ``tags`` an optional list of n trailing strings.

    Rows are converted and formatted a chunk at a time, so no list of every
    line is ever held.
    """
    for lo in range(0, len(rows), _ROW_CHUNK):
        chunk = rows[lo : lo + _ROW_CHUNK].tolist()
        if tags is None:
            fh.write("".join([template % tuple(r) for r in chunk]))
        else:
            part = tags[lo : lo + _ROW_CHUNK]
            fh.write("".join([template % (*r, t) for r, t in zip(chunk, part)]))


def read_mesh_text(path) -> Mesh:
    """Read the plain-text mesh format written by :func:`write_mesh_text`."""
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)
    try:
        nv, nt, nb = int(next(it)), int(next(it)), int(next(it))
        vertices = np.array(
            [[float(next(it)), float(next(it))] for _ in range(nv)]
        )
        tris = np.empty((nt, 3), dtype=np.int64)
        regions = np.empty(nt, dtype=np.int64)
        for t in range(nt):
            tris[t] = [int(next(it)), int(next(it)), int(next(it))]
            regions[t] = int(next(it))
        labels = {}
        for _ in range(nb):
            a, b = int(next(it)), int(next(it))
            lab = next(it)
            if lab not in _CHAR_LABEL:
                raise MeshError(f"unknown boundary label {lab!r}")
            if not (0 <= a < nv and 0 <= b < nv):
                raise MeshError(f"boundary edge ({a}, {b}) references an unknown vertex")
            labels[int(_encode(a, b, nv))] = _CHAR_LABEL[lab]
    except StopIteration:
        raise MeshError("truncated mesh file") from None
    except ValueError as exc:
        raise MeshError(f"malformed mesh file: {exc}") from None

    # vertex ids are preserved, so labels resolve directly by id pair
    vertices, tris, ref_local = _prepare(vertices, tris)
    lkeys = np.array(sorted(labels), dtype=np.int64)
    lvals = np.array([labels[k] for k in lkeys], dtype=np.int64)
    return Mesh(vertices, tris, regions, ref_local, (lkeys, lvals))
