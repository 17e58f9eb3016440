"""Conforming triangulations with oriented edges and newest-vertex bisection.

Every edge ``F = (s_F, e_F)`` is oriented by counting, with no geometric
test: a new edge runs counterclockwise around its lower-id triangle, and an
edge that survives a refinement inherits its ``(s_F, e_F)`` pair verbatim.
``K-`` (first adjacency slot) is the triangle around which ``s_F -> e_F``
runs counterclockwise; the other, if any, is ``K+``.  As triangles are
counterclockwise, the edge's local slot and side fix the local vertex
indices, so the mesh stores neither: ``s_F, e_F`` sit at
``(slot + 1) % 3, (slot + 2) % 3`` of ``K-`` and the other way round on
``K+``.  The tangent is ``t_F = (x_e - x_s) / h_F`` and
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


def _element_geometry(vertices, triangles):
    """``(area, diam, grad_lambda)`` of the triangles; raises MeshError for
    a degenerate or clockwise one."""
    coords = np.take(vertices, triangles, axis=0)  # (nt, 3, 2)
    area2 = _area2(coords)
    if np.any(area2 <= 0.0):
        bad = int(np.argmax(area2 <= 0.0))
        raise MeshError(f"triangle {bad} is degenerate or not counterclockwise")
    # edge vectors e_l = x_{l+2} - x_{l+1} (opposite local vertex l)
    evec = np.take(coords, [2, 0, 1], axis=1) - np.take(coords, [1, 2, 0], axis=1)
    del coords
    diam = np.linalg.norm(evec, axis=2).max(axis=1)
    grad_lambda = _rot90(evec)
    del evec
    grad_lambda /= area2[:, None, None]
    return 0.5 * area2, diam, grad_lambda


def _encode(a, b, base):
    return np.minimum(a, b) * np.int64(base) + np.maximum(a, b)


def _unique_edges(triangles, nv):
    """``(ukeys, inverse, inc)``: the sorted keys of the distinct edges
    (ne,), the edge of each incidence ``t * 3 + slot`` (nt * 3,), and the
    incidences of each edge (ne, 2), lower triangle first and -1 where
    there is no second.

    One stable argsort of the incidence keys gives all three: it groups the
    incidences by edge and keeps each group in triangle order.
    """
    keys = _encode(triangles[:, [1, 2, 0]].ravel(), triangles[:, [2, 0, 1]].ravel(), nv)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    ukeys = keys[first]
    del keys
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    del new
    counts = np.diff(first, append=len(order))
    if counts.max(initial=0) > 2:
        raise MeshError("non-manifold edge (more than two adjacent triangles)")
    inc = np.full((len(first), 2), -1, dtype=np.int64)
    inc[:, 0] = order[first]
    two = np.flatnonzero(counts == 2)
    inc[two, 1] = order[first[two] + 1]
    return ukeys, inverse, inc


def _lookup(pairs, keys, nv):
    """``(pos, found)``: for each of the edge ``keys``, the index of the first
    of the vertex-id ``pairs`` (n, 2) that names that edge in either direction,
    and whether there is one.  A pair with an id outside ``[0, nv)`` names none."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if not len(pairs):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    known = ((pairs >= 0) & (pairs < nv)).all(axis=1)
    table = np.where(known, _encode(pairs[:, 0], pairs[:, 1], nv), -1)
    order = np.argsort(table, kind="stable")
    pos = order[np.minimum(np.searchsorted(table[order], keys), len(table) - 1)]
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
    edge_slot : (ne, 2) int local slot ``k`` of the edge inside ``K-`` /
        ``K+`` (-1 where there is no ``K+``); ``s_F, e_F`` are the local
        vertices ``(k + 1, k + 2) % 3`` of ``K-`` and ``(k + 2, k + 1) % 3``
        of ``K+``
    edge_normal, edge_tangent : (ne, 2) float
    edge_length : (ne,) float
    tri_edges : (nt, 3) int edge id opposite each local vertex
    tri_area, tri_diam : (nt,) float
    grad_lambda : (nt, 3, 2) float gradients of the barycentric coordinates
    vertex_label : (nv,) int vertex classification (Dirichlet wins at corners)
    tri_origin : (nt,) int or None; for a mesh made by :func:`refine`, the
        id of the parent triangle each triangle is identical to (same
        vertices in the same order, hence the same geometry bit for bit and
        the same side of each of its edges), -1 for a triangle bisection
        created; None for any other mesh

    ``boundary = (pairs, labels)`` gives vertex-id pairs (n, 2), in either
    direction, and their DIRICHLET / NEUMANN labels; every boundary edge must
    be listed.  ``inherited`` gives directed ``(s, e)`` pairs (m, 2) that fix
    the orientation of their edges.  Pairs that are not edges of this mesh
    are ignored; an edge listed twice takes its first record.  ``origin``
    becomes ``tri_origin``.
    """

    def __init__(
        self,
        vertices,
        triangles,
        tri_region,
        refinement_edge,
        boundary,
        inherited=(),
        origin=None,
    ):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        _check_arrays(vertices, triangles)
        nv, nt = len(vertices), len(triangles)

        self.vertices = vertices
        self.triangles = triangles
        self.tri_region = np.ascontiguousarray(tri_region, dtype=np.int64)
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)
        self.tri_origin = None if origin is None else np.asarray(origin, dtype=np.int64)

        self.tri_area, self.tri_diam, self.grad_lambda = _element_geometry(
            vertices, triangles
        )
        ukeys, inverse, inc = _unique_edges(triangles, nv)
        ne = len(ukeys)
        self.tri_edges = inverse.reshape(nt, 3)
        on_boundary = inc[:, 1] < 0

        label = np.zeros(ne, dtype=np.int64)
        bidx = np.flatnonzero(on_boundary)
        pos, found = _lookup(boundary[0], ukeys[bidx], nv)
        label[bidx[found]] = np.asarray(boundary[1], dtype=np.int64)[pos[found]]
        found &= np.isin(label[bidx], (DIRICHLET, NEUMANN))
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
        inherited = np.asarray(inherited, dtype=np.int64).reshape(-1, 2)
        pos, found = _lookup(inherited, ukeys, nv)
        s_ids[found] = inherited[pos[found], 0]
        e_ids[found] = inherited[pos[found], 1]
        # K- is the triangle around which s -> e runs counterclockwise
        flip = s_ids != start
        if np.any(flip & on_boundary):
            raise MeshError("inherited edge normal points out of the domain")
        inc = np.where(flip[:, None], inc[:, ::-1], inc)
        del ukeys, tri0, slot0, start, pos, found, flip
        has = inc >= 0
        self.edge_tris = np.where(has, inc // 3, -1)
        self.edge_slot = np.where(has, inc % 3, -1)

        self.edges = np.stack([s_ids, e_ids], axis=1)
        self.edge_label = label
        tangent = np.take(vertices, e_ids, axis=0) - np.take(vertices, s_ids, axis=0)
        del inc, has, s_ids, e_ids
        self.edge_length = np.linalg.norm(tangent, axis=1)
        tangent /= self.edge_length[:, None]
        self.edge_tangent = tangent
        self.edge_normal = -_rot90(tangent)  # (t_y, -t_x)

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
        return np.take(self.vertices, self.triangles, axis=0)

    def tri_edge_midpoints(self):
        """(nt, 3, 2) midpoint of the edge opposite each local vertex."""
        return self.edge_midpoints(self.tri_edges)

    def edge_midpoints(self, eids=slice(None)):
        """(..., 2) midpoints of the edges ``eids`` (default: all)."""
        v, (s, e) = self.vertices, self.edges.T
        return 0.5 * (np.take(v, s[eids], axis=0) + np.take(v, e[eids], axis=0))

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
        d = self.edge_midpoints()
        d -= np.take(self.vertices, opp, axis=0)
        d *= self.edge_normal
        out = d.sum(axis=1)
        v = self.vertices
        d = np.take(v, self.edges[:, 1], axis=0) - np.take(v, self.edges[:, 0], axis=0)
        d *= self.edge_normal
        tangential = np.abs(d.sum(axis=1))
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
    ukeys, _, inc = _unique_edges(triangles, nv)
    pairs = np.stack(np.divmod(ukeys[inc[:, 1] < 0], nv), axis=1)
    if boundary_labeler is None:
        labels = np.full(len(pairs), DIRICHLET)
    else:
        code = {DIRICHLET: DIRICHLET, NEUMANN: NEUMANN, **_CHAR_LABEL}
        labels = np.array(
            [code.get(boundary_labeler(vertices[a], vertices[b]), -1)
             for a, b in pairs],
            dtype=np.int64,
        )
    if regions is None:
        regions = np.zeros(len(triangles), dtype=np.int64)
    return Mesh(vertices, triangles, regions, ref_local, (pairs, labels))


def refine(mesh: Mesh, marked_elements) -> Mesh:
    """Newest-vertex bisection of the marked elements with conforming closure.

    Every marked element is bisected at least once; hanging nodes are
    removed by recursively bisecting neighbours.  Boundary labels, edge
    orientations of surviving edges, and coefficient regions are inherited.
    The child's ``tri_origin`` names, for each triangle, the parent triangle
    it is identical to (-1 for the triangles bisection creates): none of
    its edges was cut, so its geometry, its edges' lengths and its side of
    each edge are the parent's bit for bit, and an adaptive run carries the
    element blocks of such triangles over (see
    :class:`afemrec.basis.ElementCarry`).
    Returns ``mesh`` itself when nothing is marked; raises MeshError unless
    the marks are integer element ids of ``mesh``.
    """
    marked = np.asarray(marked_elements)
    if marked.size == 0:
        return mesh
    if marked.dtype.kind not in "iu":
        raise MeshError("marked elements must be integer element ids")
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise MeshError("marked element id out of range")

    nt, ne, nv = mesh.n_triangles, mesh.n_edges, mesh.n_vertices
    ref_edge_ids = mesh.tri_edges[np.arange(nt), mesh.refinement_edge]

    # edge id -1 names an edge that bisection creates: never cut
    cut = np.zeros(ne + 1, dtype=bool)
    cut[ref_edge_ids[marked]] = True
    for _ in range(nt + 1):
        need = cut[mesh.tri_edges].any(axis=1) & ~cut[ref_edge_ids]
        if not need.any():
            break
        cut[ref_edge_ids[need]] = True
    else:  # pragma: no cover - closure always terminates
        raise MeshError("refinement closure did not terminate")

    cut_ids = np.flatnonzero(cut)
    mid = np.full(ne + 1, -1, dtype=np.int64)
    mid[cut_ids] = nv + np.arange(len(cut_ids))
    new_vertices = np.vstack([mesh.vertices, mesh.edge_midpoints(cut_ids)])

    # surviving edges keep their (s, e) pair and label, both halves of a cut
    # boundary edge take its label, and Mesh ignores the cut edges' records
    bnd = np.flatnonzero(mesh.edge_label != INTERIOR)
    bcut = bnd[cut[bnd]]
    halves = np.column_stack([mesh.edges[bcut].T.ravel(), np.tile(mid[bcut], 2)])
    pairs = np.concatenate([mesh.edges[bnd], halves])
    labels = np.concatenate([mesh.edge_label[bnd], np.tile(mesh.edge_label[bcut], 2)])

    # the passes' temporaries are gone before the new mesh is built
    triangles, region, ref, origin = _bisect(mesh, cut, mid)
    return Mesh(new_vertices, triangles, region, ref, (pairs, labels), mesh.edges, origin)


def _bisect(mesh: Mesh, cut, mid):
    """``(triangles, region, refinement_edge, origin)`` after bisecting every
    triangle of ``mesh`` across its refinement edge while that edge is
    ``cut`` (indexed by edge id), at the vertex ``mid`` of that edge; at
    most three passes deep.

    Each triangle carries the ids of its edges in ``mesh`` (-1 for the
    edges bisection creates) and its ``origin``, the id of the triangle of
    ``mesh`` it still is (-1 once bisected).  ``(p, b, c)`` with refinement
    edge ``b-c`` becomes ``(p, b, m), (p, m, c)`` in place; their refinement
    edges ``p-b`` and ``c-p`` are edges of the parent.
    """
    verts = mesh.triangles
    region = mesh.tri_region
    ref = mesh.refinement_edge
    eids = mesh.tri_edges
    origin = np.arange(len(verts))
    for _ in range(4):
        rows = np.arange(len(verts))
        split = cut[eids[rows, ref]]
        if not split.any():
            return verts, region, ref, origin
        sp = np.flatnonzero(split)
        k = ref[sp]
        p, b, c = (verts[sp, (k + j) % 3] for j in range(3))
        m = mid[eids[sp, k]]
        e_pb, e_cp = eids[sp, (k + 2) % 3], eids[sp, (k + 1) % 3]

        verts, region, ref, eids, origin = (
            np.repeat(a, 1 + split, axis=0) for a in (verts, region, ref, eids, origin)
        )
        first = sp + np.arange(len(sp))  # the second child follows the first
        verts[first] = np.stack([p, b, m], axis=1)
        verts[first + 1] = np.stack([p, m, c], axis=1)
        ref[first], ref[first + 1] = 2, 1
        eids[first] = eids[first + 1] = -1
        origin[first] = origin[first + 1] = -1
        eids[first, 2], eids[first + 1, 1] = e_pb, e_cp
    raise MeshError("bisection pass limit exceeded")  # pragma: no cover - at most three passes


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
    try:
        nv, nt, nb = map(int, tokens[:3])
        # the counts size the arrays, so they must fit the records present
        if min(nv, nt, nb) < 0:
            raise MeshError("negative record count in the mesh header")
        tri_at, rec_at = 3 + 2 * nv, 3 + 2 * nv + 4 * nt
        if rec_at + 3 * nb > len(tokens):
            raise MeshError("truncated mesh file")
        vertices = np.array(tokens[3:tri_at], dtype=float).reshape(nv, 2)
        cells = np.array(tokens[tri_at:rec_at], dtype=np.int64).reshape(nt, 4)
        records = np.array(tokens[rec_at : rec_at + 3 * nb]).reshape(nb, 3)
        ends = records[:, :2].astype(np.int64)
        labels = [_CHAR_LABEL[c] for c in records[:, 2].tolist()]
    except KeyError as exc:
        raise MeshError(f"unknown boundary label {exc.args[0]!r}") from None
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer record beyond int64
        raise MeshError(f"malformed mesh file: {exc}") from None

    # vertex ids are preserved, so labels resolve directly by id pair
    vertices, tris, ref_local = _prepare(vertices, cells[:, :3])
    mesh = Mesh(vertices, tris, cells[:, 3], ref_local, (ends, labels))
    # every boundary edge has a label, so a count match leaves no repeated record
    if nb != mesh.n_edges - len(mesh.interior_edges):
        raise MeshError("each boundary edge needs exactly one E record")
    return mesh
