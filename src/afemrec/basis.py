"""Local triangle bases and exact local integration.

Provides the lowest-order edge-based vector elements used by the flux and
gradient recoveries (RT, BDM first kind in H(div); NE, ND Nedelec first and
second kind in H(curl)), together with the scalar P1 and Crouzeix-Raviart
bases, exact integration of barycentric monomials, and exact weighted mass
entries for piecewise-constant coefficient tensors.

Conventions on a counterclockwise triangle with vertices ``x0, x1, x2``:

* edge ``k`` is opposite vertex ``k`` and runs from vertex ``(k+1) % 3``
  (its *start*, 's') to vertex ``(k+2) % 3`` (its *end*, 'e'),
* ``n_k`` is the unit outward normal on edge ``k`` and ``t_k = rot90(n_k)``
  points from start to end,
* ``H_k = 2|K| / h_k`` is the height over edge ``k``.

With these conventions the vector bases satisfy the duality relations

* ``rt_k . n_l = delta_kl`` on edge ``l``,
* ``bdm_{v,k} . n_k = lambda_v`` on edge ``k`` (zero normal trace elsewhere),
* ``ne_k . t_l = delta_kl`` on edge ``l``,
* ``nd_{s,k} . t_k = lambda_s`` and ``nd_{e,k} . t_k = -lambda_e`` on edge
  ``k`` (zero tangential trace elsewhere),

and the decompositions ``rt_k = bdm_{s,k} + bdm_{e,k}`` and
``ne_k = nd_{s,k} - nd_{e,k}`` hold pointwise.

This module is the single home of the vertex-vector forms and of the exact
weighted Gram integrals: ``_side_table`` builds an edge family on both sides
of every edge, ``_accumulate_vertex_vectors`` sums it into one field per
element (the mixed flux and the recovered fields alike), ``_weighted_gram``
gives the Gram blocks and ``_weighted_norm_sq`` the element indicators; the
per-frame functions below are thin wrappers of them.  ``ElementCarry`` holds
the element blocks an adaptive run reuses for the triangles refinement kept,
and ``_fill_rows`` computes the others.

All functions here are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshError, _element_geometry, _rot90

__all__ = [
    "LocalTriangleFrame",
    "LocalBasisId",
    "eval_local_basis",
    "barycentric_integral",
    "weighted_mass_entry",
    "basis_vertex_vectors",
    "TRI_QUAD_BARY",
    "TRI_QUAD_WEIGHTS",
]

FLUX_FAMILIES = ("rt", "bdm")  # H(div)
GRADIENT_FAMILIES = ("ne", "nd")  # H(curl)
VECTOR_FAMILIES = FLUX_FAMILIES + GRADIENT_FAMILIES
SCALAR_FAMILIES = ("p1", "cr")

# 7-point, degree-5 triangle rule (barycentric points, weights sum to 1).
_A = (6.0 + math.sqrt(15.0)) / 21.0
_B = (6.0 - math.sqrt(15.0)) / 21.0
_WA = (155.0 + math.sqrt(15.0)) / 1200.0
_WB = (155.0 - math.sqrt(15.0)) / 1200.0
TRI_QUAD_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2.0 * _A, _A, _A],
        [_A, 1.0 - 2.0 * _A, _A],
        [_A, _A, 1.0 - 2.0 * _A],
        [1.0 - 2.0 * _B, _B, _B],
        [_B, 1.0 - 2.0 * _B, _B],
        [_B, _B, 1.0 - 2.0 * _B],
    ]
)
TRI_QUAD_WEIGHTS = np.array([9.0 / 40.0, _WA, _WA, _WA, _WB, _WB, _WB])


class BasisError(ValueError):
    """Invalid basis request (bad id, point outside triangle, bad weight)."""


@dataclass(frozen=True)
class LocalTriangleFrame:
    """Geometry of one counterclockwise triangle.

    Attributes
    ----------
    x : (3, 2) vertex coordinates.
    grad_lambda : (3, 2) gradients of the barycentric coordinates.
    area : triangle area (strictly positive).
    edge_length : (3,) lengths ``h_k`` of the edges opposite each vertex.
    height : (3,) heights ``H_k = 2 * area / h_k``.
    normal : (3, 2) unit outward normals ``n_k``.
    tangent : (3, 2) unit tangents ``t_k = rot90(n_k)`` (start to end).
    """

    x: np.ndarray
    grad_lambda: np.ndarray = field(repr=False)
    area: float = 0.0
    edge_length: np.ndarray = field(default=None, repr=False)
    height: np.ndarray = field(default=None, repr=False)
    normal: np.ndarray = field(default=None, repr=False)
    tangent: np.ndarray = field(default=None, repr=False)

    @staticmethod
    def from_vertices(p0, p1, p2) -> "LocalTriangleFrame":
        x = np.array([p0, p1, p2], dtype=float)
        try:
            (area,), _, (grad,) = _element_geometry(x, np.array([[0, 1, 2]]))
        except MeshError:
            raise BasisError("triangle is not counterclockwise or is degenerate") from None
        # the edge opposite vertex k runs from vertex k + 1 to vertex k + 2
        h = np.linalg.norm(x[[2, 0, 1]] - x[[1, 2, 0]], axis=1)
        normal = -grad / np.linalg.norm(grad, axis=1)[:, None]
        return LocalTriangleFrame(
            x=x,
            grad_lambda=grad,
            area=float(area),
            edge_length=h,
            height=2.0 * area / h,
            normal=normal,
            tangent=_rot90(normal),
        )

    def barycentric(self, point) -> np.ndarray:
        """Barycentric coordinates of a point (affine, exact)."""
        p = np.asarray(point, dtype=float)
        lam0 = 1.0 + self.grad_lambda[0] @ (p - self.x[0])
        lam1 = 1.0 + self.grad_lambda[1] @ (p - self.x[1])
        return np.array([lam0, lam1, 1.0 - lam0 - lam1])

    def edge_start(self, k: int) -> int:
        return _side_ends(k, 0)[0]

    def edge_end(self, k: int) -> int:
        return _side_ends(k, 0)[1]


@dataclass(frozen=True)
class LocalBasisId:
    """Identifies one local basis function.

    ``family`` is one of ``rt, bdm, ne, nd, p1, cr``; ``edge`` is the local
    edge index (for p1 it is the vertex index).  BDM and ND carry an
    ``endpoint`` tag ('s' or 'e'); the other families must not.
    """

    family: str
    edge: int
    endpoint: str | None = None

    def __post_init__(self):
        fam = self.family
        if fam not in VECTOR_FAMILIES + SCALAR_FAMILIES:
            raise BasisError(f"unknown family {fam!r}")
        if self.edge not in (0, 1, 2):
            raise BasisError("local edge index must be 0, 1 or 2")
        if fam in ("bdm", "nd"):
            if self.endpoint not in ("s", "e"):
                raise BasisError(f"{fam} basis needs endpoint 's' or 'e'")
        elif self.endpoint is not None:
            raise BasisError(f"{fam} basis carries no endpoint")


def _side_ends(k, side):
    """Local vertex indices ``(s, e)`` of the ends of the edge in local slot
    ``k`` on side ``side`` of it: counterclockwise on ``K-`` (side 0), as in
    the conventions above, and the other way round on ``K+`` (side 1)."""
    return (k + 1 + side) % 3, (k + 2 - side) % 3


def _vertex_vectors(family, k, side, h, area, point, grad):
    """Batched vertex-coefficient form of the edge bases of ``m`` triangles.

    Each triangle contributes the basis of the edge opposite its local vertex
    ``k``, seen from side ``side`` of that edge (0 for ``K-``, 1 for ``K+``):
    it runs between the ends of :func:`_side_ends`, and a flux dof, which
    measures the ``K-`` outward normal, changes sign on ``K+``.  ``point(v)``
    gives the (m, 2) coordinates of local vertex ``v`` (m,) of each triangle
    and ``grad(v)`` its barycentric gradient; the flux families read only
    the points, the gradient families only the gradients.  ``h`` and
    ``area`` (m,) are the edge length and triangle area.
    Returns ``C`` of shape (m, ndof, 3, 2) with the dof-``d`` field
    ``sum_v lambda_v C[:, d, v]``; ``ndof`` is 1 for rt/ne and 2 (endpoint
    s, then e) for bdm/nd.
    """
    m = len(k)
    s, e = _side_ends(k, side)
    ndof = 1 if family in ("rt", "ne") else 2
    if family in FLUX_FAMILIES:
        # (x - x_k) / H_k restricted to the two edge vertices
        H = 2.0 * area / h
        sign = -1.0 if side else 1.0
        xk = point(k)
        cs = sign * (point(s) - xk) / H[:, None]
        ce = sign * (point(e) - xk) / H[:, None]
    else:
        # ne = h_k (lambda_s grad lambda_e - lambda_e grad lambda_s); nd keeps
        # the two terms apart, both with a plus sign
        hk = h[:, None]
        cs = hk * grad(e)
        ce = (-hk if family == "ne" else hk) * grad(s)
    C = np.zeros((m, ndof, 3, 2))
    # C[i, 0, s[i]] = cs[i] and C[i, ndof - 1, e[i]] = ce[i], each (x, y)
    # pair moved as one complex item, which numpy scatters much faster
    # than a row of two floats
    pairs = C.view(np.complex128).reshape(-1)
    first = np.arange(m) * (3 * ndof)
    pairs[first + s] = cs.view(np.complex128)[:, 0]
    pairs[first + 3 * (ndof - 1) + e] = ce.view(np.complex128)[:, 0]
    return C


# rows per block of the edge- and element-wise kernels that would otherwise
# gather several full-size temporaries at once
BLOCK = 4096


def _blocks(n):
    """Slices covering ``range(n)`` in order, each of at least ``BLOCK``
    rows (one slice if ``n`` is smaller) and fewer than ``2 * BLOCK``.

    Only for ``n = 1`` does a block have a single row, for which matmul
    may take another path and round differently; otherwise the kernels
    blocked here give every row the bits of the unblocked call.
    :func:`_fill_rows`, which computes any subset of rows, computes a lone
    row as a pair.
    """
    bounds = [*range(0, max(n - BLOCK, 1), BLOCK), n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fill_rows(out, rows, kernel, at=None):
    """Set ``out[at[rows]] = kernel(rows)`` (``out[rows]`` when ``at`` is
    None) for the index array ``rows``, a block of rows at a time.

    The kernels round each row alike in any batch of two or more rows, so
    a row has the bits of the whole computation, whichever rows are
    computed with it; a lone row is computed as a pair.
    """
    if len(rows) == 1:
        rows = np.repeat(rows, 2)
    for b in _blocks(len(rows)):
        out[rows[b] if at is None else at[rows[b]]] = kernel(rows[b])


class ElementCarry:
    """Element blocks of one adaptive iteration that the next one reuses.

    The P1 stiffness blocks and, per local slot, the side Gram blocks of a
    recovery family depend only on a triangle's geometry and coefficient
    tensor.  A triangle that :func:`afemrec.mesh.refine` kept (its
    ``tri_origin``) has its parent's geometry and sides bit for bit, so
    where its tensor row is also bitwise equal to its parent's, its blocks
    are its parent's.  :meth:`advance` gathers those for the new mesh, and
    :meth:`blocks` hands each kernel its array with the triangles left to
    compute.  With nothing carried every block is computed, so a fresh
    computation is the same path.

    One carry serves one adaptive run; :meth:`advance` moves it to the next
    mesh, which must be the refinement of the previous one.  It holds one
    mesh's blocks and tensor rows at a time.
    """

    def __init__(self):
        self._tensor = None  # coefficient tensor rows of the current mesh
        self._blocks = {}  # the current mesh's blocks, by name
        self._carried = None  # (nt,) bool, the triangles whose blocks are carried

    def advance(self, mesh, A):
        """Move to ``mesh`` with coefficient ``A``: gather the rows of the
        kept triangles whose tensor rows are bitwise equal to their
        parents', and drop the previous mesh's blocks and tensor rows."""
        parent_tensor, self._tensor = self._tensor, A.tensor
        parent, self._blocks = self._blocks, {}
        self._carried = np.zeros(len(A.tensor), dtype=bool)
        src = mesh.tri_origin
        if not parent or src is None:
            return
        kept = np.flatnonzero(src >= 0)
        # bitwise: the raw words of the gathered (hence contiguous) rows
        same = A.tensor[kept].view(np.uint64) == parent_tensor[src[kept]].view(np.uint64)
        kept = kept[same.all(axis=(1, 2))]
        if not len(kept):
            return
        self._carried[kept] = True
        rows = np.where(self._carried, src, 0)
        for name in list(parent):
            self._blocks[name] = np.take(parent.pop(name), rows, axis=0)

    def blocks(self, name, shape):
        """``(out, todo)``: this mesh's blocks ``name``, an array of
        ``shape`` (nt, ...) holding the carried rows, and the (nt,) mask of
        the triangles whose rows are left to compute.  The carry keeps
        ``out`` for the next mesh."""
        out = self._blocks.get(name)
        if out is None:
            out = self._blocks[name] = np.empty(shape)
            return out, np.ones(shape[0], dtype=bool)
        return out, ~self._carried


def _side_table(mesh, family):
    """Global edge dofs of ``family`` on both sides of every edge.

    Returns one ``(eids, tri, C)`` per side (``K-``, then ``K+``) for the
    edges that have that side: ``tri`` the side elements and ``C``
    (m, ndof, 3, 2) the vertex-vector form of the dofs there.
    The element data is gathered a block of edges at a time, by ``take``
    of the flat row ``3 t + v`` of local vertex ``v`` of triangle ``t``.
    """
    ndof = 1 if family in ("rt", "ne") else 2
    verts = mesh.triangles.reshape(-1)
    grads = mesh.grad_lambda.reshape(-1, 2)
    table = []
    for side in (0, 1):
        eids = np.flatnonzero(mesh.edge_tris[:, side] >= 0)
        tri = mesh.edge_tris[eids, side]
        C = np.empty((len(eids), ndof, 3, 2))
        for b in _blocks(len(eids)):
            e, t3 = eids[b], 3 * tri[b]
            C[b] = _vertex_vectors(
                family,
                mesh.edge_slot[e, side],
                side,
                mesh.edge_length[e],
                mesh.tri_area[tri[b]],
                lambda v: np.take(mesh.vertices, verts[t3 + v], axis=0),
                lambda v: np.take(grads, t3 + v, axis=0),
            )
        table.append((eids, tri, C))
    return tuple(table)


def _accumulate_vertex_vectors(table, side_coef, nt):
    """(nt, 3, 2) vertex-vector form of ``sum_F coef_F psi_F`` over the
    side table ``table`` of :func:`_side_table`, with ``side_coef`` the
    (ne, 2) or (ne, 2, ndof) dof values on each side of each edge.

    Each component is one ``bincount`` over the ``K-`` rows, then the
    ``K+`` rows, which adds in input order: the order of the side table.
    A row's part of a component, ``sum_d coef_d C[d, v, x]``, has at most
    one nonzero term (a BDM or ND dof vanishes at every vertex but its
    own), so it is the same in any summation order.
    """
    side_coef = side_coef.reshape(len(side_coef), 2, -1)
    tri = np.concatenate([t for _, t, _ in table])
    coef = [side_coef[eids, side] for side, (eids, _, _) in enumerate(table)]
    w = np.empty(len(tri))
    parts = np.split(w, [len(table[0][0])])
    out = np.empty((nt, 3, 2))
    for v in range(3):
        for x in range(2):
            for part, c, (_, _, C) in zip(parts, coef, table):
                np.einsum("md,md->m", c, C[:, :, v, x], out=part)
            out[:, v, x] = np.bincount(tri, w, minlength=nt)
    return out


def basis_vertex_vectors(frame: LocalTriangleFrame, basis: LocalBasisId) -> np.ndarray:
    """Vertex-coefficient form of a vector basis function.

    Every lowest-order vector basis here can be written as
    ``phi(x) = sum_v lambda_v(x) c_v`` with constant vectors ``c_v``; returns
    the (3, 2) array of those vectors.  Raises for scalar families.
    """
    if basis.family not in VECTOR_FAMILIES:
        raise BasisError("vertex-vector form only exists for vector families")
    k = basis.edge
    C = _vertex_vectors(
        basis.family,
        np.array([k]),
        0,
        frame.edge_length[[k]],
        np.array([frame.area]),
        lambda v: frame.x[v],
        lambda v: frame.grad_lambda[v],
    )
    return C[0, 1 if basis.endpoint == "e" else 0]


def eval_local_basis(frame: LocalTriangleFrame, basis: LocalBasisId, point):
    """Evaluate a local basis function at a point of the (closed) triangle.

    Returns a length-2 vector for the vector families and a float for the
    scalar ones.  Points outside the triangle (barycentric coordinate below
    -1e-12 relative) are rejected.
    """
    lam = frame.barycentric(point)
    if lam.min() < -1e-12:
        raise BasisError(f"point {point} lies outside the triangle")
    if basis.family in VECTOR_FAMILIES:
        c = basis_vertex_vectors(frame, basis)
        return lam @ c
    if basis.family == "p1":
        return float(lam[basis.edge])
    # cr: 1 - 2 lambda_opposite
    return float(1.0 - 2.0 * lam[basis.edge])


_FACT = [math.factorial(n) for n in range(8)]


def barycentric_integral(frame: LocalTriangleFrame, exponents) -> float:
    """Exact integral of ``lambda_0^a lambda_1^b lambda_2^c`` over the triangle.

    Uses ``2|K| a! b! c! / (a+b+c+2)!``; exponents must be nonnegative
    integers with total degree at most 4.
    """
    a, b, c = (int(v) for v in exponents)
    if min(a, b, c) < 0:
        raise BasisError("exponents must be nonnegative")
    if a + b + c > 4:
        raise BasisError("total degree above 4 is not supported")
    return 2.0 * frame.area * _FACT[a] * _FACT[b] * _FACT[c] / _FACT[a + b + c + 2]


def _check_spd(M: np.ndarray) -> None:
    """Raise :class:`BasisError` unless ``M`` is an (m, 2, 2) array of
    symmetric (to 1e-14 of its largest entry, at least 1) positive definite
    matrices."""
    if M.ndim != 3 or M.shape[1:] != (2, 2):
        raise BasisError("tensors must have shape (m, 2, 2)")
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M[:, 0, 1] - M[:, 1, 0]).max() > 1e-14 * scale:
        raise BasisError("2x2 tensor is not symmetric")
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    if np.any(M[:, 0, 0] <= 0) or np.any(det <= 0):
        raise BasisError("2x2 tensor is not positive definite")


# int_K lambda_v lambda_w dx / |K|
_P1_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _weighted_gram(W, C, area):
    """Exact weighted Gram blocks of vertex-vector fields on ``m`` triangles.

    ``W`` (m, 2, 2) constant weights, ``C`` (m, n, 3, 2) fields in
    vertex-coefficient form, ``area`` (m,).  Returns ``G`` (m, n, n) with
    ``G[:, a, b] = int_K (W phi_a) . phi_b``; the integrand is quadratic, so
    ``int lambda_v lambda_w = |K| (1 + delta_vw) / 12`` makes this exact.
    """
    WC = np.einsum("mij,mavj->mavi", W, C, optimize=True)
    G = np.einsum("mavi,vw,mbwi->mab", WC, _P1_MASS, C, optimize=True)
    G *= area[:, None, None]
    return G


def _weighted_norm_sq(W, C, area):
    """(m,) exact ``int_K (W v) . v`` of one vertex-vector field ``C``
    (m, 3, 2) per triangle.

    The one-field case of :func:`_weighted_gram`, summed in its own order:
    the element indicators, and through the bulk marking every adaptive
    mesh, depend on these bits, and the Gram order moves them by an ulp,
    which flips picks between tied elements and changes later meshes.
    """
    out = np.empty(len(C))
    for b in _blocks(len(C)):
        q = np.einsum("mij,mvj,mwi->mvw", W[b], C[b], C[b])
        out[b] = np.einsum("mvw,vw->m", q, _P1_MASS) * area[b]
    return out


def weighted_mass_entry(
    frame: LocalTriangleFrame,
    M,
    id_a: LocalBasisId,
    id_b: LocalBasisId,
) -> float:
    """Exact ``integral_K (M phi_a) . phi_b dx`` for constant SPD ``M``."""
    M = np.asarray(M, dtype=float)
    _check_spd(M[None])
    C = np.stack([basis_vertex_vectors(frame, id_a), basis_vertex_vectors(frame, id_b)])
    return float(_weighted_gram(M[None], C[None], np.array([frame.area]))[0, 0, 1])
