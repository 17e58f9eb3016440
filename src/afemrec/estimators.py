"""Error indicators and estimators built from the recovered fields.

The primary estimators are weighted L2 norms of the recovery corrections:
``A^{-1/2}``-weighted for flux corrections and ``A^{1/2}``-weighted for
gradient corrections.  The nonconforming method combines one of each with
convex weights ``c1 + c2 = 1``.  Element indicators restrict the global
correction field to the element (each element sees contributions from its
three edges); edge indicators take the patch norm of the single-edge
correction and overlap between neighbouring edges, so marking uses the
element values and the edge values are reported for analysis only.

Also provided: classical residual-type edge estimators (scalar coefficients
only) used as empirical efficiency references, the data-oscillation term,
and the true energy error against a known exact gradient.

All integrals of the piecewise-linear correction fields are exact; the true
energy error uses a degree-5 quadrature with four levels of dyadic
subdivision on the elements that have a singular point as a vertex or,
when the point is no vertex, contain it.  That selection uses exact vertex
equality and a barycentric containment test, with no distance tolerance,
so it is scale-invariant; neighbouring elements keep the plain 7-point
rule.

Both the true error and the oscillation integrate through constant
barycentric tables: the 7-point rule (7, 3) on regular elements, and on
singular elements that rule mapped onto the 256 sub-triangles of the
reference triangle's 4-level subdivision (1792, 3), with weights summing
to 1.  The quadrature points are one matmul of a table with the element
vertices, and the mixed flux is evaluated from the same table, so no point
is located in its element.  What depends on an element's geometry alone
(the exact gradient at its 7 points, its squared data deviation) an
adaptive run carries over for the triangles refinement kept (see
:class:`~afemrec.basis.ElementCarry`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    TRI_QUAD_BARY,
    TRI_QUAD_WEIGHTS,
    ElementCarry,
    _blocks,
    _fill_rows,
    _weighted_norm_sq,
)
from .mesh import INTERIOR, NEUMANN, Mesh
from .recovery import RecoveredField, compute_jumps
from .solvers import CoefficientField, DiscreteSolution, EdgeTraces

__all__ = [
    "IndicatorSet",
    "indicators",
    "residual_edge_estimator",
    "oscillation",
    "true_energy_error",
]

@dataclass
class IndicatorSet:
    """Per-element and per-edge indicator values with their global total.

    ``eta_global ** 2 == sum(eta_elements ** 2)`` by construction; the edge
    values follow a different (overlapping) localization and do not sum to
    the global value.
    """

    method: str
    family: str
    eta_elements: np.ndarray
    eta_edges: np.ndarray
    eta_global: float
    c1: float | None = None
    c2: float | None = None

    @property
    def eta(self) -> float:
        return self.eta_global


def _field_element_sq(mesh: Mesh, A: CoefficientField, fld: RecoveredField):
    """(nt,) squared weighted norms of the correction field per element."""
    W = A.inv if fld.kind == "flux" else A.tensor
    return _weighted_norm_sq(W, fld.correction_vertex_vectors(), mesh.tri_area)


def _field_edge_sq(fld: RecoveredField) -> np.ndarray:
    """(ne,) squared patch norms of the single-edge corrections."""
    gram = fld.weights.gram  # (ne, 2, d, d)
    corr = fld.correction_side.reshape(gram.shape[:3])
    return np.einsum("nsd,nsde,nse->n", corr, gram, corr)


def indicators(
    mesh: Mesh,
    A: CoefficientField,
    fields,
    method: str,
    family: str | None = None,
    c: tuple[float, float] = (0.5, 0.5),
) -> IndicatorSet:
    """Indicator set of one recovered field, or of a (flux, gradient) pair
    for the nonconforming method with convex combination weights ``c``."""
    if isinstance(fields, RecoveredField):
        fields = (fields,)
    for fld in fields:
        if fld.method != method:
            raise ValueError(f"field was recovered for {fld.method!r}, not {method!r}")
        if fld.mesh is not mesh:
            raise ValueError("field belongs to a different mesh")

    if len(fields) == 1:
        (fld,) = fields
        if family is not None and family != fld.family:
            raise ValueError(f"field family {fld.family!r} does not match {family!r}")
        c1 = c2 = None
        parts = ((1.0, fld),)
        label = fld.family
    else:
        if len(fields) != 2 or method != "nonconforming":
            raise ValueError("a field pair is only defined for the nonconforming method")
        flux = next((f for f in fields if f.kind == "flux"), None)
        grad = next((f for f in fields if f.kind == "gradient"), None)
        if flux is None or grad is None:
            raise ValueError("the pair must hold one flux and one gradient recovery")
        c1, c2 = float(c[0]), float(c[1])
        if not (0.0 < c1 < 1.0 and 0.0 < c2 < 1.0 and abs(c1 + c2 - 1.0) < 1e-14):
            raise ValueError("combination weights must lie in (0,1) and sum to 1")
        parts = ((c1, flux), (c2, grad))
        label = f"{flux.family}-{grad.family}"
    el_sq = sum(wt * _field_element_sq(mesh, A, f) for wt, f in parts)
    ed_sq = sum(wt * _field_edge_sq(f) for wt, f in parts)
    return IndicatorSet(
        method=method,
        family=label,
        eta_elements=np.sqrt(np.maximum(el_sq, 0.0)),
        eta_edges=np.sqrt(np.maximum(ed_sq, 0.0)),
        eta_global=float(np.sqrt(max(el_sq.sum(), 0.0))),
        c1=c1,
        c2=c2,
    )


def residual_edge_estimator(
    mesh: Mesh, A: CoefficientField, traces: EdgeTraces, method: str
) -> IndicatorSet:
    """Classical residual-type edge estimator (reference, scalar alpha only).

    conforming:     eta_F = h_F j_f / sqrt(alpha- + alpha+)   on interior,
                    h_F j_f / sqrt(alpha-)                    on Neumann;
    mixed:          eta_F^2 = (alpha- + alpha+)/2 * h_F * int_F j_g^2
                    (interior and Dirichlet; alpha+ := alpha- on the boundary);
    nonconforming:  eta_F^2 = 2 h^2/(a- + a+) j_f^2 + h^2 a- a+/(a- + a+) j_g^2
                    on interior, h^2/a- j_f^2 on Neumann, h^2 a- j_g^2 on
                    Dirichlet.

    Element values split each interior edge square evenly between its two
    elements (reported for analysis; the global value is the edge sum).
    """
    alpha = A.require_scalar()
    jumps = compute_jumps(mesh, A, traces, method)
    lab = mesh.edge_label
    h = mesh.edge_length
    am = alpha[mesh.edge_tris[:, 0]]
    has_plus = mesh.edge_tris[:, 1] >= 0
    ap = np.where(has_plus, alpha[np.maximum(mesh.edge_tris[:, 1], 0)], am)

    if method == "conforming":
        jf = jumps.masked("flux")[:, 0]
        denom = np.where(lab == INTERIOR, am + ap, am)
        sq = (h * jf / np.sqrt(denom)) ** 2
    elif method == "mixed":
        cs, ce = jumps.masked("gradient").T
        # int_F j^2 for the affine jump with endpoint values (cs, ce)
        int_j2 = h * (cs**2 + cs * ce + ce**2) / 3.0
        sq = np.where(lab == NEUMANN, 0.0, 0.5 * (am + ap) * h * int_j2)
    elif method == "nonconforming":
        jf = jumps.masked("flux")[:, 0]
        jg = jumps.masked("gradient")[:, 0]
        sq = np.where(
            lab == INTERIOR,
            2.0 * h**2 / (am + ap) * jf**2 + h**2 * am * ap / (am + ap) * jg**2,
            np.where(
                lab == NEUMANN,
                h**2 / am * jf**2,
                h**2 * am * jg**2,
            ),
        )
    else:
        raise ValueError(f"unknown method {method!r}")

    share = np.where(lab == INTERIOR, 0.5, 1.0) * sq
    ie = np.flatnonzero(lab == INTERIOR)
    # the K- shares, then the K+ shares, each in edge order
    el_sq = np.bincount(
        np.concatenate([mesh.edge_tris[:, 0], mesh.edge_tris[ie, 1]]),
        np.concatenate([share, share[ie]]),
        minlength=mesh.n_triangles,
    )
    return IndicatorSet(
        method=method,
        family="residual",
        eta_elements=np.sqrt(el_sq),
        eta_edges=np.sqrt(sq),
        eta_global=float(np.sqrt(sq.sum())),
    )


def _dyadic_bary(levels: int) -> np.ndarray:
    """(4**levels, 3, 3) barycentric vertices of the recursive 4-way
    (edge-midpoint) subdivision of the reference triangle."""
    sub = np.eye(3)[None]
    for _ in range(levels):
        a, b, c = sub[:, 0], sub[:, 1], sub[:, 2]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        sub = np.concatenate(
            [
                np.stack([a, ab, ca], axis=1),
                np.stack([ab, b, bc], axis=1),
                np.stack([ca, bc, c], axis=1),
                np.stack([ab, bc, ca], axis=1),
            ]
        )
    return sub


# the 7-point rule on each of the 256 sub-triangles of four dyadic levels,
# as one (1792, 3) barycentric table with weights summing to 1
_SINGULAR_LEVELS = 4
_SINGULAR_BARY = (TRI_QUAD_BARY @ _dyadic_bary(_SINGULAR_LEVELS)).reshape(-1, 3)
_SINGULAR_WEIGHTS = np.tile(TRI_QUAD_WEIGHTS, 4**_SINGULAR_LEVELS) / 4**_SINGULAR_LEVELS


def _bary_points(mesh: Mesh, tv, bary: np.ndarray):
    """Physical coordinates ``x, y``, each (m, q), of the barycentric points
    ``bary`` (q, 3) on the triangles with vertex ids ``tv`` (m, 3)."""
    v = mesh.vertices
    return np.take(v[:, 0], tv) @ bary.T, np.take(v[:, 1], tv) @ bary.T


def oscillation(mesh: Mesh, A: CoefficientField, f, carry: ElementCarry | None = None):
    """Data oscillation ``H_f`` and its per-element parts.

    ``H_{f,K} = h_K / sqrt(alpha_K) * ||f - mean_K f||_{0,K}`` with the mean
    (P0 projection) and norm both from the 7-point degree-5 rule.  The
    squared deviations ``||f - mean_K f||^2`` depend on the triangle's
    geometry and on ``f`` alone; with ``carry`` (see
    :class:`~afemrec.basis.ElementCarry`), which must then always be given
    the same ``f``, the triangles refinement kept take their parent's, and
    ``carry`` keeps them for the next mesh.
    """
    alpha = A.require_scalar()
    carry = ElementCarry() if carry is None else carry
    dev_sq, todo = carry.blocks("oscillation", (mesh.n_triangles,))

    def kernel(t):
        x, y = _bary_points(mesh, np.take(mesh.triangles, t, axis=0), TRI_QUAD_BARY)
        vals = np.asarray(f(x, y), dtype=float)
        mean = vals @ TRI_QUAD_WEIGHTS
        return ((vals - mean[:, None]) ** 2) @ TRI_QUAD_WEIGHTS * np.take(mesh.tri_area, t)

    _fill_rows(dev_sq, np.flatnonzero(todo), kernel)
    h_fk = mesh.tri_diam / np.sqrt(alpha) * np.sqrt(np.maximum(dev_sq, 0.0))
    return float(np.sqrt((h_fk**2).sum())), h_fk


def _touches_point(mesh: Mesh, p) -> np.ndarray:
    """Elements having ``p`` as a vertex or, when ``p`` is no vertex,
    containing it in their closed triangle.

    The vertex test is exact coordinate equality and the containment test
    is barycentric, so both are dimensionless: the selection does not
    change when the mesh and ``p`` are scaled together, however fine the
    mesh is graded.
    """
    p = np.asarray(p, dtype=float)
    v, tris = mesh.vertices, mesh.triangles
    at = (v[:, 0] == p[0]) & (v[:, 1] == p[1])
    if at.any():
        return at[tris[:, 0]] | at[tris[:, 1]] | at[tris[:, 2]]
    lam = 1.0 + np.einsum("tvd,tvd->tv", mesh.grad_lambda, p - mesh.tri_coords())
    return (lam > -1e-12).all(axis=1)


def true_energy_error(
    mesh: Mesh,
    A: CoefficientField,
    solution: DiscreteSolution,
    exact_grad,
    singular_points=(),
    carry: ElementCarry | None = None,
) -> float:
    """Energy norm of the discretization error against the exact gradient.

    ``||A^{1/2}(grad u - grad_h u_h)||`` for the conforming and
    nonconforming methods, ``||A^{-1/2}(sigma - sigma_m)||`` with
    ``sigma = -A grad u`` for the mixed method.  Uses the 7-point degree-5
    rule.  An element is singular when a singular point is one of its
    vertices (exact coordinate equality) or, for a point that is no
    vertex, lies in its closed triangle (a barycentric test); there is no
    distance tolerance, so the selection is the same at every mesh scale.
    Singular elements are subdivided dyadically four levels first: one
    (1792, 3) barycentric table holds the 7-point rule on each of the 256
    sub-triangles of the reference triangle, with weights
    ``tile(TRI_QUAD_WEIGHTS, 256) / 256``.  Their neighbours keep the plain
    7-point rule, which on graded Kellogg meshes leaves a relative
    quadrature error of up to about 5e-5 against a six-level reference.

    The exact gradient at the 7 points of each element depends on the
    triangle's geometry alone.  With ``carry`` (see
    :class:`~afemrec.basis.ElementCarry`), which must then always be given
    the same ``exact_grad``, the triangles refinement kept take their
    parent's samples, only the others call ``exact_grad``, and ``carry``
    keeps the samples for the next mesh.
    """
    if exact_grad is None:
        raise ValueError("true_energy_error requires the exact gradient")

    singular = np.zeros(mesh.n_triangles, dtype=bool)
    for p in singular_points:
        singular |= _touches_point(mesh, p)
    regular = np.flatnonzero(~singular)
    singular = np.flatnonzero(singular)
    if solution.method == "mixed":
        field = solution.flux_vertex_vectors()
    else:
        field = solution.element_gradients()

    carry = ElementCarry() if carry is None else carry
    samples, todo = carry.blocks("exact-grad", (mesh.n_triangles, 2, len(TRI_QUAD_BARY)))
    _fill_rows(
        samples, np.flatnonzero(todo), lambda t: _exact_grad_at(mesh, exact_grad, t, TRI_QUAD_BARY)
    )

    total = 0.0
    if regular.size:
        # blocks bound the temporaries; each element keeps its bits and the
        # per-element values are summed once, so the total keeps its bits
        vals = np.empty(regular.size)
        for b in _blocks(regular.size):
            tris = regular[b]
            vals[b] = _energy_error_density(
                mesh, A, field, np.take(samples, tris, axis=0), tris, TRI_QUAD_BARY,
                TRI_QUAD_WEIGHTS,
            )
        total += float(vals.sum())
    if singular.size:
        # the few singular elements stay one batch: over 1792 points, a
        # row's matmul rounding depends on its position in the batch
        grad = _exact_grad_at(mesh, exact_grad, singular, _SINGULAR_BARY)
        total += float(
            _energy_error_density(
                mesh, A, field, grad, singular, _SINGULAR_BARY, _SINGULAR_WEIGHTS
            ).sum()
        )
    return float(np.sqrt(max(total, 0.0)))


def _exact_grad_at(mesh, exact_grad, tris, bary) -> np.ndarray:
    """(m, 2, q) exact gradient at the barycentric points ``bary`` (q, 3)
    of the elements ``tris``."""
    x, y = _bary_points(mesh, np.take(mesh.triangles, tris, axis=0), bary)
    g = np.empty((len(tris), 2, len(bary)))
    g[:, 0], g[:, 1] = exact_grad(x, y)
    return g


def _energy_error_density(mesh, A, field, grad, tris, bary, weights) -> np.ndarray:
    """(m,) squared energy error on each of the elements ``tris`` from the
    barycentric rule ``bary`` (q, 3) with weights ``weights`` (q,) summing
    to 1, with ``grad`` (m, 2, q) the exact gradient at its points.

    ``field`` is the discrete gradient (nt, 2), constant per element, or the
    mixed flux in vertex-vector form (nt, 3, 2), which the same table
    evaluates at the points.
    """
    gx, gy = grad[:, 0], grad[:, 1]  # (m, q)
    a = np.take(A.tensor, tris, axis=0)
    if field.ndim == 2:
        grad_h = np.take(field, tris, axis=0)
        dx = gx - grad_h[:, 0, None]
        dy = gy - grad_h[:, 1, None]
        w = a
    else:
        flux = np.take(field, tris, axis=0)
        sx = -(a[:, 0, 0, None] * gx + a[:, 0, 1, None] * gy)
        sy = -(a[:, 1, 0, None] * gx + a[:, 1, 1, None] * gy)
        dx = sx - flux[:, :, 0] @ bary.T
        dy = sy - flux[:, :, 1] @ bary.T
        w = np.take(A.inv, tris, axis=0)
    integ = (
        w[:, 0, 0, None] * dx**2
        + (w[:, 0, 1] + w[:, 1, 0])[:, None] * dx * dy
        + w[:, 1, 1, None] * dy**2
    )
    return integ @ weights * np.take(mesh.tri_area, tris)
