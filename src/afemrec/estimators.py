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
is located in its element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TRI_QUAD_BARY, TRI_QUAD_WEIGHTS, _blocks, _weighted_norm_sq
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


def oscillation(mesh: Mesh, A: CoefficientField, f):
    """Data oscillation ``H_f`` and its per-element parts.

    ``H_{f,K} = h_K / sqrt(alpha_K) * ||f - mean_K f||_{0,K}`` with the mean
    (P0 projection) and norm both from the 7-point degree-5 rule.
    """
    alpha = A.require_scalar()
    dev_sq = np.empty(mesh.n_triangles)
    for b in _blocks(mesh.n_triangles):
        x, y = _bary_points(mesh, mesh.triangles[b], TRI_QUAD_BARY)
        vals = np.asarray(f(x, y), dtype=float)
        mean = vals @ TRI_QUAD_WEIGHTS
        dev_sq[b] = ((vals - mean[:, None]) ** 2) @ TRI_QUAD_WEIGHTS * mesh.tri_area[b]
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

    total = 0.0
    if regular.size:
        # blocks bound the temporaries; each element keeps its bits and the
        # per-element values are summed once, so the total keeps its bits
        vals = np.empty(regular.size)
        for b in _blocks(regular.size):
            vals[b] = _energy_error_density(
                mesh, A, field, exact_grad, regular[b], TRI_QUAD_BARY, TRI_QUAD_WEIGHTS
            )
        total += float(vals.sum())
    if singular.size:
        # the few singular elements stay one batch: over 1792 points, a
        # row's matmul rounding depends on its position in the batch
        total += float(
            _energy_error_density(
                mesh, A, field, exact_grad, singular, _SINGULAR_BARY, _SINGULAR_WEIGHTS
            ).sum()
        )
    return float(np.sqrt(max(total, 0.0)))


def _energy_error_density(mesh, A, field, exact_grad, tris, bary, weights) -> np.ndarray:
    """(m,) squared energy error on each of the elements ``tris`` from the
    barycentric rule ``bary`` (q, 3) with weights ``weights`` (q,) summing
    to 1.

    ``field`` is the discrete gradient (nt, 2), constant per element, or the
    mixed flux in vertex-vector form (nt, 3, 2), which the same table
    evaluates at the points.
    """
    x, y = _bary_points(mesh, np.take(mesh.triangles, tris, axis=0), bary)
    gx, gy = exact_grad(x, y)
    gx, gy = np.asarray(gx), np.asarray(gy)  # (m, q)
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
