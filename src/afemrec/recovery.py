"""Explicit edge-patch flux and gradient recovery.

Builds H(div)-conforming fluxes (RT, BDM families) and H(curl)-conforming
gradients (NE, ND families) from the side traces of a discrete solution.
Each interior edge carries a local two-element patch problem: subtract a
jump-lifting field and minimize the weighted L2 norm over the patch
functions with zero outer trace.  These local problems have one (RT, NE) or
two (BDM, ND) unknowns, and every family has the same closed-form answer:
with ``G-, G+`` the weighted Gram blocks of the edge dofs on the two sides
and ``t-, t+`` the dof values of the side traces, the recovered dofs are

    P t- + (I - P) t+,        P = (G- + G+)^{-1} G-,

where the 1x1 or 2x2 inverse is taken by Cramer's rule.  Boundary dofs take
the Neumann (flux) or Dirichlet (gradient) data, or keep the numerical
trace on the other boundary edges.

Supported (method, family) pairs::

    conforming     -> rt, bdm          (flux recovery)
    mixed          -> nd               (gradient recovery)
    nonconforming  -> rt, bdm, ne, nd  (flux and gradient recovery)

Sign conventions: per edge F the global basis dof of a flux family measures
the ``n_F`` normal trace and is element-local outward-normal based, so its
restriction to ``K+`` carries a minus sign; gradient-family dofs measure the
``t_F`` tangential trace from both sides directly (a sign flip there would
break tangential continuity).  Concretely, on an element ``K`` containing
edge ``F`` with global endpoints ``s, e`` and opposite vertex ``o``::

    psi_rt  = sgn * (x - x_o) / H          sgn = +1 on K-, -1 on K+
    psi_bdm_v = sgn * lambda_v (x_v - x_o) / H,   v in {s, e}
    psi_ne  = h * (lambda_s grad lambda_e - lambda_e grad lambda_s)
    psi_nd_s = h * lambda_s grad lambda_e
    psi_nd_e = h * lambda_e grad lambda_s

These are the edge bases of :mod:`afemrec.basis` seen from each side, built
once per recovery as its side table, which gives the Gram blocks and then
the correction and recovered fields.  In an adaptive run the Gram blocks of
the triangles refinement kept come from the previous iteration (see
:func:`patch_weights`).  One trace table (``_side_traces``)
feeds both the recovery and :func:`compute_jumps`, the single definition of
the edge jumps that the oracle check and the residual estimators read.

Every recovery is cross-checked (on a deterministic sample of edges, or all
of them with ``validate="all"``) against :func:`local_oracle`, an
independent constrained least-squares solve of the same patch minimization
built from raw monomial element spaces.  The oracle solves all checked
patches of a recovery at once: their KKT systems are stacked by patch size
(one or two elements) and solved by one ``np.linalg.solve`` per group, in
blocks of at most ``_ORACLE_BLOCK`` edges.  A deviation above 1e-11 times
the edge's own scale (its largest trace, correction or recovered dof), or
a NaN, raises :class:`RecoveryError` -- this is the primary defense against
algebra slips in the closed-form weights.

Per-edge work touches only the two adjacent elements, so the edge loop is
embarrassingly parallel; the implementation vectorizes it over all edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    FLUX_FAMILIES,
    GRADIENT_FAMILIES,
    ElementCarry,
    _accumulate_vertex_vectors,
    _fill_rows,
    _side_table,
    _weighted_gram,
)
from .mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh
from .solvers import CoefficientField, EdgeTraces

__all__ = [
    "RecoveryError",
    "JumpSet",
    "PatchWeights",
    "RecoveredField",
    "compute_jumps",
    "patch_weights",
    "recover",
    "local_oracle",
    "VALID_PAIRS",
]

# each method's estimator recoveries: a family, or a flux-gradient pair
FAMILY_CHOICES = {
    "conforming": ("rt", "bdm"),
    "mixed": ("nd",),
    "nonconforming": ("rt-ne", "bdm-nd"),
}

VALID_PAIRS = {
    (method, family)
    for method, choices in FAMILY_CHOICES.items()
    for choice in choices
    for family in choice.split("-")
}


class RecoveryError(RuntimeError):
    """Recovered coefficients disagree with the patch minimization oracle."""


# ----------------------------------------------------------------------
# traces and jumps

# label of the edges whose recovered dofs equal the boundary data
_DATA_LABEL = {"flux": NEUMANN, "gradient": DIRICHLET}
# endpoint-pair trace -> dof values: the first entry for RT/NE, the pair for
# BDM, and the pair with its end value negated for ND
_DOF_SIGN = {"rt": (1.0,), "ne": (1.0,), "bdm": (1.0, 1.0), "nd": (1.0, -1.0)}


def _side_traces(traces: EdgeTraces, kind: str):
    """``(sides, data)``: the (ne, 2, k) side traces of the numerical flux
    or gradient and their constant boundary data (``g_N`` for a flux, the
    Dirichlet slope for a gradient)."""
    if kind == "flux":
        return traces.flux, traces.g_neumann
    return traces.grad, traces.dgD_dt


def _dofs(family: str, v: np.ndarray) -> np.ndarray:
    """(..., ndof) dof values of constant (..., 1) or endpoint-pair
    (..., 2) traces."""
    sign = _DOF_SIGN[family]
    return np.broadcast_to(v, v.shape[:-1] + (2,))[..., : len(sign)] * sign


@dataclass
class JumpSet:
    """Edge jumps of the numerical flux / gradient.

    Flux jumps live on interior and Neumann edges; gradient jumps on
    interior and Dirichlet edges.  Each jump is an ``[edge, value]`` array
    of shape (ne, k) like the side traces it comes from: ``k = 1`` for a
    constant jump and ``k = 2`` for the affine mixed-method gradient jump,
    stored by its endpoint values ``(c_s, c_e)``.  Entries are NaN (and
    masked False) where the defining formula excludes the edge, not zero.
    """

    method: str
    flux: np.ndarray | None = None
    flux_mask: np.ndarray | None = None
    grad: np.ndarray | None = None
    grad_mask: np.ndarray | None = None

    def masked(self, kind: str) -> np.ndarray:
        """(ne, k) jump of the flux or gradient, zero where undefined."""
        if kind == "flux":
            return np.where(self.flux_mask[:, None], self.flux, 0.0)
        return np.where(self.grad_mask[:, None], self.grad, 0.0)


def compute_jumps(mesh: Mesh, A: CoefficientField, traces: EdgeTraces, method: str) -> JumpSet:
    """Jumps of the side traces, oriented K- minus K+ (minus data on the
    boundary edges where the jump is defined)."""
    if traces.method != method:
        raise ValueError(f"traces are for {traces.method!r}, not {method!r}")
    interior = mesh.edge_label == INTERIOR
    out = JumpSet(method=method)
    for kind, data_label in _DATA_LABEL.items():
        sides, data = _side_traces(traces, kind)
        if sides is None:  # the method has no such trace
            continue
        mask = interior | (mesh.edge_label == data_label)
        other = np.where(interior[:, None], sides[:, 1], data[:, None])
        jump = np.where(mask[:, None], sides[:, 0] - other, np.nan)
        if kind == "flux":
            out.flux, out.flux_mask = jump, mask
        else:
            out.grad, out.grad_mask = jump, mask
    return out


# ----------------------------------------------------------------------
# patch weights


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched ``M v`` for (ne, d, d) matrices and (ne, d) vectors."""
    return (M * v[:, None, :]).sum(axis=2)


@dataclass
class PatchWeights:
    """Patch-response matrices of the closed-form recovery and their Gram
    blocks.

    ``gram`` has shape (ne, 2, ndof, ndof) with the plus-side block zeroed
    on boundary edges.  ``response`` (ne, ndof, ndof) holds, per interior
    edge, ``P = (G- + G+)^{-1} G-``: the recovered dofs are
    ``P t- + (I - P) t+`` for the side dof values ``t-, t+``.  The named
    weights are read-only views derived from it:

    * ``a_rt`` / ``a_ne`` = ``P[:, 0, 0]``, the weight on the K- trace of
      the one-unknown families;
    * ``a_bdm, b_bdm``: the row sums of ``P`` (constant-trace weights);
    * ``nd_response`` = ``P * (1, -1)``: maps the endpoint jump values to
      the minimizer coefficients, ``(x_s, x_e) = R (c_s, c_e)``;
    * ``a_nc, b_nc``: the row sums of ``nd_response``, the constant-jump
      weights of the nonconforming gradient recovery.

    Entries are NaN for non-interior edges.  ``gram`` comes from ``side_table``.
    """

    family: str
    gram: np.ndarray
    response: np.ndarray
    side_table: tuple = field(repr=False)

    a_rt = a_ne = property(lambda self: self.response[:, 0, 0])
    a_bdm = property(lambda self: self.response[:, 0].sum(axis=1))
    b_bdm = property(lambda self: self.response[:, 1].sum(axis=1))
    nd_response = property(lambda self: self.response * np.array([1.0, -1.0]))
    a_nc = property(lambda self: self.nd_response[:, 0].sum(axis=1))
    b_nc = property(lambda self: self.nd_response[:, 1].sum(axis=1))


def patch_weights(
    mesh: Mesh, A: CoefficientField, family: str, carry: ElementCarry | None = None
) -> PatchWeights:
    """Patch responses for every interior edge, from exact Gram integrals.

    The Gram block of an edge side is that of the side element at the
    edge's local slot.  With ``carry``, the :class:`ElementCarry` of an
    adaptive run, a triangle kept from the previous mesh with a bitwise
    equal tensor row takes its parent's blocks, which equal a fresh
    computation bit for bit; the others are computed, and ``carry`` keeps
    this mesh's blocks, per (triangle, slot), for the next mesh.
    """
    if family not in FLUX_FAMILIES + GRADIENT_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    ndof = len(_DOF_SIGN[family])
    ne = mesh.n_edges
    gram = np.zeros((ne, 2, ndof, ndof))
    table = _side_table(mesh, family)
    W = A.inv if family in FLUX_FAMILIES else A.tensor
    carry = ElementCarry() if carry is None else carry
    # the blocks per (triangle, slot), at flat row 3 t + slot
    slot_gram, todo = carry.blocks("gram-" + family, (mesh.n_triangles, 3, ndof, ndof))
    slot_gram = slot_gram.reshape(-1, ndof, ndof)
    for side, (eids, tri, C) in enumerate(table):
        rows = 3 * tri + mesh.edge_slot[eids, side]
        _fill_rows(
            slot_gram,
            np.flatnonzero(todo[tri]),
            lambda r: _weighted_gram(
                np.take(W, tri[r], axis=0), np.take(C, r, axis=0), mesh.tri_area[tri[r]]
            ),
            at=rows,
        )
        gram[eids, side] = np.take(slot_gram, rows, axis=0)

    # P = adj(Gt) Gm / det(Gt) by Cramer's rule, reading only the upper
    # triangles of the symmetric Gram blocks, on the interior edges: those
    # with a K+ side
    inner = table[1][0]
    G = np.take(gram, inner, axis=0)
    Gm = G[:, 0]
    Gm[:, -1, 0] = Gm[:, 0, -1]
    Gt = Gm + G[:, 1]
    if ndof == 1:
        det = Gt[:, 0, 0]
        adj = np.ones_like(Gt)
    else:
        a, b, c = Gt[:, 0, 0], Gt[:, 0, 1], Gt[:, 1, 1]
        det = a * c - b**2
        adj = np.stack([c, -b, -b, a], axis=1).reshape(-1, 2, 2)
    if np.any(det <= 0.0):
        raise RecoveryError("singular patch Gram system")
    # adj Gm, summed over the inner index in order
    prod = adj[:, :, 0, None] * Gm[:, None, 0]
    for d in range(1, ndof):
        prod += adj[:, :, d, None] * Gm[:, None, d]
    response = np.full((ne, ndof, ndof), np.nan)
    response[inner] = prod / det[:, None, None]
    return PatchWeights(family=family, gram=gram, response=response, side_table=table)


# ----------------------------------------------------------------------
# recovered fields


@dataclass
class RecoveredField:
    """A recovered flux or gradient with its per-edge corrections.

    ``coef`` holds the global dof values ((ne,) for RT/NE, (ne, 2) for
    BDM/ND); ``numerical_side`` the dof values of the raw numerical field on
    each side ((ne, 2) or (ne, 2, 2) indexed [edge, side(, dof)]);
    ``correction_side = coef - numerical_side`` (zero where a side is
    absent) are the per-edge correction coefficients whose weighted norms
    drive the error indicators.
    """

    mesh: Mesh
    method: str
    family: str
    kind: str
    coef: np.ndarray
    numerical_side: np.ndarray
    correction_side: np.ndarray
    weights: PatchWeights = field(repr=False, default=None)

    def _accumulate(self, side_coef) -> np.ndarray:
        """(nt, 3, 2) vertex-coefficient form of ``sum_F coef_F psi_F``."""
        table = self.weights.side_table
        return _accumulate_vertex_vectors(table, side_coef, self.mesh.n_triangles)

    def correction_vertex_vectors(self) -> np.ndarray:
        """Vertex-vector form of the global correction field."""
        return self._accumulate(self.correction_side)

    def total_vertex_vectors(self) -> np.ndarray:
        """Vertex-vector form of the full recovered field."""
        coef = self.coef.reshape(self.mesh.n_edges, 1, -1)
        return self._accumulate(np.repeat(coef, 2, axis=1))


def recover(
    mesh: Mesh,
    A: CoefficientField,
    traces: EdgeTraces,
    method: str,
    family: str,
    validate: str | bool = "sample",
    carry: ElementCarry | None = None,
) -> RecoveredField:
    """Recover a conforming flux (rt/bdm) or gradient (ne/nd).

    With ``t-, t+`` the dof values of the two side traces and ``P`` the
    patch response of :func:`patch_weights`, the recovered dofs are
    ``P t- + (I - P) t+`` on interior edges; Neumann flux dofs equal
    ``g_N``, Dirichlet gradient dofs the tangential slope of the Dirichlet
    data, and the remaining boundary dofs keep the numerical trace.
    ``validate`` cross-checks the correction coefficients against
    :func:`local_oracle` on a sample of edges ("sample" or True, the
    default), every edge ("all"), or not at all (False); the sample does not
    depend on which Gram blocks ``carry`` supplied (see
    :func:`patch_weights`).
    """
    if (method, family) not in VALID_PAIRS:
        raise ValueError(f"no recovery is defined for method={method!r}, family={family!r}")
    if validate not in ("sample", "all", True, False):
        raise ValueError(f"validate must be 'sample', 'all', True or False, not {validate!r}")
    jumps = compute_jumps(mesh, A, traces, method)
    w = patch_weights(mesh, A, family, carry)
    kind = "flux" if family in FLUX_FAMILIES else "gradient"
    sides, data = _side_traces(traces, kind)
    numerical = _dofs(family, sides)  # (ne, 2, ndof)
    no_plus = mesh.edge_tris[:, 1] < 0
    numerical[no_plus, 1] = 0.0
    t_minus, t_plus = numerical[:, 0], numerical[:, 1]

    P = w.response
    patch = _apply(P, t_minus) + _apply(np.eye(P.shape[1]) - P, t_plus)
    lab = mesh.edge_label
    coef = np.where(
        (lab == INTERIOR)[:, None],
        patch,
        np.where((lab == _DATA_LABEL[kind])[:, None], _dofs(family, data[:, None]), t_minus),
    )
    correction = coef[:, None] - numerical
    correction[no_plus, 1] = 0.0
    if P.shape[1] == 1:  # one-dof families keep flat arrays
        coef, numerical, correction = coef[:, 0], numerical[..., 0], correction[..., 0]

    fld = RecoveredField(
        mesh=mesh,
        method=method,
        family=family,
        kind=kind,
        coef=coef,
        numerical_side=numerical,
        correction_side=correction,
        weights=w,
    )
    if validate:
        _validate_against_oracle(fld, A, jumps, mode=validate)
    return fld


# ----------------------------------------------------------------------
# independent patch oracle

# edges per stacked KKT solve: 4096 two-sided BDM/ND systems (22 x 22) take
# 16 MB, which bounds the memory of validate="all" on large meshes
_ORACLE_BLOCK = 4096


def _monomials(family: str, points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Raw local space centred at ``center`` (m, 2), evaluated at ``points``
    (m, P, 2): an (m, nd, P, 2) array."""
    x, y = np.moveaxis(points - center[:, None], -1, 0)
    one, zero = np.ones_like(x), np.zeros_like(x)
    if family == "rt":
        fields = [(one, zero), (zero, one), (x, y)]
    elif family == "ne":
        fields = [(one, zero), (zero, one), (y, -x)]
    else:  # bdm / nd: full P1^2
        fields = [(one, zero), (zero, one), (x, zero), (y, zero), (zero, x), (zero, y)]
    return np.stack([np.stack(f, axis=-1) for f in fields], axis=1)


def _monomial_traces(mesh: Mesh, family: str, center: np.ndarray, eids: np.ndarray) -> np.ndarray:
    """Normal (flux) or tangential (gradient) traces of the monomials
    centred at ``center`` (m, 2) on the edges ``eids`` (m, k): at each
    edge's midpoint for rt/ne and at its endpoints ``s, e`` for bdm/nd.
    Returns (m, k * npts, nd), edge-major."""
    m = len(eids)
    ends = mesh.vertices[mesh.edges[eids]]  # (m, k, 2, 2)
    pts = ends.mean(axis=2, keepdims=True) if family in ("rt", "ne") else ends
    dirs = (mesh.edge_normal if family in FLUX_FAMILIES else mesh.edge_tangent)[eids]
    dirs = np.broadcast_to(dirs[:, :, None], pts.shape).reshape(m, -1, 2)
    basis = _monomials(family, pts.reshape(m, -1, 2), center)
    return (basis * dirs[:, None]).sum(axis=-1).transpose(0, 2, 1)


def _solve_patches(mesh: Mesh, A: CoefficientField, family: str, edges, nside: int, target):
    """One stacked KKT solve for the patches of ``edges``, which all have
    ``nside`` elements.

    The unknowns are the monomial coefficients of each element; the
    constraint rows are the trace of the jump across the edge (equal to
    ``target``, (m, ndof)) and the traces on the two outer edges of each
    element (zero).  Returns the element centres (m, nside, 2), the
    monomial coefficients (m, nside, nd) and the side corrections in dof
    form (m, nside, ndof).
    """
    m, ndof = target.shape
    nd = 3 * ndof
    nu = nside * nd
    n = nu + ndof * (1 + 2 * nside)
    tris = mesh.edge_tris[edges, :nside]
    corners = mesh.vertices[mesh.triangles[tris]]  # (m, nside, 3, 2)
    center = corners.mean(axis=2)

    # energy blocks by the 3-midpoint rule (exact for quadratics); matmul,
    # unlike einsum, rounds each patch the same whatever the batch size
    mids = 0.5 * (corners[:, :, [1, 2, 0]] + corners[:, :, [2, 0, 1]])
    vals = _monomials(family, mids.reshape(-1, 3, 2), center.reshape(-1, 2))
    W = (A.inv if family in FLUX_FAMILIES else A.tensor)[tris].reshape(-1, 1, 2, 2)
    flat = vals.reshape(len(vals), nd, -1)
    blocks = (vals @ W.transpose(0, 1, 3, 2)).reshape(flat.shape) @ flat.transpose(0, 2, 1)
    blocks *= (mesh.tri_area[tris].reshape(-1) / 3.0)[:, None, None]
    blocks = blocks.reshape(m, nside, nd, nd)

    kkt = np.zeros((m, n, n))
    on_edge = []
    for side in range(nside):
        u = slice(side * nd, (side + 1) * nd)
        kkt[:, u, u] = blocks[:, side]
        # the edge itself, then the two outer edges of this element
        slots = (mesh.edge_slot[edges, side, None] + [0, 1, 2]) % 3
        patch_edges = mesh.tri_edges[tris[:, side, None], slots]
        rows = _monomial_traces(mesh, family, center[:, side], patch_edges)
        on_edge.append(rows[:, :ndof])
        kkt[:, nu : nu + ndof, u] = rows[:, :ndof] if side == 0 else -rows[:, :ndof]
        outer = nu + ndof * (1 + 2 * side)
        kkt[:, outer : outer + 2 * ndof, u] = rows[:, ndof:]
    kkt[:, :nu, nu:] = kkt[:, nu:, :nu].transpose(0, 2, 1)
    rhs = np.zeros((m, n, 1))
    rhs[:, nu : nu + ndof, 0] = target
    coef = np.linalg.solve(kkt, rhs)[:, :nu, 0].reshape(m, nside, nd)
    corr = (np.stack(on_edge, axis=1) @ coef[..., None])[..., 0] * _DOF_SIGN[family]
    return center, coef, corr


@dataclass
class OracleCorrection:
    """Correction fields from the constrained least-squares patch solves.

    For a single edge, ``corr_minus`` / ``corr_plus`` are the side
    coefficients with respect to the global edge dofs ((1,) or (2,) arrays;
    ``corr_plus`` is None on one-sided patches).  For an edge array they
    carry a leading edge axis, and ``corr_plus`` is zero where the plus side
    is absent.  ``evaluate(side, points)`` evaluates the raw correction
    field at ``points`` ((P, 2) for a single edge, (m, P, 2) for an edge
    array) for the lifting / optimality checks.
    """

    edge: int | np.ndarray
    family: str
    corr_minus: np.ndarray
    corr_plus: np.ndarray | None
    _center: np.ndarray = field(repr=False, default=None)
    _coef: np.ndarray = field(repr=False, default=None)

    def evaluate(self, side: int, points: np.ndarray) -> np.ndarray:
        if side == 1 and self.corr_plus is None:
            raise ValueError(f"edge {self.edge} has a one-sided patch; there is no side 1")
        single = np.ndim(self.edge) == 0
        pts = np.asarray(points, dtype=float)
        basis = _monomials(self.family, pts[None] if single else pts, self._center[:, side])
        vals = np.einsum("md,mdpx->mpx", self._coef[:, side], basis)
        return vals[0] if single else vals


def local_oracle(mesh: Mesh, A: CoefficientField, F, jump, family: str) -> OracleCorrection:
    """Ground-truth patch corrections by constrained least squares.

    Minimizes the A^{-1}- (flux) or A- (gradient) weighted L2 norm over raw
    monomial element spaces subject to the trace constraints: the normal
    (tangential) jump across ``F`` equals minus the given jump and all outer
    patch traces vanish.  ``F`` is one edge or a 1-D edge array; ``jump``
    holds one value per edge (a scalar or one-entry array for a single
    edge), or one endpoint pair ``(c_s, c_e)`` per edge for nd.  The
    patches are grouped by their number of elements and solved as stacked
    KKT systems, ``_ORACLE_BLOCK`` edges per solve.  This routine never uses
    the closed-form weights, so it serves as their independent check.
    """
    edges = np.atleast_1d(F)
    m = len(edges)
    ndof = len(_DOF_SIGN[family])
    target = -np.broadcast_to(np.asarray(jump, dtype=float).reshape(m, -1), (m, 2))[:, :ndof]
    two = mesh.edge_tris[edges, 1] >= 0
    # the flux correction of a Dirichlet edge and the gradient correction of
    # a Neumann edge vanish identically
    zero = mesh.edge_label[edges] == (DIRICHLET if family in FLUX_FAMILIES else NEUMANN)
    center = np.zeros((m, 2, 2))
    coef = np.zeros((m, 2, 3 * ndof))
    corr = np.zeros((m, 2, ndof))
    for nside in (1, 2):
        group = np.flatnonzero(~zero & (two == (nside == 2)))
        for start in range(0, len(group), _ORACLE_BLOCK):
            b = group[start : start + _ORACLE_BLOCK]
            out = _solve_patches(mesh, A, family, edges[b], nside, target[b])
            center[b, :nside], coef[b, :nside], corr[b, :nside] = out
    if np.ndim(F):
        return OracleCorrection(edges, family, corr[:, 0], corr[:, 1], center, coef)
    plus = corr[0, 1] if two[0] else None
    return OracleCorrection(int(F), family, corr[0, 0], plus, center, coef)


def _validate_against_oracle(fld: RecoveredField, A, jumps: JumpSet, mode="sample"):
    mesh = fld.mesh
    ne = mesh.n_edges
    sample = np.arange(0, ne, 1 if mode == "all" else max(1, ne // 64))
    ora = local_oracle(mesh, A, sample, jumps.masked(fld.kind)[sample], fld.family)
    # per-edge scale: on graded meshes the traces near a singularity are
    # many orders larger than elsewhere, and a global scale would hide
    # faults on every other edge
    fields = (fld.numerical_side, fld.correction_side, fld.coef)
    sizes = np.hstack([np.abs(a.reshape(ne, -1)[sample]) for a in fields])
    scale = np.maximum(sizes.max(axis=1), 1e-30)
    corr = fld.correction_side.reshape(ne, 2, -1)[sample]
    diff = np.abs(corr - np.stack([ora.corr_minus, ora.corr_plus], axis=1)).max(axis=(1, 2))
    # a NaN deviation or scale fails the test
    bad = np.flatnonzero(~(diff <= 1e-11 * scale))
    if len(bad):
        i = bad[0]
        raise RecoveryError(
            f"edge {sample[i]} ({fld.method}/{fld.family}): explicit correction "
            f"deviates from the patch oracle by {diff[i]:.3e} "
            f"(scale {scale[i]:.3e})"
        )
