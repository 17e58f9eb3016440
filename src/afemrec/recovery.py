"""Explicit edge-patch flux and gradient recovery.

Builds H(div)-conforming fluxes (RT, BDM families) and H(curl)-conforming
gradients (NE, ND families) from the side traces of a discrete solution.
Each interior edge carries a local two-element patch problem: subtract a
jump-lifting field and minimize the weighted L2 norm over the patch
functions with zero outer trace.  These local problems have one (RT, NE) or
two (BDM, ND) unknowns, so the recovered coefficients are closed-form
weighted averages of the side traces; the weights come from 1x1 or 2x2
normal equations solved by Cramer's rule.

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

These are the edge bases of :mod:`afemrec.basis` seen from each side, and
their Gram blocks come from its exact weighted Gram kernel.
:func:`compute_jumps` is the single definition of the edge jumps; the
mixed-method recovery, the oracle check and the residual estimators all
read it.

Every recovery is cross-checked (on a deterministic sample of edges, or all
of them with ``validate="all"``) against :func:`local_oracle`, an
independent constrained least-squares solve of the same patch minimization
built from raw monomial element spaces.  A mismatch raises
:class:`RecoveryError` -- this is the primary defense against algebra slips
in the closed-form weights.

Per-edge work touches only the two adjacent elements, so the edge loop is
embarrassingly parallel; the implementation vectorizes it over all edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import _vertex_vectors, _weighted_gram
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

FLUX_FAMILIES = ("rt", "bdm")
GRADIENT_FAMILIES = ("ne", "nd")
VALID_PAIRS = {
    ("conforming", "rt"),
    ("conforming", "bdm"),
    ("mixed", "nd"),
    ("nonconforming", "rt"),
    ("nonconforming", "bdm"),
    ("nonconforming", "ne"),
    ("nonconforming", "nd"),
}


class RecoveryError(RuntimeError):
    """Recovered coefficients disagree with the patch minimization oracle."""


# ----------------------------------------------------------------------
# jumps


@dataclass
class JumpSet:
    """Edge jumps of the numerical flux / gradient.

    Flux jumps live on interior and Neumann edges; gradient jumps on
    interior and Dirichlet edges.  Entries are NaN (and masked False) where
    the defining formula excludes the edge, not zero.  The mixed-method
    gradient jump is affine per edge and stored by its endpoint values
    ``(c_s, c_e)``; the others are constants.
    """

    method: str
    flux: np.ndarray | None = None
    flux_mask: np.ndarray | None = None
    grad: np.ndarray | None = None
    grad_affine: np.ndarray | None = None
    grad_mask: np.ndarray | None = None


def compute_jumps(mesh: Mesh, A: CoefficientField, traces: EdgeTraces, method: str) -> JumpSet:
    """Jumps of the side traces, oriented K- minus K+ (minus data on the
    boundary edges where the jump is defined)."""
    if traces.method != method:
        raise ValueError(f"traces are for {traces.method!r}, not {method!r}")
    lab = mesh.edge_label
    interior = lab == INTERIOR
    out = JumpSet(method=method)

    if method in ("conforming", "nonconforming"):
        flux = np.full(mesh.n_edges, np.nan)
        flux[interior] = traces.flux_minus[interior] - traces.flux_plus[interior]
        neu = lab == NEUMANN
        flux[neu] = traces.flux_minus[neu] - traces.g_neumann[neu]
        out.flux = flux
        out.flux_mask = interior | neu

    if method == "nonconforming":
        grad = np.full(mesh.n_edges, np.nan)
        grad[interior] = traces.rho_minus[interior] - traces.rho_plus[interior]
        dir_ = lab == DIRICHLET
        grad[dir_] = traces.rho_minus[dir_] - traces.dgD_dt[dir_]
        out.grad = grad
        out.grad_mask = interior | dir_

    if method == "mixed":
        ca = np.full((mesh.n_edges, 2), np.nan)
        ca[interior, 0] = traces.d_s_minus[interior] - traces.d_s_plus[interior]
        ca[interior, 1] = traces.d_e_minus[interior] - traces.d_e_plus[interior]
        dir_ = lab == DIRICHLET
        ca[dir_, 0] = traces.d_s_minus[dir_] - traces.dgD_dt[dir_]
        ca[dir_, 1] = traces.d_e_minus[dir_] - traces.dgD_dt[dir_]
        out.grad_affine = ca
        out.grad_mask = interior | dir_

    return out


# ----------------------------------------------------------------------
# per-side basis data


def _side_vectors(mesh: Mesh, family: str, side: int):
    """Edge dofs restricted to the element on one side of each edge.

    Returns ``(eids, tri, C)`` for the edges that have that side: ``tri``
    the side elements and ``C`` (m, ndof, 3, 2) the vertex-vector form of
    the dofs there (flux dofs carry ``sgn = -1`` on ``K+``).
    """
    eids = np.flatnonzero(mesh.edge_tris[:, side] >= 0)
    tri = mesh.edge_tris[eids, side]
    C = _vertex_vectors(
        family,
        mesh.vertices[mesh.triangles[tri]],
        mesh.edge_slot[eids, side],
        mesh.edge_loc_s[eids, side],
        mesh.edge_loc_e[eids, side],
        mesh.edge_length[eids],
        mesh.tri_area[tri],
        mesh.grad_lambda[tri],
        sign=-1.0 if side == 1 and family in FLUX_FAMILIES else 1.0,
    )
    return eids, tri, C


@dataclass
class PatchWeights:
    """Closed-form patch-minimization weights and their Gram blocks.

    ``gram`` has shape (ne, 2, ndof, ndof) with the plus-side block zeroed
    on boundary edges.  Interior-edge weights:

    * ``a_rt`` / ``a_ne``: scalar averaging weights of the one-unknown
      families (weight on the K- trace),
    * ``a_bdm, b_bdm``: the two BDM averaging weights,
    * ``nd_response``: (ne, 2, 2) matrices R mapping the endpoint jump
      values to the minimizer coefficients, ``(x_s, x_e) = R (c_s, c_e)``;
      ``ell_s = R[0,0]`` and ``ell_e = -R[1,1]`` are the averaging factors
      and ``a_nc = R[0,0] + R[0,1]``, ``b_nc = R[1,0] + R[1,1]`` the
      constant-jump weights.

    Entries are NaN for non-interior edges.
    """

    family: str
    gram: np.ndarray
    has_plus: np.ndarray
    a_rt: np.ndarray | None = None
    a_bdm: np.ndarray | None = None
    b_bdm: np.ndarray | None = None
    a_ne: np.ndarray | None = None
    nd_response: np.ndarray | None = None

    @property
    def ell_s(self):
        return self.nd_response[:, 0, 0]

    @property
    def ell_e(self):
        return -self.nd_response[:, 1, 1]

    @property
    def a_nc(self):
        return self.nd_response[:, 0, 0] + self.nd_response[:, 0, 1]

    @property
    def b_nc(self):
        return self.nd_response[:, 1, 0] + self.nd_response[:, 1, 1]


def patch_weights(mesh: Mesh, A: CoefficientField, family: str) -> PatchWeights:
    """Averaging weights for every interior edge, from exact Gram integrals."""
    if family not in FLUX_FAMILIES + GRADIENT_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    ndof = 1 if family in ("rt", "ne") else 2
    ne = mesh.n_edges
    gram = np.zeros((ne, 2, ndof, ndof))
    for side in (0, 1):
        eids, tri, C = _side_vectors(mesh, family, side)
        W = A.inv[tri] if family in FLUX_FAMILIES else A.tensor[tri]
        gram[eids, side] = _weighted_gram(W, C, mesh.tri_area[tri])
    has_plus = mesh.edge_tris[:, 1] >= 0

    interior = mesh.edge_label == INTERIOR
    w = PatchWeights(family=family, gram=gram, has_plus=has_plus)
    if ndof == 1:
        beta = gram[:, :, 0, 0]
        total = beta.sum(axis=1)
        a = np.full(ne, np.nan)
        a[interior] = beta[interior, 0] / total[interior]
        if family == "rt":
            w.a_rt = a
        else:
            w.a_ne = a
        return w

    Gm = gram[:, 0]
    Gt = gram.sum(axis=1)  # (ne, 2, 2)
    det = Gt[:, 0, 0] * Gt[:, 1, 1] - Gt[:, 0, 1] ** 2
    if np.any(det[interior] <= 0.0):
        raise RecoveryError("singular 2x2 patch Gram system")

    if family == "bdm":
        rhs_s = Gm[:, 0, 0] + Gm[:, 0, 1]
        rhs_e = Gm[:, 0, 1] + Gm[:, 1, 1]
        a = np.full(ne, np.nan)
        b = np.full(ne, np.nan)
        a[interior] = (
            rhs_s[interior] * Gt[interior, 1, 1] - rhs_e[interior] * Gt[interior, 0, 1]
        ) / det[interior]
        b[interior] = (
            rhs_e[interior] * Gt[interior, 0, 0] - rhs_s[interior] * Gt[interior, 0, 1]
        ) / det[interior]
        w.a_bdm, w.b_bdm = a, b
        return w

    R = np.full((ne, 2, 2), np.nan)
    i = interior
    R[i, 0, 0] = (Gm[i, 0, 0] * Gt[i, 1, 1] - Gm[i, 0, 1] * Gt[i, 0, 1]) / det[i]
    R[i, 0, 1] = -(Gm[i, 0, 1] * Gt[i, 1, 1] - Gm[i, 1, 1] * Gt[i, 0, 1]) / det[i]
    R[i, 1, 0] = (Gm[i, 0, 1] * Gt[i, 0, 0] - Gm[i, 0, 0] * Gt[i, 0, 1]) / det[i]
    R[i, 1, 1] = -(Gm[i, 1, 1] * Gt[i, 0, 0] - Gm[i, 0, 1] * Gt[i, 0, 1]) / det[i]
    w.nd_response = R
    return w


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

    @property
    def ndof(self) -> int:
        return 1 if self.family in ("rt", "ne") else 2

    def _accumulate_vertex_vectors(self, side_coef) -> np.ndarray:
        """(nt, 3, 2) vertex-coefficient form of ``sum_F coef_F psi_F``."""
        mesh = self.mesh
        out = np.zeros((mesh.n_triangles, 3, 2))
        for side in (0, 1):
            eids, tri, C = _side_vectors(mesh, self.family, side)
            vals = side_coef[eids, side]
            if self.ndof == 1:
                contrib = vals[:, None, None] * C[:, 0]
            else:
                contrib = np.einsum("md,mdvx->mvx", vals, C)
            np.add.at(out, tri, contrib)
        return out

    def correction_vertex_vectors(self) -> np.ndarray:
        """Vertex-vector form of the global correction field."""
        return self._accumulate_vertex_vectors(self.correction_side)

    def total_vertex_vectors(self) -> np.ndarray:
        """Vertex-vector form of the full recovered field."""
        shape = (self.mesh.n_edges, 2) + ((2,) if self.ndof == 2 else ())
        side_coef = np.zeros(shape)
        side_coef[:, 0] = self.coef
        side_coef[:, 1] = self.coef
        return self._accumulate_vertex_vectors(side_coef)

    def eval_vertex_field(self, C, tris, points) -> np.ndarray:
        """Evaluate a vertex-vector field on triangles ``tris`` at physical
        ``points`` (m, 2)."""
        mesh = self.mesh
        tris = np.asarray(tris)
        lam = np.empty((len(tris), 3))
        for l in range(3):
            xl = mesh.vertices[mesh.triangles[tris, l]]
            lam[:, l] = 1.0 + np.einsum(
                "md,md->m", mesh.grad_lambda[tris, l], points - xl
            )
        return np.einsum("mv,mvx->mx", lam, C[tris])


def _require_pair(method: str, family: str):
    if (method, family) not in VALID_PAIRS:
        raise ValueError(
            f"no recovery is defined for method={method!r}, family={family!r}"
        )


def recover(
    mesh: Mesh,
    A: CoefficientField,
    traces: EdgeTraces,
    method: str,
    family: str,
    validate: str | bool = "sample",
) -> RecoveredField:
    """Recover a conforming flux (rt/bdm) or gradient (ne/nd).

    The recovered dof on an interior edge is the patch-weighted average of
    the two side traces; Neumann flux dofs equal ``g_N``, Dirichlet gradient
    dofs the tangential slope of the Dirichlet data, and the remaining
    boundary dofs keep the numerical trace.  ``validate`` cross-checks the
    correction coefficients against :func:`local_oracle` on a sample of
    edges ("sample", default), every edge ("all"), or not at all (False).
    """
    _require_pair(method, family)
    jumps = compute_jumps(mesh, A, traces, method)
    w = patch_weights(mesh, A, family)
    lab = mesh.edge_label
    interior = lab == INTERIOR
    neumann = lab == NEUMANN
    dirichlet = lab == DIRICHLET
    has_plus = mesh.edge_tris[:, 1] >= 0
    ne = mesh.n_edges

    if family in FLUX_FAMILIES:
        sm, sp = traces.flux_minus, traces.flux_plus
        num = np.zeros((ne, 2) + ((2,) if family == "bdm" else ()))
        if family == "rt":
            num[:, 0] = sm
            num[:, 1] = np.where(has_plus, sp, 0.0)
            coef = np.where(
                interior,
                w.a_rt * sm + (1.0 - w.a_rt) * np.where(has_plus, sp, 0.0),
                np.where(neumann, traces.g_neumann, sm),
            )
        else:
            num[:, 0, :] = sm[:, None]
            num[:, 1, :] = np.where(has_plus, sp, 0.0)[:, None]
            coef = np.empty((ne, 2))
            spn = np.where(has_plus, sp, 0.0)
            coef[:, 0] = np.where(
                interior,
                w.a_bdm * sm + (1.0 - w.a_bdm) * spn,
                np.where(neumann, traces.g_neumann, sm),
            )
            coef[:, 1] = np.where(
                interior,
                w.b_bdm * sm + (1.0 - w.b_bdm) * spn,
                np.where(neumann, traces.g_neumann, sm),
            )
    elif family == "ne":
        rm, rp = traces.rho_minus, traces.rho_plus
        rpn = np.where(has_plus, rp, 0.0)
        num = np.zeros((ne, 2))
        num[:, 0] = rm
        num[:, 1] = rpn
        coef = np.where(
            interior,
            w.a_ne * rm + (1.0 - w.a_ne) * rpn,
            np.where(dirichlet, traces.dgD_dt, rm),
        )
    else:  # nd
        num = np.zeros((ne, 2, 2))
        coef = np.empty((ne, 2))
        if method == "mixed":
            dsm, dem = traces.d_s_minus, traces.d_e_minus
            dsp = np.where(has_plus, traces.d_s_plus, 0.0)
            dep = np.where(has_plus, traces.d_e_plus, 0.0)
            num[:, 0, 0] = dsm
            num[:, 0, 1] = -dem
            num[:, 1, 0] = dsp
            num[:, 1, 1] = -dep
            cs, ce = jumps.grad_affine.T
            R = w.nd_response
            xs = R[:, 0, 0] * cs + R[:, 0, 1] * ce
            xe = R[:, 1, 0] * cs + R[:, 1, 1] * ce
            coef[:, 0] = np.where(
                interior, xs + dsp, np.where(dirichlet, traces.dgD_dt, dsm)
            )
            coef[:, 1] = np.where(
                interior, xe - dep, np.where(dirichlet, -traces.dgD_dt, -dem)
            )
        else:  # nonconforming
            rm = traces.rho_minus
            rpn = np.where(has_plus, traces.rho_plus, 0.0)
            num[:, 0, 0] = rm
            num[:, 0, 1] = -rm
            num[:, 1, 0] = rpn
            num[:, 1, 1] = -rpn
            a_nc, b_nc = w.a_nc, w.b_nc
            coef[:, 0] = np.where(
                interior,
                a_nc * rm + (1.0 - a_nc) * rpn,
                np.where(dirichlet, traces.dgD_dt, rm),
            )
            coef[:, 1] = np.where(
                interior,
                b_nc * rm - (1.0 + b_nc) * rpn,
                np.where(dirichlet, -traces.dgD_dt, -rm),
            )

    if num.ndim == 2:
        corr = coef[:, None] - num
        corr[~has_plus, 1] = 0.0
    else:
        corr = coef[:, None, :] - num
        corr[~has_plus, 1, :] = 0.0

    kind = "flux" if family in FLUX_FAMILIES else "gradient"
    fld = RecoveredField(
        mesh=mesh,
        method=method,
        family=family,
        kind=kind,
        coef=coef,
        numerical_side=num,
        correction_side=corr,
        weights=w,
    )
    if validate:
        _validate_against_oracle(fld, A, jumps, mode=validate)
    return fld


# ----------------------------------------------------------------------
# independent patch oracle


def _monomial_basis(family: str, center: np.ndarray):
    """Raw local space as callables evaluating (npts, 2) -> (ndof, npts, 2)."""
    cx, cy = center

    def ev(points):
        x = points[:, 0] - cx
        y = points[:, 1] - cy
        zero = np.zeros_like(x)
        one = np.ones_like(x)
        if family == "rt":
            fields = [
                np.stack([one, zero], axis=1),
                np.stack([zero, one], axis=1),
                np.stack([x, y], axis=1),
            ]
        elif family == "ne":
            fields = [
                np.stack([one, zero], axis=1),
                np.stack([zero, one], axis=1),
                np.stack([y, -x], axis=1),
            ]
        else:  # bdm / nd: full P1^2
            fields = [
                np.stack([one, zero], axis=1),
                np.stack([zero, one], axis=1),
                np.stack([x, zero], axis=1),
                np.stack([y, zero], axis=1),
                np.stack([zero, x], axis=1),
                np.stack([zero, y], axis=1),
            ]
        return np.stack(fields)

    return ev


@dataclass
class OracleCorrection:
    """Correction field from the constrained least-squares patch solve.

    ``corr_minus`` / ``corr_plus`` are the side coefficients with respect to
    the global edge dofs ((1,) or (2,) arrays; ``corr_plus`` is None on
    boundary edges).  ``evaluate(side, points)`` evaluates the raw
    correction field for the lifting / optimality checks.
    """

    edge: int
    family: str
    corr_minus: np.ndarray
    corr_plus: np.ndarray | None
    _basis_eval: tuple = field(repr=False, default=None)
    _coef: np.ndarray = field(repr=False, default=None)

    def evaluate(self, side: int, points: np.ndarray) -> np.ndarray:
        ev = self._basis_eval[side]
        nd = ev(np.asarray(points, dtype=float))
        n = nd.shape[0]
        c = self._coef[side * n : (side + 1) * n] if side else self._coef[:n]
        return np.tensordot(c, nd, axes=1)


def local_oracle(mesh: Mesh, A: CoefficientField, F: int, jump, family: str) -> OracleCorrection:
    """Ground-truth patch correction by constrained least squares.

    Minimizes the A^{-1}- (flux) or A- (gradient) weighted L2 norm over raw
    monomial element spaces subject to the trace constraints: the normal
    (tangential) jump across ``F`` equals minus the given jump and all outer
    patch traces vanish.  ``jump`` is a scalar for rt/bdm/ne and an
    endpoint pair ``(c_s, c_e)`` for nd.  This routine never uses the
    closed-form weights, so it serves as their independent check.
    """
    lab = int(mesh.edge_label[F])
    is_flux = family in FLUX_FAMILIES
    if (is_flux and lab == DIRICHLET) or (not is_flux and lab == NEUMANN):
        nd = 1 if family in ("rt", "ne") else 2
        return OracleCorrection(
            edge=F,
            family=family,
            corr_minus=np.zeros(nd),
            corr_plus=None,
            _basis_eval=(lambda p: np.zeros((1, len(p), 2)),) * 2,
            _coef=np.zeros(2),
        )

    elements = [t for t in mesh.edge_tris[F] if t >= 0]
    nside = len(elements)
    evs = []
    ndof_el = []
    for t in elements:
        center = mesh.vertices[mesh.triangles[t]].mean(axis=0)
        evs.append(_monomial_basis(family, center))
        ndof_el.append(3 if family in ("rt", "ne") else 6)
    offsets = np.concatenate([[0], np.cumsum(ndof_el)])
    ntot = offsets[-1]

    weight = A.inv if is_flux else A.tensor
    direction = mesh.edge_normal[F] if is_flux else mesh.edge_tangent[F]

    # energy matrix by the 3-midpoint rule (exact for quadratics)
    M = np.zeros((ntot, ntot))
    for i, t in enumerate(elements):
        c = mesh.vertices[mesh.triangles[t]]
        pts = 0.5 * (c[[1, 2, 0]] + c[[2, 0, 1]])
        vals = evs[i](pts)  # (nd, 3, 2)
        flat = vals.reshape(len(vals), -1)
        wflat = (vals @ weight[t].T).reshape(len(vals), -1)
        blk = (wflat @ flat.T) * (mesh.tri_area[t] / 3.0)
        M[offsets[i] : offsets[i + 1], offsets[i] : offsets[i + 1]] = blk

    # constraint rows: trace functionals at edge points
    def trace_rows(i, eid, npts):
        s = mesh.vertices[mesh.edges[eid, 0]]
        e = mesh.vertices[mesh.edges[eid, 1]]
        pts = np.array([0.5 * (s + e)]) if npts == 1 else np.array([s, e])
        d = mesh.edge_normal[eid] if is_flux else mesh.edge_tangent[eid]
        vals = evs[i](pts)  # (nd, npts, 2)
        rows = np.zeros((npts, ntot))
        rows[:, offsets[i] : offsets[i + 1]] = (vals @ d).T
        return rows

    npts_f = 1 if family in ("rt", "ne") else 2
    C_rows = []
    d_vals = []
    # jump constraint on F: [trace] = -jump
    jf = np.atleast_1d(np.asarray(jump, dtype=float))
    if family in ("rt", "ne"):
        target = np.array([-jf[0]])
    else:
        if jf.size == 1:
            jf = np.array([jf[0], jf[0]])
        target = -jf
    rowsF = trace_rows(0, F, npts_f)
    if nside == 2:
        rowsF = rowsF - trace_rows(1, F, npts_f)
    C_rows.append(rowsF)
    d_vals.append(target)
    # zero outer traces
    for i, t in enumerate(elements):
        for eid in mesh.tri_edges[t]:
            if eid == F:
                continue
            rows = trace_rows(i, int(eid), npts_f)
            C_rows.append(rows)
            d_vals.append(np.zeros(rows.shape[0]))
    C = np.vstack(C_rows)
    d = np.concatenate(d_vals)

    nc = C.shape[0]
    kkt = np.zeros((ntot + nc, ntot + nc))
    kkt[:ntot, :ntot] = M
    kkt[:ntot, ntot:] = C.T
    kkt[ntot:, :ntot] = C
    rhs = np.concatenate([np.zeros(ntot), d])
    sol = np.linalg.solve(kkt, rhs)
    coef = sol[:ntot]

    # extract side coefficients from endpoint / midpoint traces
    s = mesh.vertices[mesh.edges[F, 0]]
    e = mesh.vertices[mesh.edges[F, 1]]

    def side_coef(i):
        block = coef[offsets[i] : offsets[i + 1]]
        if family in ("rt", "ne"):
            mid = np.tensordot(block, evs[i](np.array([0.5 * (s + e)])), axes=1)
            return np.array([mid[0] @ direction])
        vals_s = np.tensordot(block, evs[i](np.array([s, e])), axes=1)  # (2, 2)
        tr = vals_s @ direction
        if is_flux:
            return np.array([tr[0], tr[1]])
        return np.array([tr[0], -tr[1]])

    return OracleCorrection(
        edge=F,
        family=family,
        corr_minus=side_coef(0),
        corr_plus=side_coef(1) if nside == 2 else None,
        _basis_eval=tuple(evs) + ((None,) if nside == 1 else ()),
        _coef=coef,
    )


def _oracle_jumps(fld: RecoveredField, jumps: JumpSet) -> np.ndarray:
    """Per-edge jump argument of :func:`local_oracle` for the field's kind,
    zero on the edges where that jump is not defined."""
    if fld.kind == "flux":
        return np.where(jumps.flux_mask, jumps.flux, 0.0)
    if fld.method == "mixed":
        return np.where(jumps.grad_mask[:, None], jumps.grad_affine, 0.0)
    return np.where(jumps.grad_mask, jumps.grad, 0.0)


def _validate_against_oracle(fld: RecoveredField, A, jumps: JumpSet, mode="sample"):
    mesh = fld.mesh
    ne = mesh.n_edges
    if mode == "all":
        sample = np.arange(ne)
    else:
        step = max(1, ne // 64)
        sample = np.arange(0, ne, step)
    scale = max(np.abs(fld.correction_side).max(), np.abs(fld.coef).max(), 1e-30)
    jump = _oracle_jumps(fld, jumps)
    for F in sample:
        ora = local_oracle(mesh, A, int(F), jump[F], fld.family)
        mine = np.atleast_1d(fld.correction_side[F, 0])
        diff = np.abs(mine - ora.corr_minus).max()
        if ora.corr_plus is not None:
            mine_p = np.atleast_1d(fld.correction_side[F, 1])
            diff = max(diff, np.abs(mine_p - ora.corr_plus).max())
        if diff > 1e-11 * scale:
            raise RecoveryError(
                f"edge {F} ({fld.method}/{fld.family}): explicit correction "
                f"deviates from the patch oracle by {diff:.3e} "
                f"(scale {scale:.3e})"
            )
