"""The three discretizations of the diffusion problem and their edge traces.

* P1 conforming Galerkin (`solve_conforming`),
* lowest-order Raviart-Thomas / P0 mixed method, hybridized (`solve_mixed`),
* Crouzeix-Raviart nonconforming (`solve_nonconforming`).

All three take one path: element blocks, one assembly, Dirichlet values
fixed and one checked direct solve of an SPD system.  The mixed method
condenses each element onto one multiplier per edge, solved like the
Crouzeix-Raviart edge values, and recovers flux and value elementwise.
Its flux's vertex-vector form is built once per solution, by the side
table and accumulator of :mod:`afemrec.basis` that the recoveries use.

All data callables (``f``, ``g_D``, ``g_N``, exact solution and gradient)
take coordinate arrays ``(x, y)`` and must broadcast.  Dirichlet data is
imposed by interpolation at vertices (P1) and edge midpoints (CR / RT
multipliers), which is exact for the piecewise-affine boundary data the
formulas assume.  Right-hand sides use the 3-point edge-midpoint rule, exact
for quadratic integrands.

Assembly is vectorized over elements; outputs are immutable arrays, so all
post-solve queries are safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import _accumulate_vertex_vectors, _side_table
from .mesh import Mesh

__all__ = [
    "CoefficientField",
    "ProblemData",
    "DiscreteSolution",
    "EdgeTraces",
    "SolverError",
    "solve_conforming",
    "solve_mixed",
    "solve_nonconforming",
    "edge_traces",
    "mixed_divergence",
]


class SolverError(RuntimeError):
    """Linear solve failed or violated its accuracy contract."""


class CoefficientField:
    """Per-element constant SPD 2x2 diffusion tensor.

    ``tensor`` is (nt, 2, 2); ``inv`` its elementwise inverse; ``scalar`` is
    the (nt,) isotropic view when every ``A_K = alpha_K * I``, else None.
    """

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim != 3 or tensor.shape[1:] != (2, 2):
            raise ValueError("coefficient tensor must have shape (nt, 2, 2)")
        scale = max(np.abs(tensor).max(), 1.0)
        if np.abs(tensor[:, 0, 1] - tensor[:, 1, 0]).max() > 1e-14 * scale:
            raise ValueError("coefficient tensor is not symmetric")
        det = tensor[:, 0, 0] * tensor[:, 1, 1] - tensor[:, 0, 1] * tensor[:, 1, 0]
        if np.any(tensor[:, 0, 0] <= 0) or np.any(det <= 0):
            raise ValueError("coefficient tensor is not positive definite")
        self.tensor = tensor
        off = tensor[:, [0, 1], [1, 0]]
        if (
            np.all(off == 0.0)
            and not np.signbit(off).any()
            and np.array_equal(tensor[:, 0, 0], tensor[:, 1, 1])
        ):
            # exactly alpha * I: the LU solve reduces to 1 / alpha, bit for bit
            self.inv = np.zeros_like(tensor)
            self.inv[:, 0, 0] = self.inv[:, 1, 1] = 1.0 / tensor[:, 0, 0]
        else:
            self.inv = np.linalg.inv(tensor)
        iso = (
            np.abs(tensor[:, 0, 1]).max() <= 1e-14 * scale
            and np.abs(tensor[:, 0, 0] - tensor[:, 1, 1]).max() <= 1e-14 * scale
        )
        self.scalar = tensor[:, 0, 0].copy() if iso else None

    @classmethod
    def isotropic(cls, mesh: Mesh, alpha) -> "CoefficientField":
        """Scalar coefficient: constant, per-element array, or callable of
        the barycenter coordinates."""
        if callable(alpha):
            vals = _eval(alpha, mesh.tri_barycenters())
        else:
            vals = np.broadcast_to(
                np.asarray(alpha, dtype=float), (mesh.n_triangles,)
            ).astype(float)
        tensor = np.zeros((mesh.n_triangles, 2, 2))
        tensor[:, 0, 0] = vals
        tensor[:, 1, 1] = vals
        return cls(tensor)

    @classmethod
    def from_tensor(cls, mesh: Mesh, A) -> "CoefficientField":
        """Full tensor coefficient: one 2x2 for all, per-element (nt, 2, 2),
        or callable of the barycenter coordinates returning (nt, 2, 2)."""
        if callable(A):
            tensor = _eval(A, mesh.tri_barycenters())
        else:
            A = np.asarray(A, dtype=float)
            if A.shape == (2, 2):
                tensor = np.broadcast_to(A, (mesh.n_triangles, 2, 2)).copy()
            else:
                tensor = A
        return cls(tensor)

    def require_scalar(self) -> np.ndarray:
        if self.scalar is None:
            raise ValueError("operation requires a scalar (isotropic) coefficient")
        return self.scalar


@dataclass
class ProblemData:
    """Source, boundary data, and (optionally) the exact solution.

    ``g_D`` should be piecewise affine and ``g_N`` piecewise constant per
    boundary edge for the boundary treatment to be exact; non-affine ``g_D``
    (as in the checkerboard benchmark) is imposed by interpolation.
    """

    f: callable
    g_D: callable
    g_N: callable | None = None
    exact_u: callable | None = None
    exact_grad: callable | None = None
    singular_points: tuple = ()

    @property
    def has_exact(self) -> bool:
        return self.exact_u is not None and self.exact_grad is not None


@dataclass
class DiscreteSolution:
    """Tagged union over the three methods.

    conforming      -> ``u_vertex`` (nv,)
    mixed           -> ``flux_edge`` (ne,) RT coefficients + ``u_tri`` (nt,)
    nonconforming   -> ``u_edge`` (ne,) midpoint values
    """

    method: str
    mesh: Mesh
    u_vertex: np.ndarray | None = None
    u_edge: np.ndarray | None = None
    flux_edge: np.ndarray | None = None
    u_tri: np.ndarray | None = None
    flux_vertex: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # the mixed flux is the RT field with flux_edge on both sides
        if self.method == "mixed":
            coef = np.repeat(self.flux_edge[:, None], 2, axis=1)
            table = _side_table(self.mesh, "rt")
            self.flux_vertex = _accumulate_vertex_vectors(table, coef, self.mesh.n_triangles)

    def element_gradients(self) -> np.ndarray:
        """(nt, 2) broken gradient for the P1 / CR fields."""
        mesh = self.mesh
        if self.method == "conforming":
            vals = self.u_vertex[mesh.triangles]  # (nt, 3)
            return np.einsum("tl,tld->td", vals, mesh.grad_lambda)
        if self.method == "nonconforming":
            vals = self.u_edge[mesh.tri_edges]
            return np.einsum("tl,tld->td", vals, -2.0 * mesh.grad_lambda)
        raise ValueError("element_gradients needs a P1 or CR solution")

    def flux_vertex_vectors(self) -> np.ndarray:
        """(nt, 3, 2) vertex-vector form of the mixed flux: the RT0 field
        is ``sum_v lambda_v C[:, v]``."""
        if self.method != "mixed":
            raise ValueError("flux_vertex_vectors needs a mixed solution")
        return self.flux_vertex


@dataclass
class EdgeTraces:
    """Per-edge traces of the numerical flux / gradient plus boundary data.

    ``flux`` (conforming and nonconforming: constant normal traces) and
    ``grad`` (nonconforming: constant tangential traces; mixed: affine
    tangential traces by their values at ``s_F, e_F``) are ``[edge, side,
    value]`` arrays of shape (ne, 2, k): side 0 is ``K-`` and side 1 ``K+``,
    and k is 1 for a constant and 2 for an affine trace.  Entries are NaN
    where a side does not exist.  ``g_neumann`` holds the Neumann data per
    Neumann edge and ``dgD_dt`` the tangential slope of the interpolated
    Dirichlet data per Dirichlet edge.
    """

    method: str
    flux: np.ndarray | None = None
    grad: np.ndarray | None = None
    g_neumann: np.ndarray | None = None
    dgD_dt: np.ndarray | None = None


# ----------------------------------------------------------------------
# assembly helpers


def _eval(fun, pts):
    return np.asarray(fun(pts[..., 0], pts[..., 1]), dtype=float)


def _rhs_midpoint_rule(mesh: Mesh, f) -> np.ndarray:
    """(nt, 3) values of f at the edge midpoints (opposite-vertex order)."""
    return _eval(f, mesh.tri_edge_midpoints())


def _neumann_values(mesh: Mesh, data: ProblemData) -> np.ndarray:
    g = np.full(mesh.n_edges, np.nan)
    idx = mesh.neumann_edges
    if idx.size:
        if data.g_N is None:
            raise SolverError("problem has Neumann edges but no g_N data")
        mid = mesh.edge_midpoints()[idx]
        g[idx] = _eval(data.g_N, mid)
    return g


def _dirichlet_tangential_slope(mesh: Mesh, data: ProblemData) -> np.ndarray:
    dg = np.full(mesh.n_edges, np.nan)
    idx = mesh.dirichlet_edges
    if idx.size:
        ps = mesh.vertices[mesh.edges[idx, 0]]
        pe = mesh.vertices[mesh.edges[idx, 1]]
        dg[idx] = (_eval(data.g_D, pe) - _eval(data.g_D, ps)) / mesh.edge_length[idx]
    return dg


def _solve_checked(mat, rhs, what):
    """Sparse direct solve held to finite values and a 1e-10 relative
    residual."""
    x = spla.spsolve(mat, rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{what} solve returned non-finite values")
    res = mat @ x - rhs
    rel = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-30)
    if not np.isfinite(rel) or rel > 1e-10:
        raise SolverError(f"{what} residual {rel:.3e} exceeds 1e-10")
    return x


def _assemble(local, dofs, n):
    """Sparse (n, n) matrix from element blocks ``local`` (nt, 3, 3) on the
    element dof map ``dofs`` (nt, 3)."""
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _p1_stiffness(mesh: Mesh, A: CoefficientField) -> np.ndarray:
    """(nt, 3, 3) element blocks ``int_K A grad lambda_m . grad lambda_l``."""
    g = mesh.grad_lambda  # (nt, 3, 2)
    Ag = np.einsum("tij,tlj->tli", A.tensor, g)
    return np.einsum("tli,tmi->tlm", Ag, g) * mesh.tri_area[:, None, None]


def _solve_dirichlet(K, b, u, fixed, what):
    """Solve ``K u = b`` for the dofs not in ``fixed``, whose values ``u``
    already holds; returns ``u``."""
    free = np.setdiff1d(np.arange(len(b)), fixed)
    if free.size:
        Kff = K[free][:, free].tocsc()
        rhs = b[free] - K[free][:, fixed] @ u[fixed]
        u[free] = _solve_checked(Kff, rhs, what)
    return u


def solve_conforming(mesh: Mesh, A: CoefficientField, data: ProblemData) -> DiscreteSolution:
    """P1 Galerkin solution with Dirichlet interpolation at vertices."""
    nv = mesh.n_vertices
    K = _assemble(_p1_stiffness(mesh, A), mesh.triangles, nv)

    b = np.zeros(nv)
    fm = _rhs_midpoint_rule(mesh, data.f)  # (nt, 3)
    w = mesh.tri_area / 3.0
    # lambda_l vanishes at the midpoint opposite vertex l, equals 1/2 at the rest
    for l in range(3):
        contrib = 0.5 * w * (fm.sum(axis=1) - fm[:, l])
        np.add.at(b, mesh.triangles[:, l], contrib)

    gN = _neumann_values(mesh, data)
    neu = mesh.neumann_edges
    # half of each edge's boundary integral to each endpoint, in edge order
    half = gN[neu] * mesh.edge_length[neu] / 2.0
    np.subtract.at(b, mesh.edges[neu].ravel(), np.repeat(half, 2))

    u = np.zeros(nv)
    fixed = mesh.dirichlet_vertices
    u[fixed] = _eval(data.g_D, mesh.vertices[fixed])
    u = _solve_dirichlet(K, b, u, fixed, "conforming")
    return DiscreteSolution(method="conforming", mesh=mesh, u_vertex=u)


def _solve_edge_system(mesh: Mesh, A: CoefficientField, data: ProblemData, loads, what):
    """Crouzeix-Raviart system on the edges with element loads ``loads``
    (nt, 3): the flux ``g_N h`` is taken out on Neumann edges and ``g_D``
    fixed at the Dirichlet edge midpoints."""
    ne = mesh.n_edges
    # grad of the CR basis on edge l is -2 grad lambda_l
    K = _assemble(4.0 * _p1_stiffness(mesh, A), mesh.tri_edges, ne)

    b = np.zeros(ne)
    for l in range(3):
        np.add.at(b, mesh.tri_edges[:, l], loads[:, l])

    gN = _neumann_values(mesh, data)
    neu = mesh.neumann_edges
    b[neu] -= gN[neu] * mesh.edge_length[neu]

    u = np.zeros(ne)
    fixed = mesh.dirichlet_edges
    u[fixed] = _eval(data.g_D, mesh.edge_midpoints()[fixed])
    return _solve_dirichlet(K, b, u, fixed, what)


def solve_nonconforming(mesh: Mesh, A: CoefficientField, data: ProblemData) -> DiscreteSolution:
    """Crouzeix-Raviart solution with midpoint Dirichlet interpolation."""
    loads = (mesh.tri_area / 3.0)[:, None] * _rhs_midpoint_rule(mesh, data.f)
    u = _solve_edge_system(mesh, A, data, loads, "nonconforming")
    return DiscreteSolution(method="nonconforming", mesh=mesh, u_edge=u)


def solve_mixed(mesh: Mesh, A: CoefficientField, data: ProblemData) -> DiscreteSolution:
    """RT0 x P0 mixed solution, by hybridization.

    Condensing each element's outward fluxes and value onto one multiplier
    ``lambda`` per edge leaves, for constant ``A_K``, the Crouzeix-Raviart
    stiffness block with the load ``|K| fbar / 3`` per edge, ``fbar`` the
    mean of ``f`` (Marini, SINUM 1985).  Then ``sigma = -A grad_h lambda +
    fbar (x - x_K) / 2`` and ``u = mean(lambda) + fbar int_K A^{-1}
    (x - x_K).(x - x_K) / (4 |K|)``, ``x_K`` the barycenter.  Each edge
    takes its flux from ``K-``, a Neumann edge exactly ``g_N``.
    """
    fbar = _rhs_midpoint_rule(mesh, data.f).mean(axis=1)
    loads = np.repeat((mesh.tri_area * fbar / 3.0)[:, None], 3, axis=1)
    lam = _solve_edge_system(mesh, A, data, loads, "mixed")

    cr = DiscreteSolution(method="nonconforming", mesh=mesh, u_edge=lam)
    flux = -np.einsum("tij,tj->ti", A.tensor, cr.element_gradients())
    km = mesh.edge_tris[:, 0]
    # (x - x_K) . n_F = H_F / 3 on the edge, H_F the height of K- over it
    height = 2.0 * mesh.tri_area[km] / mesh.edge_length
    sigma = (flux[km] * mesh.edge_normal).sum(axis=1) + fbar[km] * height / 6.0
    neu = mesh.neumann_edges
    sigma[neu] = _neumann_values(mesh, data)[neu]

    d = mesh.tri_coords() - mesh.tri_barycenters()[:, None]
    # int_K (x - x_K)(x - x_K)^T = |K| / 12 sum_v d_v d_v^T
    moment = np.einsum("tij,tvj,tvi->t", A.inv, d, d) / 48.0
    u = lam[mesh.tri_edges].mean(axis=1) + fbar * moment
    return DiscreteSolution(method="mixed", mesh=mesh, flux_edge=sigma, u_tri=u)


def mixed_divergence(mesh: Mesh, coef: np.ndarray) -> np.ndarray:
    """(nt,) elementwise divergence of an RT0 field."""
    h = mesh.edge_length[mesh.tri_edges]
    return (coef[mesh.tri_edges] * mesh.tri_edge_sign * h).sum(axis=1) / mesh.tri_area


def _per_side(mesh: Mesh, direction, field, k=1) -> np.ndarray:
    """``[edge, side, value]`` array (ne, 2, k) of the traces
    ``field(t, v) . direction`` of a vector field.

    ``field(t, v)`` gives the (m, 2) field values on the side elements ``t``
    at their local vertices ``v``: ``s_F`` for ``k = 1`` (a constant trace),
    ``s_F`` then ``e_F`` for ``k = 2``.  Entries are NaN where an edge has no
    such side.
    """
    out = np.full((mesh.n_edges, 2, k), np.nan)
    for side in (0, 1):
        F = np.flatnonzero(mesh.edge_tris[:, side] >= 0)
        t = mesh.edge_tris[F, side]
        for j, loc in enumerate((mesh.edge_loc_s, mesh.edge_loc_e)[:k]):
            vals = field(t, loc[F, side])
            out[F, side, j] = (vals * direction[F]).sum(axis=1)
    return out


def edge_traces(
    mesh: Mesh, A: CoefficientField, solution: DiscreteSolution, data: ProblemData
) -> EdgeTraces:
    """Side traces on every edge for the given discrete solution.

    Conforming / nonconforming: constant normal traces of the numerical flux
    ``-A grad_h u`` per side (plus constant tangential gradient traces for
    CR).  Mixed: affine tangential traces of ``-A^{-1} sigma_m`` recorded by
    their endpoint values.
    """
    if solution.mesh is not mesh:
        raise ValueError("solution belongs to a different mesh")
    tr = EdgeTraces(method=solution.method)
    tr.g_neumann = _neumann_values(mesh, data)
    tr.dgD_dt = _dirichlet_tangential_slope(mesh, data)

    if solution.method in ("conforming", "nonconforming"):
        grad = solution.element_gradients()
        sigma_el = -np.einsum("tij,tj->ti", A.tensor, grad)
        tr.flux = _per_side(mesh, mesh.edge_normal, lambda t, p: sigma_el[t])
        if solution.method == "nonconforming":
            tr.grad = _per_side(mesh, mesh.edge_tangent, lambda t, p: grad[t])
        return tr

    if solution.method == "mixed":
        rho = -np.einsum("tij,tvj->tvi", A.inv, solution.flux_vertex_vectors())
        tr.grad = _per_side(mesh, mesh.edge_tangent, lambda t, v: rho[t, v], k=2)
        return tr

    raise ValueError(f"unknown method {solution.method!r}")
