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
The Crouzeix-Raviart edge systems are factored as SPD (SuperLU,
minimum-degree ordering, no pivoting); the P1 systems still take the
general LU of ``spsolve``.  Both share one finite-value and 1e-10
relative-residual check.

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

from .basis import (
    ElementCarry, _accumulate_vertex_vectors, _check_spd, _fill_rows, _side_ends, _side_table
)
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
        _check_spd(tensor)
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
        scale = max(np.abs(tensor).max(), 1.0)
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
        mid = mesh.edge_midpoints(idx)
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


def _solve_checked(mat, rhs, what, spd):
    """Sparse direct solve held to finite values and a 1e-10 relative
    residual.

    ``spd`` factors ``mat`` as symmetric positive definite: SuperLU on the
    minimum-degree ordering of ``A^T + A`` without pivoting, whose factor
    is a temporary of this call.  Otherwise ``spsolve`` factors it as a
    general matrix on the COLAMD ordering, and a singular matrix gives
    non-finite values.  Either way a singular system raises
    :class:`SolverError` naming ``what``.
    """
    try:
        if spd:
            # (relax, panel_size) = (1, 4) is pinned.  Relaxed supernodes
            # keep the fill but made the 98k-edge Crouzeix-Raviart
            # factorization 9x slower at the default relax and 8x at
            # relax=4, and scipy 1.17.1's splu has crashed at interpreter
            # exit with (40, 32), (10, 32), and (20, 4) then (40, 4)
            x = spla.splu(
                mat,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                relax=1,
                panel_size=4,
                options=dict(SymmetricMode=True),
            ).solve(rhs)
        else:
            # the P1 systems stay on the general LU, whose rounding the
            # adaptive runs' Doerfler ties depend on; this branch is deleted
            # once marking is robust to ties (ROADMAP item 2) and P1 moves
            # to the SPD factorization
            x = spla.spsolve(mat, rhs)
    except RuntimeError as exc:
        raise SolverError(f"{what} factorization failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{what} solve returned non-finite values")
    res = mat @ x - rhs
    rel = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-30)
    if not np.isfinite(rel) or rel > 1e-10:
        raise SolverError(f"{what} residual {rel:.3e} exceeds 1e-10")
    return x


def _assemble(local, dofs, n):
    """Sparse (n, n) matrix from element blocks ``local`` (nt, 3, 3) on the
    element dof map ``dofs`` (nt, 3).  The triplets are built in the 32-bit
    index type that the sparse matrix stores anyway."""
    dofs = dofs.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _p1_stiffness(
    mesh: Mesh, A: CoefficientField, carry: ElementCarry | None = None
) -> np.ndarray:
    """(nt, 3, 3) element blocks ``int_K A grad lambda_m . grad lambda_l``.

    With ``carry``, kept triangles with bitwise equal tensor rows take
    their parent's blocks (see :func:`afemrec.recovery.patch_weights`), and
    ``carry`` keeps the blocks for the next mesh.
    """
    carry = ElementCarry() if carry is None else carry
    out, todo = carry.blocks("stiffness", (mesh.n_triangles, 3, 3))

    def kernel(t):
        g = np.take(mesh.grad_lambda, t, axis=0)  # (m, 3, 2)
        Ag = np.einsum("tij,tlj->tli", np.take(A.tensor, t, axis=0), g)
        return np.einsum("tli,tmi->tlm", Ag, g) * mesh.tri_area[t, None, None]

    _fill_rows(out, np.flatnonzero(todo), kernel)
    return out


def _solve_stiffness(mesh, A, dofs, scale, b, u, fixed, what, carry, spd):
    """Solve ``K u = b`` for the dofs not in ``fixed``, whose values ``u``
    already holds; returns ``u``.  ``K`` is assembled from ``scale``, a
    power of two, times the P1 stiffness blocks on the element dof map
    ``dofs``, and factored as chosen by ``spd`` (see :func:`_solve_checked`).

    Only the free rows of ``K`` outlive the assembly and only the free block
    reaches the factorization, so neither the full matrix nor its triplets
    are alive while the sparse factors are.
    """
    free = np.ones(len(b), dtype=bool)
    free[fixed] = False
    free = np.flatnonzero(free)
    if free.size:
        K = _assemble(_p1_stiffness(mesh, A, carry), dofs, len(b))[free]
        # a power-of-two scale of the summed entries equals the sum of the
        # scaled blocks bit for bit
        K.data *= scale
        rhs = b[free] - K[:, fixed] @ u[fixed]
        K = K[:, free].tocsc()
        u[free] = _solve_checked(K, rhs, what, spd)
    return u


def solve_conforming(
    mesh: Mesh, A: CoefficientField, data: ProblemData, carry: ElementCarry | None = None
) -> DiscreteSolution:
    """P1 Galerkin solution with Dirichlet interpolation at vertices.

    ``carry`` (here and in the other solvers) is an adaptive run's
    :class:`ElementCarry`, which supplies and takes the stiffness blocks.
    """
    nv = mesh.n_vertices
    fm = _rhs_midpoint_rule(mesh, data.f)  # (nt, 3)
    w = mesh.tri_area / 3.0
    # lambda_l vanishes at the midpoint opposite vertex l, equals 1/2 at the
    # rest; the vertex loads are added for l = 0, 1, 2 in turn, in element
    # order, which is bincount's input order
    loads = np.stack([0.5 * w * (fm.sum(axis=1) - fm[:, l]) for l in range(3)])
    neu = mesh.neumann_edges
    # then half of each Neumann edge's outflow from each endpoint, in edge order
    half = _neumann_values(mesh, data)[neu] * mesh.edge_length[neu] / 2.0
    idx = np.concatenate([mesh.triangles.T.ravel(), mesh.edges[neu].ravel()])
    b = np.bincount(idx, np.concatenate([loads.ravel(), -np.repeat(half, 2)]), minlength=nv)
    del fm, loads, idx

    u = np.zeros(nv)
    fixed = mesh.dirichlet_vertices
    u[fixed] = _eval(data.g_D, mesh.vertices[fixed])
    u = _solve_stiffness(
        mesh, A, mesh.triangles, 1.0, b, u, fixed, "conforming", carry, spd=False
    )
    return DiscreteSolution(method="conforming", mesh=mesh, u_vertex=u)


def _solve_edge_system(mesh: Mesh, A: CoefficientField, data: ProblemData, loads, what, carry):
    """Crouzeix-Raviart system on the edges with element loads ``loads``
    (nt, 3): the flux ``g_N h`` is taken out on Neumann edges and ``g_D``
    fixed at the Dirichlet edge midpoints."""
    ne = mesh.n_edges
    neu = mesh.neumann_edges
    outflow = _neumann_values(mesh, data)[neu] * mesh.edge_length[neu]
    # the loads of slot 0, 1, 2 in turn, in element order, then the outflow
    idx = np.concatenate([mesh.tri_edges.T.ravel(), neu])
    b = np.bincount(idx, np.concatenate([loads.T.ravel(), -outflow]), minlength=ne)

    u = np.zeros(ne)
    fixed = mesh.dirichlet_edges
    u[fixed] = _eval(data.g_D, mesh.edge_midpoints(fixed))
    # grad of the CR basis on edge l is -2 grad lambda_l
    return _solve_stiffness(mesh, A, mesh.tri_edges, 4.0, b, u, fixed, what, carry, spd=True)


def solve_nonconforming(
    mesh: Mesh, A: CoefficientField, data: ProblemData, carry: ElementCarry | None = None
) -> DiscreteSolution:
    """Crouzeix-Raviart solution with midpoint Dirichlet interpolation."""
    loads = (mesh.tri_area / 3.0)[:, None] * _rhs_midpoint_rule(mesh, data.f)
    u = _solve_edge_system(mesh, A, data, loads, "nonconforming", carry)
    return DiscreteSolution(method="nonconforming", mesh=mesh, u_edge=u)


def solve_mixed(
    mesh: Mesh, A: CoefficientField, data: ProblemData, carry: ElementCarry | None = None
) -> DiscreteSolution:
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
    lam = _solve_edge_system(mesh, A, data, loads, "mixed", carry)

    cr = DiscreteSolution(method="nonconforming", mesh=mesh, u_edge=lam)
    flux = -np.einsum("tij,tj->ti", A.tensor, cr.element_gradients())
    km = mesh.edge_tris[:, 0]
    # (x - x_K) . n_F = H_F / 3 on the edge, H_F the height of K- over it
    height = 2.0 * np.take(mesh.tri_area, km) / mesh.edge_length
    sigma = (np.take(flux, km, axis=0) * mesh.edge_normal).sum(axis=1)
    sigma += np.take(fbar, km) * height / 6.0
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
    # the dofs measure the outward normal of K-, so they change sign on K+
    is_minus = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.n_triangles)[:, None]
    return (coef[mesh.tri_edges] * np.where(is_minus, 1, -1) * h).sum(axis=1) / mesh.tri_area


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
        for j, v in enumerate(_side_ends(mesh.edge_slot[F, side], side)[:k]):
            vals = field(t, v)
            out[F, side, j] = (vals * np.take(direction, F, axis=0)).sum(axis=1)
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
        tr.flux = _per_side(mesh, mesh.edge_normal, lambda t, p: np.take(sigma_el, t, axis=0))
        if solution.method == "nonconforming":
            tr.grad = _per_side(mesh, mesh.edge_tangent, lambda t, p: np.take(grad, t, axis=0))
        return tr

    if solution.method == "mixed":
        rho = -np.einsum("tij,tvj->tvi", A.inv, solution.flux_vertex_vectors())
        rho = rho.reshape(-1, 2)  # row 3 t + v
        tr.grad = _per_side(
            mesh, mesh.edge_tangent, lambda t, v: np.take(rho, 3 * t + v, axis=0), k=2
        )
        return tr

    raise ValueError(f"unknown method {solution.method!r}")
