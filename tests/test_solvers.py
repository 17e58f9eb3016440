import math
import random

import numpy as np
import pytest

from afemrec.basis import TRI_QUAD_BARY, TRI_QUAD_WEIGHTS
from afemrec.mesh import build_mesh, initial_kellogg_mesh, refine, unit_square_mesh
from afemrec.problems import kellogg_problem
from afemrec.solvers import (
    CoefficientField,
    DiscreteSolution,
    ProblemData,
    SolverError,
    edge_traces,
    mixed_divergence,
    solve_conforming,
    solve_mixed,
    solve_nonconforming,
)
from test_mesh_properties import _mixed_square
from test_recovery import random_spd
from test_recovery_properties import _data

TENSOR = np.array([[2.0, 0.5], [0.5, 1.0]])
SOLVERS = {
    "conforming": solve_conforming,
    "mixed": solve_mixed,
    "nonconforming": solve_nonconforming,
}


def affine_data(A):
    """u = 1 + 2x - y with matching flux data; f = 0 for constant A."""
    grad = np.array([2.0, -1.0])
    sigma = -A @ grad

    def u(x, y):
        return 1.0 + 2.0 * np.asarray(x, float) - np.asarray(y, float)

    return u, grad, sigma


def right_edge_neumann(A):
    """Labeler putting Neumann data on the x = 1 side of the unit square."""
    sigma = -A @ np.array([2.0, -1.0])

    def labeler(a, b):
        return "N" if 0.5 * (a + b)[0] > 0.999 else "D"

    def g_N(x, y):
        return np.full_like(np.asarray(x, float), sigma @ np.array([1.0, 0.0]))

    return labeler, g_N


@pytest.mark.parametrize("tensor", [np.eye(2), TENSOR])
@pytest.mark.parametrize("method", ["conforming", "mixed", "nonconforming"])
def test_affine_exactness(tensor, method):
    mesh = unit_square_mesh(3)
    A = CoefficientField.from_tensor(mesh, tensor)
    u, grad, sigma = affine_data(tensor)
    data = ProblemData(f=lambda x, y: np.zeros_like(np.asarray(x, float)), g_D=u)
    if method == "conforming":
        sol = solve_conforming(mesh, A, data)
        vals = u(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.abs(sol.u_vertex - vals).max() < 1e-10
    elif method == "nonconforming":
        sol = solve_nonconforming(mesh, A, data)
        mid = mesh.edge_midpoints()
        assert np.abs(sol.u_edge - u(mid[:, 0], mid[:, 1])).max() < 1e-10
    else:
        sol = solve_mixed(mesh, A, data)
        exact_coef = mesh.edge_normal @ sigma
        assert np.abs(sol.flux_edge - exact_coef).max() < 1e-10
        bary = mesh.tri_barycenters()
        assert np.abs(sol.u_tri - u(bary[:, 0], bary[:, 1])).max() < 1e-10


@pytest.mark.parametrize("method", ["conforming", "mixed", "nonconforming"])
def test_affine_exactness_with_neumann(method):
    labeler, g_N = right_edge_neumann(TENSOR)
    mesh = build_mesh(
        unit_square_mesh(3).vertices,
        unit_square_mesh(3).triangles,
        boundary_labeler=labeler,
    )
    A = CoefficientField.from_tensor(mesh, TENSOR)
    u, grad, sigma = affine_data(TENSOR)
    data = ProblemData(
        f=lambda x, y: np.zeros_like(np.asarray(x, float)), g_D=u, g_N=g_N
    )
    if method == "conforming":
        sol = solve_conforming(mesh, A, data)
        vals = u(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.abs(sol.u_vertex - vals).max() < 1e-10
    elif method == "nonconforming":
        sol = solve_nonconforming(mesh, A, data)
        mid = mesh.edge_midpoints()
        assert np.abs(sol.u_edge - u(mid[:, 0], mid[:, 1])).max() < 1e-10
    else:
        sol = solve_mixed(mesh, A, data)
        assert np.abs(sol.flux_edge - mesh.edge_normal @ sigma).max() < 1e-10


def test_zero_data_gives_zero():
    mesh = unit_square_mesh(2)
    A = CoefficientField.isotropic(mesh, 3.0)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    data = ProblemData(f=zero, g_D=zero)
    assert np.abs(solve_conforming(mesh, A, data).u_vertex).max() < 1e-14
    assert np.abs(solve_nonconforming(mesh, A, data).u_edge).max() < 1e-14
    sol = solve_mixed(mesh, A, data)
    assert np.abs(sol.flux_edge).max() < 1e-14
    assert np.abs(sol.u_tri).max() < 1e-14


def test_mixed_constant_flux_coefficients():
    # exact u = x with A = I: flux coefficient on each edge equals -n_1
    mesh = unit_square_mesh(3)
    A = CoefficientField.isotropic(mesh, 1.0)
    data = ProblemData(
        f=lambda x, y: np.zeros_like(np.asarray(x, float)),
        g_D=lambda x, y: np.asarray(x, float),
    )
    sol = solve_mixed(mesh, A, data)
    assert np.abs(sol.flux_edge + mesh.edge_normal[:, 0]).max() < 1e-10


def test_mixed_local_conservation_f_one():
    mesh = unit_square_mesh(4)
    A = CoefficientField.isotropic(mesh, 1.0)
    data = ProblemData(
        f=lambda x, y: np.ones_like(np.asarray(x, float)),
        g_D=lambda x, y: np.zeros_like(np.asarray(x, float)),
    )
    sol = solve_mixed(mesh, A, data)
    assert np.abs(mixed_divergence(mesh, sol.flux_edge) - 1.0).max() < 1e-11


def test_mixed_local_conservation_smooth():
    # div sigma_m = elementwise mean of f, exactly
    mesh = unit_square_mesh(5)
    A = CoefficientField.isotropic(mesh, 1.0)
    f = lambda x, y: np.sin(3 * np.asarray(x, float)) + np.asarray(y, float) ** 2
    data = ProblemData(f=f, g_D=lambda x, y: np.zeros_like(np.asarray(x, float)))
    sol = solve_mixed(mesh, A, data)
    mids = mesh.tri_edge_midpoints()
    fbar = f(mids[..., 0], mids[..., 1]).mean(axis=1)
    div = mixed_divergence(mesh, sol.flux_edge)
    assert np.abs(div - fbar).max() < 1e-10 * max(1.0, np.abs(fbar).max())


def test_galerkin_orthogonality():
    mesh = unit_square_mesh(4)
    A = CoefficientField.from_tensor(mesh, TENSOR)
    f = lambda x, y: np.cos(np.asarray(x, float)) * np.asarray(y, float)
    data = ProblemData(f=f, g_D=lambda x, y: np.asarray(x, float) ** 2 * 0.0)
    sol = solve_conforming(mesh, A, data)

    # rebuild the bilinear and linear forms and test 20 random v_h in S_D
    g = mesh.grad_lambda
    Ag = np.einsum("tij,tlj->tli", A.tensor, g)
    local = np.einsum("tli,tmi->tlm", Ag, g) * mesh.tri_area[:, None, None]
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.dirichlet_vertices)
    rng = np.random.default_rng(42)
    mids = mesh.tri_edge_midpoints()
    fm = f(mids[..., 0], mids[..., 1])
    scale = np.abs(sol.u_vertex).max() + 1.0
    for _ in range(20):
        v = np.zeros(mesh.n_vertices)
        v[free] = rng.normal(size=free.size)
        uv = sol.u_vertex[mesh.triangles]
        vv = v[mesh.triangles]
        a_uv = np.einsum("tl,tlm,tm->", uv, local, vv)
        rhs = 0.0
        w = mesh.tri_area / 3.0
        for l in range(3):
            rhs += (0.5 * w * (fm.sum(axis=1) - fm[:, l]) * vv[:, l]).sum()
        assert abs(a_uv - rhs) < 1e-10 * scale * np.abs(v).max() * 10


def test_cr_midpoint_continuity_and_dirichlet():
    mesh = unit_square_mesh(4)
    A = CoefficientField.isotropic(mesh, 2.0)
    g_D = lambda x, y: 1.0 + np.asarray(x, float) - 2.0 * np.asarray(y, float)
    data = ProblemData(f=lambda x, y: np.ones_like(np.asarray(x, float)), g_D=g_D)
    sol = solve_nonconforming(mesh, A, data)

    # evaluate the CR field elementwise at each interior edge midpoint from
    # both sides: the jump must vanish (midpoint continuity)
    mid = mesh.edge_midpoints()
    grads = sol.element_gradients()
    for e in mesh.interior_edges:
        vals = []
        for side in (0, 1):
            t = mesh.edge_tris[e, side]
            # CR value at a point: u(bary) + grad . (x - bary) with
            # u(bary) = mean of the three edge dofs
            ub = sol.u_edge[mesh.tri_edges[t]].mean()
            b = mesh.tri_barycenters()[t]
            vals.append(ub + grads[t] @ (mid[e] - b))
        assert abs(vals[0] - vals[1]) < 1e-11
    dir_ = mesh.dirichlet_edges
    assert np.abs(sol.u_edge[dir_] - g_D(mid[dir_, 0], mid[dir_, 1])).max() < 1e-11


def test_conforming_traces_two_triangle_patch(square2):
    # nodal values (0, 1, 1, 1) at the square corners: u = x below the
    # diagonal and u = y above; verify the stored traces against a plane fit
    A = CoefficientField.isotropic(square2, 1.0)
    u = np.array([0.0, 1.0, 1.0, 1.0])
    sol = DiscreteSolution(method="conforming", mesh=square2, u_vertex=u)
    data = ProblemData(
        f=lambda x, y: np.zeros_like(np.asarray(x, float)),
        g_D=lambda x, y: np.zeros_like(np.asarray(x, float)),
    )
    tr = edge_traces(square2, A, sol, data)
    F = int(square2.interior_edges[0])
    for side in (0, 1):
        t = square2.edge_tris[F, side]
        coords = square2.vertices[square2.triangles[t]]
        vals = u[square2.triangles[t]]
        plane = np.linalg.solve(
            np.column_stack([np.ones(3), coords]), vals
        )  # u = a + b x + c y
        grad = plane[1:]
        expected = (-grad) @ square2.edge_normal[F]
        got = tr.flux[F, side, 0]
        assert got == pytest.approx(expected, abs=1e-13)
    # |jump| = sqrt(2) for this configuration
    assert abs(tr.flux[F, 0, 0] - tr.flux[F, 1, 0]) == pytest.approx(
        np.sqrt(2.0), abs=1e-13
    )


def test_traces_continuous_for_affine():
    mesh = unit_square_mesh(3)
    A = CoefficientField.from_tensor(mesh, TENSOR)
    u, grad, sigma = affine_data(TENSOR)
    data = ProblemData(f=lambda x, y: np.zeros_like(np.asarray(x, float)), g_D=u)
    sol = solve_conforming(mesh, A, data)
    tr = edge_traces(mesh, A, sol, data)
    ie = mesh.interior_edges
    assert np.abs(tr.flux[ie, 0] - tr.flux[ie, 1]).max() < 1e-11

    solm = solve_mixed(mesh, A, data)
    trm = edge_traces(mesh, A, solm, data)
    assert np.abs(trm.grad[ie, 0, 0] - trm.grad[ie, 1, 0]).max() < 1e-11
    assert np.abs(trm.grad[ie, 0, 1] - trm.grad[ie, 1, 1]).max() < 1e-11
    # mixed tangential traces reproduce the constant exact gradient
    tang = mesh.edge_tangent @ grad
    assert np.abs(trm.grad[ie, 0, 0] - tang[ie]).max() < 1e-10


def test_mixed_zero_flux_traces():
    mesh = unit_square_mesh(2)
    A = CoefficientField.isotropic(mesh, 1.0)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    data = ProblemData(f=zero, g_D=zero)
    sol = solve_mixed(mesh, A, data)
    tr = edge_traces(mesh, A, sol, data)
    for arr in (tr.grad[:, 0, 0], tr.grad[:, 0, 1]):
        assert np.nanmax(np.abs(arr)) < 1e-12


def test_coefficient_field_validation():
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError):
        CoefficientField.from_tensor(mesh, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CoefficientField.isotropic(mesh, -1.0)
    A = CoefficientField.from_tensor(mesh, TENSOR)
    with pytest.raises(ValueError):
        A.require_scalar()
    B = CoefficientField.isotropic(mesh, 2.5)
    assert np.all(B.require_scalar() == 2.5)


def test_isotropic_inverse_matches_lapack_bitwise():
    # A.inv feeds the RT Gram blocks and through them the marking, so the
    # closed-form inverse of alpha * I must equal the LAPACK one bit for
    # bit, zero signs included
    mesh = unit_square_mesh(32)
    rng = np.random.default_rng(0)
    fields = [
        CoefficientField.isotropic(mesh, 10.0 ** rng.uniform(-8.0, 8.0, mesh.n_triangles))
        for _ in range(3)
    ]
    # the Kellogg R of the benchmark seeds: the paper's R, and three draws
    # log-uniform from the 1 % below it
    R0 = kellogg_problem().params["R"]
    kmesh = initial_kellogg_mesh(8)
    for seed in range(4):
        R = R0 * math.exp(random.Random(seed).uniform(math.log1p(-0.01), 0.0)) if seed else R0
        fields.append(kellogg_problem(R=R).coefficient(kmesh))
    for A in fields:
        assert A.scalar is not None
        expected = np.linalg.inv(A.tensor)
        assert np.array_equal(A.inv, expected)
        assert np.array_equal(np.signbit(A.inv), np.signbit(expected))


def test_missing_neumann_data_raises():
    labeler, _ = right_edge_neumann(np.eye(2))
    mesh = build_mesh(
        unit_square_mesh(2).vertices,
        unit_square_mesh(2).triangles,
        boundary_labeler=labeler,
    )
    A = CoefficientField.isotropic(mesh, 1.0)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    data = ProblemData(f=zero, g_D=zero)  # no g_N
    with pytest.raises(SolverError):
        solve_conforming(mesh, A, data)


@pytest.mark.parametrize("method", ["conforming", "mixed", "nonconforming"])
def test_nan_neumann_data_raises(method):
    labeler, _ = right_edge_neumann(np.eye(2))
    mesh = build_mesh(
        unit_square_mesh(2).vertices,
        unit_square_mesh(2).triangles,
        boundary_labeler=labeler,
    )
    A = CoefficientField.isotropic(mesh, 1.0)
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    nan = lambda x, y: np.full_like(np.asarray(x, float), np.nan)
    with pytest.raises(SolverError):
        SOLVERS[method](mesh, A, ProblemData(f=zero, g_D=zero, g_N=nan))


def _rt0_mass_blocks(mesh, A, sign):
    """(nt, 3, 3) ``A^{-1}``-weighted mass blocks of the RT0 basis in the
    point form ``sign (x - x_l) / H_l``, by the degree-5 rule (exact for
    the quadratic integrand)."""
    coords = mesh.tri_coords()
    H = 2.0 * mesh.tri_area[:, None] / mesh.edge_length[mesh.tri_edges]
    pts = np.einsum("qv,tvx->tqx", TRI_QUAD_BARY, coords)
    phi = (sign / H)[:, :, None, None] * (pts[:, None] - coords[:, :, None])
    M = np.einsum("tij,tlqj,tmqi,q->tlm", A.inv, phi, phi, TRI_QUAD_WEIGHTS)
    return M * mesh.tri_area[:, None, None]


def _rt0_p0_residuals(mesh, A, data, sol):
    """Relative residuals of ``M sigma - B^T u = G`` (rows of the edges
    without Neumann data) and ``B sigma = F`` for the RT0 x P0 solution,
    with ``M`` from :func:`_rt0_mass_blocks` and ``B`` from the edge
    lengths.  Each residual is scaled by the norm of
    ``|M| |sigma| + |B^T| |u| + |G|`` (resp. ``|B| |sigma| + |F|``), so the
    check also holds where ``f = 0``.
    """
    ne = mesh.n_edges
    # +1 where the triangle is K- of its edge, whose normal is its outward one
    is_minus = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.n_triangles)[:, None]
    sign = np.where(is_minus, 1, -1)
    Ml = _rt0_mass_blocks(mesh, A, sign)
    Bl = sign * mesh.edge_length[mesh.tri_edges]  # (nt, 3)
    s_loc = sol.flux_edge[mesh.tri_edges]
    Ms, aMs, Btu, aBtu = (np.zeros(ne) for _ in range(4))
    np.add.at(Ms, mesh.tri_edges, np.einsum("tlm,tm->tl", Ml, s_loc))
    np.add.at(aMs, mesh.tri_edges, np.einsum("tlm,tm->tl", np.abs(Ml), np.abs(s_loc)))
    np.add.at(Btu, mesh.tri_edges, Bl * sol.u_tri[:, None])
    np.add.at(aBtu, mesh.tri_edges, np.abs(Bl * sol.u_tri[:, None]))
    G = np.zeros(ne)
    d = mesh.dirichlet_edges
    mid = mesh.edge_midpoints()[d]
    G[d] = -data.g_D(mid[:, 0], mid[:, 1]) * mesh.edge_length[d]
    mids = mesh.tri_edge_midpoints()
    F = mesh.tri_area * data.f(mids[..., 0], mids[..., 1]).mean(axis=1)

    rows = np.setdiff1d(np.arange(ne), mesh.neumann_edges)
    r1 = (Ms - Btu - G)[rows]
    scale1 = (aMs + aBtu + np.abs(G))[rows]
    r2 = (Bl * s_loc).sum(axis=1) - F
    scale2 = np.abs(Bl * s_loc).sum(axis=1) + np.abs(F)
    return (
        np.linalg.norm(r1) / np.linalg.norm(scale1),
        np.linalg.norm(r2) / np.linalg.norm(scale2),
    )


def _random_tensor_mesh():
    """Mixed Dirichlet/Neumann square, randomly refined, with a random SPD
    tensor per element (condition up to 1e4)."""
    rng = np.random.default_rng(7)
    mesh = _mixed_square()
    for _ in range(4):
        mesh = refine(mesh, rng.choice(mesh.n_triangles, 6, replace=False))
    A = CoefficientField(np.stack([random_spd(rng, 1e4) for _ in range(mesh.n_triangles)]))
    return mesh, A


def test_condensed_rt0_block_is_cr_stiffness():
    """``D (M^{-1} - m m^T / h.m) D`` with ``m = M^{-1} h``, the RT0 x P0
    element block condensed onto the edge multipliers, equals the
    Crouzeix-Raviart stiffness block for a constant tensor."""
    mesh, A = _random_tensor_mesh()
    Minv = np.linalg.inv(_rt0_mass_blocks(mesh, A, np.ones((mesh.n_triangles, 3))))
    h = mesh.edge_length[mesh.tri_edges]
    m = np.einsum("tij,tj->ti", Minv, h)
    s = (h * m).sum(axis=1)
    S = h[:, :, None] * (Minv - m[:, :, None] * m[:, None, :] / s[:, None, None]) * h[:, None, :]
    g = mesh.grad_lambda
    cr = 4.0 * np.einsum("tij,tlj,tmi,t->tlm", A.tensor, g, g, mesh.tri_area)
    err = np.abs(S - cr).max(axis=(1, 2)) / np.abs(cr).max(axis=(1, 2))
    assert err.max() < 1e-10, err.max()


def _graded_kellogg():
    """Kellogg mesh bisected 24 times towards the origin."""
    mesh = initial_kellogg_mesh(4)
    for _ in range(24):
        at_origin = (np.abs(mesh.tri_coords()).sum(axis=2) == 0.0).any(axis=1)
        mesh = refine(mesh, np.flatnonzero(at_origin))
    return mesh


def test_mixed_solves_rt0_p0_equations(kellogg):
    """The hybridized solution satisfies the RT0 x P0 saddle-point system."""
    mesh, A = _random_tensor_mesh()
    assert mesh.neumann_edges.size
    cases = [(mesh, A, _data())]
    mesh = _graded_kellogg()
    assert mesh.tri_diam.min() < 1e-3
    cases.append((mesh, kellogg.coefficient(mesh), kellogg.data))
    for mesh, A, data in cases:
        res1, res2 = _rt0_p0_residuals(mesh, A, data, solve_mixed(mesh, A, data))
        assert res1 < 1e-10 and res2 < 1e-10, (res1, res2)


def test_mixed_flux_vertex_vectors_carry_edge_fluxes():
    """The stored vertex-vector form of the mixed flux has the normal trace
    ``flux_edge`` on every edge, from both sides and at both endpoints."""
    mesh, A = _random_tensor_mesh()
    sol = solve_mixed(mesh, A, _data())
    C = sol.flux_vertex_vectors()
    assert C is sol.flux_vertex_vectors()
    scale = np.abs(sol.flux_edge).max()
    # with k the edge's local slot, its ends are the local vertices
    # (k + 1, k + 2) % 3 of K- and (k + 2, k + 1) % 3 of K+
    for side in (0, 1):
        F = np.flatnonzero(mesh.edge_tris[:, side] >= 0)
        t = mesh.edge_tris[F, side]
        k = mesh.edge_slot[F, side]
        for loc in ((k + 1 + side) % 3, (k + 2 - side) % 3):
            trace = (C[t, loc] * mesh.edge_normal[F]).sum(axis=1)
            assert np.abs(trace - sol.flux_edge[F]).max() <= 1e-12 * scale
