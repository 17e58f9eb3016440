import numpy as np
import pytest

from afemrec.estimators import (
    _touches_point,
    indicators,
    oscillation,
    residual_edge_estimator,
    true_energy_error,
)
from afemrec.mesh import build_mesh, initial_kellogg_mesh, refine, unit_square_mesh
from afemrec.recovery import recover
from afemrec.solvers import (
    CoefficientField,
    DiscreteSolution,
    ProblemData,
    edge_traces,
    solve_conforming,
    solve_mixed,
    solve_nonconforming,
)
from test_recovery import random_spd


# the 7-point degree-5 rule, written out independently of afemrec.basis
_QUAD_AB = ((6.0 + np.sqrt(15.0)) / 21.0, (6.0 - np.sqrt(15.0)) / 21.0)
_REF_WEIGHTS = np.array(
    [9.0 / 40.0, *[(155.0 + sgn * np.sqrt(15.0)) / 1200.0 for sgn in (1, -1) for _ in range(3)]]
)


def zero(x, y):
    return np.zeros_like(np.asarray(x, float))


def patch_indicator_setup(square2):
    A = CoefficientField.isotropic(square2, 1.0)
    u = np.array([0.0, 1.0, 1.0, 1.0])
    sol = DiscreteSolution(method="conforming", mesh=square2, u_vertex=u)
    data = ProblemData(f=zero, g_D=zero)
    tr = edge_traces(square2, A, sol, data)
    return A, tr


def test_rt_edge_indicator_two_triangle_value(square2):
    # |jump| = sqrt(2), weight 1/2, basis patch norms 1/3 per side:
    # eta_F^2 = 2 * (sqrt(2)/2)^2 * 1/3 = 1/3
    A, tr = patch_indicator_setup(square2)
    fld = recover(square2, A, tr, "conforming", "rt", validate="all")
    ind = indicators(square2, A, fld, "conforming")
    F = int(square2.interior_edges[0])
    assert ind.eta_edges[F] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-13)
    # element route consistency for this configuration
    assert ind.eta_global == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-13)


def test_residual_edge_estimator_two_triangle_value(square2):
    A, tr = patch_indicator_setup(square2)
    ind = residual_edge_estimator(square2, A, tr, "conforming")
    F = int(square2.interior_edges[0])
    # h = sqrt(2), |j| = sqrt(2), alpha- = alpha+ = 1
    assert ind.eta_edges[F] == pytest.approx(np.sqrt(2.0), abs=1e-13)


def _solve_all(mesh, A, data):
    out = {}
    out["conforming"] = solve_conforming(mesh, A, data)
    out["mixed"] = solve_mixed(mesh, A, data)
    out["nonconforming"] = solve_nonconforming(mesh, A, data)
    return out


def test_all_indicators_vanish_for_affine():
    mesh = unit_square_mesh(3)
    A = CoefficientField.isotropic(mesh, 2.0)
    g_D = lambda x, y: 1.0 + 2.0 * np.asarray(x, float) - np.asarray(y, float)
    data = ProblemData(f=zero, g_D=g_D)
    sols = _solve_all(mesh, A, data)
    for method, fams in (
        ("conforming", ["rt", "bdm"]),
        ("mixed", ["nd"]),
        ("nonconforming", ["rt", "bdm", "ne", "nd"]),
    ):
        tr = edge_traces(mesh, A, sols[method], data)
        for fam in fams:
            fld = recover(mesh, A, tr, method, fam, validate=False)
            ind = indicators(mesh, A, fld, method)
            assert ind.eta_global < 1e-10
            assert ind.eta_elements.max() < 1e-10
        res = residual_edge_estimator(mesh, A, tr, method)
        assert res.eta_global < 1e-10


def _kellogg_like():
    mesh = refine(
        initial_kellogg_mesh(4), np.arange(initial_kellogg_mesh(4).n_triangles)
    )
    alpha = lambda x, y: np.where(((x > 0) & (y > 0)) | ((x < 0) & (y < 0)), 64.0, 1.0)
    A = CoefficientField.isotropic(mesh, alpha)
    ue = lambda x, y: np.cos(np.asarray(x, float)) * np.asarray(y, float) ** 2
    data = ProblemData(f=lambda x, y: np.ones_like(np.asarray(x, float)), g_D=ue)
    return mesh, A, data


def test_nesting_inequalities():
    mesh, A, data = _kellogg_like()
    # BDM minimizes each edge-patch problem over a superset of the RT space,
    # so the EDGE indicators are ordered; the summed global fields carry
    # cross-terms between edges, so no global ordering is asserted
    sol = solve_conforming(mesh, A, data)
    tr = edge_traces(mesh, A, sol, data)
    rt = indicators(mesh, A, recover(mesh, A, tr, "conforming", "rt", validate=False), "conforming")
    bdm = indicators(mesh, A, recover(mesh, A, tr, "conforming", "bdm", validate=False), "conforming")
    assert np.all(bdm.eta_edges <= rt.eta_edges + 1e-12)

    soln = solve_nonconforming(mesh, A, data)
    trn = edge_traces(mesh, A, soln, data)
    ne = indicators(mesh, A, recover(mesh, A, trn, "nonconforming", "ne", validate=False), "nonconforming")
    nd = indicators(mesh, A, recover(mesh, A, trn, "nonconforming", "nd", validate=False), "nonconforming")
    assert np.all(nd.eta_edges <= ne.eta_edges + 1e-12)


def test_element_sum_equals_global():
    mesh, A, data = _kellogg_like()
    sol = solve_conforming(mesh, A, data)
    tr = edge_traces(mesh, A, sol, data)
    for fam in ("rt", "bdm"):
        ind = indicators(mesh, A, recover(mesh, A, tr, "conforming", fam, validate=False), "conforming")
        assert np.sqrt((ind.eta_elements**2).sum()) == pytest.approx(
            ind.eta_global, rel=1e-12
        )
    soln = solve_nonconforming(mesh, A, data)
    trn = edge_traces(mesh, A, soln, data)
    pair = (
        recover(mesh, A, trn, "nonconforming", "rt", validate=False),
        recover(mesh, A, trn, "nonconforming", "ne", validate=False),
    )
    ind = indicators(mesh, A, pair, "nonconforming", c=(0.5, 0.5))
    assert np.sqrt((ind.eta_elements**2).sum()) == pytest.approx(
        ind.eta_global, rel=1e-12
    )
    assert ind.c1 == 0.5 and ind.c2 == 0.5


def test_nonconforming_combination_weights_validated():
    mesh, A, data = _kellogg_like()
    soln = solve_nonconforming(mesh, A, data)
    trn = edge_traces(mesh, A, soln, data)
    pair = (
        recover(mesh, A, trn, "nonconforming", "rt", validate=False),
        recover(mesh, A, trn, "nonconforming", "ne", validate=False),
    )
    with pytest.raises(ValueError):
        indicators(mesh, A, pair, "nonconforming", c=(0.7, 0.5))
    a = indicators(mesh, A, pair, "nonconforming", c=(0.3, 0.7))
    b = indicators(mesh, A, pair, "nonconforming", c=(0.5, 0.5))
    assert a.eta_global != b.eta_global


def test_rigid_motion_and_dilation_invariance():
    mesh = unit_square_mesh(3)
    A_vals = np.where(mesh.tri_barycenters()[:, 0] > 0.5, 10.0, 1.0)

    def run(mesh):
        A = CoefficientField.isotropic(mesh, A_vals)
        ue = lambda x, y: np.cos(np.asarray(x, float) + 0.3 * np.asarray(y, float))
        data = ProblemData(f=lambda x, y: np.ones_like(np.asarray(x, float)), g_D=ue)
        sol = solve_conforming(mesh, A, data)
        tr = edge_traces(mesh, A, sol, data)
        fld = recover(mesh, A, tr, "conforming", "rt", validate=False)
        return indicators(mesh, A, fld, "conforming")

    base = run(mesh)

    # rigid motion: rotate the mesh and transplant the same nodal pattern;
    # recompute with the rotated data (the solve sees an isometric problem)
    th = 0.7
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    vrot = mesh.vertices @ Q.T + np.array([2.0, -1.0])
    mrot = build_mesh(vrot, mesh.triangles)

    def run_transformed(m2, transform, f_scale=1.0):
        A = CoefficientField.isotropic(m2, A_vals)
        def ue(x, y):
            pts = np.stack([np.asarray(x, float), np.asarray(y, float)], axis=-1)
            back = transform(pts)
            return np.cos(back[..., 0] + 0.3 * back[..., 1])
        def f(x, y):
            return f_scale * np.ones_like(np.asarray(x, float))
        data = ProblemData(f=f, g_D=ue)
        sol = solve_conforming(m2, A, data)
        tr = edge_traces(m2, A, sol, data)
        fld = recover(m2, A, tr, "conforming", "rt", validate=False)
        return indicators(m2, A, fld, "conforming")

    rot = run_transformed(mrot, lambda p: (p - np.array([2.0, -1.0])) @ Q)
    assert rot.eta_global == pytest.approx(base.eta_global, rel=1e-10)
    assert np.abs(np.sort(rot.eta_elements) - np.sort(base.eta_elements)).max() < 1e-10

    # uniform dilation x -> s x with the transplanted problem (u(x/s) needs
    # the source scaled by 1/s^2): the discrete solution transplants and the
    # jump-driven indicators are unchanged
    s = 3.0
    mdil = build_mesh(mesh.vertices * s, mesh.triangles)
    dil = run_transformed(mdil, lambda p: p / s, f_scale=1.0 / s**2)
    assert dil.eta_global == pytest.approx(base.eta_global, rel=1e-10)


def test_residual_estimator_rejects_tensor():
    mesh = unit_square_mesh(2)
    A = CoefficientField.from_tensor(mesh, np.array([[2.0, 0.5], [0.5, 1.0]]))
    data = ProblemData(f=zero, g_D=zero)
    sol = solve_conforming(mesh, A, data)
    tr = edge_traces(mesh, A, sol, data)
    with pytest.raises(ValueError):
        residual_edge_estimator(mesh, A, tr, "conforming")


def test_residual_estimator_all_methods_positive():
    mesh, A, data = _kellogg_like()
    for method, solver in (
        ("conforming", solve_conforming),
        ("mixed", solve_mixed),
        ("nonconforming", solve_nonconforming),
    ):
        sol = solver(mesh, A, data)
        tr = edge_traces(mesh, A, sol, data)
        ind = residual_edge_estimator(mesh, A, tr, method)
        assert ind.eta_global > 0
        assert np.all(ind.eta_edges >= 0)
        assert np.sqrt((ind.eta_edges**2).sum()) == pytest.approx(
            ind.eta_global, rel=1e-12
        )


def test_recovery_vs_estimator_equivalence_sweep():
    # the ratio of the recovery estimator to the residual reference stays in
    # a fixed bracket across uniform refinements (empirical equivalence)
    mesh = initial_kellogg_mesh(8)
    alpha = lambda x, y: np.where(((x > 0) & (y > 0)) | ((x < 0) & (y < 0)), 64.0, 1.0)
    ue = lambda x, y: np.cos(np.asarray(x, float)) * np.asarray(y, float) ** 2
    data = ProblemData(f=lambda x, y: np.ones_like(np.asarray(x, float)), g_D=ue)
    ratios = []
    for _ in range(4):
        A = CoefficientField.isotropic(mesh, alpha)
        sol = solve_conforming(mesh, A, data)
        tr = edge_traces(mesh, A, sol, data)
        fld = recover(mesh, A, tr, "conforming", "rt", validate=False)
        ind = indicators(mesh, A, fld, "conforming")
        res = residual_edge_estimator(mesh, A, tr, "conforming")
        ratios.append(ind.eta_global / res.eta_global)
        mesh = refine(mesh, np.arange(mesh.n_triangles))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 2.0
    assert np.all((ratios > 0.05) & (ratios < 20.0))


def test_oscillation_constant_and_linear():
    mesh = build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    A = CoefficientField.isotropic(mesh, 1.0)
    h_f, h_fk = oscillation(mesh, A, lambda x, y: np.full_like(np.asarray(x, float), 7.0))
    assert h_f == pytest.approx(0.0, abs=1e-14)
    # f = x on the reference triangle: ||f - mean||^2 = 1/36, h_K = sqrt(2)
    h_f, h_fk = oscillation(mesh, A, lambda x, y: np.asarray(x, float))
    assert h_fk[0] == pytest.approx(np.sqrt(2.0) / 6.0, rel=1e-12)
    assert h_f == pytest.approx(np.sqrt(2.0) / 6.0, rel=1e-12)


def test_oscillation_kellogg_zero(kellogg):
    mesh = kellogg.mesh_factory(4)
    A = kellogg.coefficient(mesh)
    h_f, _ = oscillation(mesh, A, kellogg.data.f)
    assert h_f == 0.0


def test_oscillation_requires_scalar():
    mesh = unit_square_mesh(2)
    A = CoefficientField.from_tensor(mesh, np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        oscillation(mesh, A, lambda x, y: np.asarray(x, float))


def test_true_energy_error_affine_zero():
    mesh = unit_square_mesh(3)
    tensor = np.array([[2.0, 0.5], [0.5, 1.0]])
    A = CoefficientField.from_tensor(mesh, tensor)
    u = lambda x, y: 1.0 + 2.0 * np.asarray(x, float) - np.asarray(y, float)
    grad = lambda x, y: (
        np.full_like(np.asarray(x, float), 2.0),
        np.full_like(np.asarray(x, float), -1.0),
    )
    data = ProblemData(f=zero, g_D=u, exact_u=u, exact_grad=grad)
    for sol in (
        solve_conforming(mesh, A, data),
        solve_nonconforming(mesh, A, data),
        solve_mixed(mesh, A, data),
    ):
        assert true_energy_error(mesh, A, sol, grad) < 1e-10


def _scaled(mesh, s):
    """The same triangles and regions with every vertex multiplied by ``s``."""
    return build_mesh(s * mesh.vertices, mesh.triangles, regions=mesh.tri_region)


def _graded_kellogg_mesh():
    """The 4x4 Kellogg mesh refined 20 times at the elements touching the
    origin."""
    graded = initial_kellogg_mesh(4)
    for _ in range(20):
        at_origin = (np.abs(graded.tri_coords()).sum(axis=2) == 0.0).any(axis=1)
        graded = refine(graded, np.flatnonzero(at_origin))
    return graded


def test_touches_point_matches_per_vertex_loop():
    # the vectorized vertex/barycentric test against a per-vertex loop, on a
    # mesh graded towards the origin and on its copy scaled by 2^-50
    graded = _graded_kellogg_mesh()
    for s in (1.0, 2.0**-50):
        mesh = _scaled(graded, s)
        coords = mesh.tri_coords()
        for p in ((0.0, 0.0), (0.3 * s, -0.7 * s), tuple(coords[5].mean(axis=0))):
            lam = np.empty((mesh.n_triangles, 3))
            vertex = np.zeros(mesh.n_triangles, dtype=bool)
            for l in range(3):
                d = np.asarray(p) - coords[:, l]
                lam[:, l] = 1.0 + np.einsum("td,td->t", mesh.grad_lambda[:, l], d)
                vertex |= (coords[:, l, 0] == p[0]) & (coords[:, l, 1] == p[1])
            expected = vertex | (lam > -1e-12).all(axis=1)
            assert expected.any()
            assert np.array_equal(_touches_point(mesh, p), expected)


@pytest.mark.parametrize(
    "solver", [solve_conforming, solve_nonconforming, solve_mixed], ids=lambda f: f.__name__
)
def test_true_energy_error_is_scale_invariant(kellogg, solver):
    # u = r^gamma mu(theta), so scaling the mesh by s scales the energy
    # error by s^gamma; a power of two scales the coordinates exactly, and
    # the singular selection must not depend on the scale either
    mesh = initial_kellogg_mesh(8)
    s = 2.0**-50
    small = _scaled(mesh, s)
    (p,) = kellogg.data.singular_points
    flagged = _touches_point(mesh, p)
    assert np.count_nonzero(flagged) == 6
    assert np.array_equal(_touches_point(small, p), flagged)
    errs = []
    for m in (mesh, small):
        A = kellogg.coefficient(m)
        sol = solver(m, A, kellogg.data)
        errs.append(
            true_energy_error(m, A, sol, kellogg.data.exact_grad, kellogg.data.singular_points)
        )
    scaled_back = errs[1] / s ** kellogg.params["gamma"]
    assert scaled_back == pytest.approx(errs[0], rel=1e-12)


_REF_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        *[np.roll([1.0 - 2.0 * a, a, a], k) for a in _QUAD_AB for k in range(3)],
    ]
)


def _ref_subdivide(coords, levels):
    """Physical 4-way edge-midpoint subdivision of triangles (m, 3, 2)."""
    for _ in range(levels):
        a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        coords = np.concatenate(
            [np.stack(t, axis=1) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))]
        )
    return coords


def _ref_true_energy_error(mesh, A, sol, exact_grad, singular_points=()):
    """The true energy error by subdividing the singular elements in
    physical coordinates, locating every quadrature point in its element
    for the mixed flux, and contracting the integrand with einsum."""
    singular = np.zeros(mesh.n_triangles, dtype=bool)
    for p in singular_points:
        singular |= _touches_point(mesh, p)
    coords = mesh.tri_coords()
    tris = np.flatnonzero(~singular)
    subs = _ref_subdivide(coords[singular], 4)
    tris = np.concatenate([tris, np.tile(np.flatnonzero(singular), 4**4)])
    coords = np.concatenate([coords[~singular], subs])
    d1, d2 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    pts = np.einsum("qv,tvx->tqx", _REF_BARY, coords)
    g = np.stack(exact_grad(pts[..., 0], pts[..., 1]), axis=-1)
    if sol.method == "mixed":
        sig = -np.einsum("mij,mqj->mqi", A.tensor[tris], g)
        sig_m = mesh.eval_vertex_field(
            sol.flux_vertex_vectors(), np.repeat(tris, pts.shape[1]), pts.reshape(-1, 2)
        ).reshape(pts.shape)
        diff, W = sig - sig_m, A.inv[tris]
    else:
        diff, W = g - sol.element_gradients()[tris][:, None, :], A.tensor[tris]
    integ = np.einsum("mij,mqj,mqi->mq", W, diff, diff)
    return float(np.sqrt((integ @ _REF_WEIGHTS * areas).sum()))


def _smooth_grad(x, y):
    return np.cos(3.0 * x) * np.exp(y), np.sin(3.0 * x) * np.exp(y) + x * y


@pytest.mark.parametrize(
    "solver", [solve_conforming, solve_nonconforming, solve_mixed], ids=lambda f: f.__name__
)
def test_true_energy_error_matches_physical_reference(kellogg, solver):
    # graded Kellogg mesh: 8 elements at the origin get the subdivided rule
    mesh = _graded_kellogg_mesh()
    A = kellogg.coefficient(mesh)
    sol = solver(mesh, A, kellogg.data)
    args = (kellogg.data.exact_grad, kellogg.data.singular_points)
    expected = _ref_true_energy_error(mesh, A, sol, *args)
    assert true_energy_error(mesh, A, sol, *args) == pytest.approx(expected, rel=1e-13)

    # random SPD tensors, a smooth gradient, and a singular point inside an
    # element and one on a vertex
    mesh = unit_square_mesh(6)
    rng = np.random.default_rng(7)
    A = CoefficientField.from_tensor(
        mesh, np.array([random_spd(rng, 1e3) for _ in range(mesh.n_triangles)])
    )
    data = ProblemData(f=lambda x, y: np.sin(x) * y, g_D=zero)
    sol = solver(mesh, A, data)
    points = [(0.41, 0.37), (0.5, 0.5)]
    assert np.count_nonzero(_touches_point(mesh, points[0])) == 1
    for singular in ([], points):
        expected = _ref_true_energy_error(mesh, A, sol, _smooth_grad, singular)
        got = true_energy_error(mesh, A, sol, _smooth_grad, singular)
        assert got == pytest.approx(expected, rel=1e-13)


def test_oscillation_matches_einsum_points():
    mesh = _graded_kellogg_mesh()
    A = CoefficientField.isotropic(mesh, lambda x, y: 1.0 + x**2 + 3.0 * y**2)
    f = lambda x, y: np.exp(x) * np.cos(2.0 * y) + x * y
    pts = np.einsum("qv,tvx->tqx", _REF_BARY, mesh.tri_coords())
    vals = f(pts[..., 0], pts[..., 1])
    dev_sq = (vals - (vals @ _REF_WEIGHTS)[:, None]) ** 2 @ _REF_WEIGHTS * mesh.tri_area
    expected = mesh.tri_diam / np.sqrt(A.scalar) * np.sqrt(dev_sq)
    h_f, h_fk = oscillation(mesh, A, f)
    np.testing.assert_allclose(h_fk, expected, rtol=1e-13, atol=0.0)
    assert h_f == pytest.approx(np.sqrt((expected**2).sum()), rel=1e-13)


def test_true_energy_error_requires_gradient():
    mesh = unit_square_mesh(2)
    A = CoefficientField.isotropic(mesh, 1.0)
    data = ProblemData(f=zero, g_D=zero)
    sol = solve_conforming(mesh, A, data)
    with pytest.raises(ValueError):
        true_energy_error(mesh, A, sol, None)


def test_kellogg_error_decreases_under_refinement(kellogg):
    mesh = kellogg.mesh_factory(8)
    errs = {}
    for method, solver in (
        ("conforming", solve_conforming),
        ("nonconforming", solve_nonconforming),
    ):
        m = mesh
        vals = []
        for _ in range(3):
            A = kellogg.coefficient(m)
            sol = solver(m, A, kellogg.data)
            vals.append(
                true_energy_error(
                    m, A, sol, kellogg.data.exact_grad, kellogg.data.singular_points
                )
            )
            m = refine(m, np.arange(m.n_triangles))
        errs[method] = vals
        assert vals[0] > vals[1] > vals[2] > 0

    # effectivity is finite and positive whenever the error is positive
    A = kellogg.coefficient(mesh)
    sol = solve_conforming(mesh, A, kellogg.data)
    tr = edge_traces(mesh, A, sol, kellogg.data)
    ind = indicators(mesh, A, recover(mesh, A, tr, "conforming", "rt"), "conforming")
    eff = ind.eta_global / errs["conforming"][0]
    assert 0.0 < eff < np.inf


def test_smooth_problem_first_order_rate():
    from afemrec.problems import manufactured_smooth

    p = manufactured_smooth()
    errs = []
    mesh = p.mesh_factory(4)
    for _ in range(5):
        A = p.coefficient(mesh)
        sol = solve_conforming(mesh, A, p.data)
        errs.append(true_energy_error(mesh, A, sol, p.data.exact_grad))
        mesh = refine(mesh, np.arange(mesh.n_triangles))
    # two bisection levels halve h; the P1 energy error is first order in h
    # (single levels alternate mesh patterns, so compare across pairs)
    for i in (0, 1, 2):
        rate = 0.5 * np.log2(errs[i] / errs[i + 2])
        assert 0.4 < rate < 0.62
