import inspect

import numpy as np
import pytest

from afemrec import basis, recovery, solvers
from afemrec.driver import AfemConfig, run_afem
from afemrec.estimators import indicators, true_energy_error
from afemrec.mesh import build_mesh, initial_kellogg_mesh, refine, unit_square_mesh
from afemrec.problems import kellogg_problem
from afemrec.recovery import (
    RecoveryError,
    compute_jumps,
    local_oracle,
    patch_weights,
    recover,
)
from afemrec.solvers import (
    CoefficientField,
    DiscreteSolution,
    ProblemData,
    edge_traces,
    solve_conforming,
    solve_mixed,
    solve_nonconforming,
)

ALL_PAIRS = [
    ("conforming", "rt"),
    ("conforming", "bdm"),
    ("mixed", "nd"),
    ("nonconforming", "rt"),
    ("nonconforming", "bdm"),
    ("nonconforming", "ne"),
    ("nonconforming", "nd"),
]


def zero(x, y):
    return np.zeros_like(np.asarray(x, float))


# ----------------------------------------------------------------------
# random patch generator shared with the acceptance suite


def random_spd(rng, max_cond=1e4):
    lam_min = 10.0 ** rng.uniform(-2.0, 1.0)
    cond = 10.0 ** rng.uniform(0.0, np.log10(max_cond))
    th = rng.uniform(0.0, np.pi)
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return Q @ np.diag([lam_min, lam_min * cond]) @ Q.T


def random_patch(rng, max_cond=1e4):
    """Random two-element patch with random SPD coefficients per element.

    Returns (mesh, A, F) with F the interior edge.
    """
    for _ in range(100):
        above = rng.uniform([-0.8, 0.15], [1.8, 1.6])
        below = rng.uniform([-0.8, -1.6], [1.8, -0.15])
        v = np.array([[0.0, 0.0], [1.0, 0.0], above, below])
        th = rng.uniform(0.0, 2 * np.pi)
        s = 10.0 ** rng.uniform(-1.0, 1.0)
        Q = s * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        v = v @ Q.T + rng.uniform(-5.0, 5.0, 2)
        tris = np.array([[0, 1, 2], [1, 0, 3]])
        areas = []
        for t in tris:
            d1, d2 = v[t[1]] - v[t[0]], v[t[2]] - v[t[0]]
            areas.append(abs(d1[0] * d2[1] - d1[1] * d2[0]) / 2)
        if min(areas) > 0.02 * s**2:
            break
    mesh = build_mesh(v, tris)
    tensors = np.stack([random_spd(rng, max_cond), random_spd(rng, max_cond)])
    A = CoefficientField(tensors)
    return mesh, A, int(mesh.interior_edges[0])


def oracle_weight_check(mesh, A, F, rng, tol=1e-10):
    """Compare every closed-form weight with the least-squares oracle on one
    interior edge; returns the worst relative deviation."""
    worst = 0.0
    j = rng.normal() or 1.0

    w = patch_weights(mesh, A, "rt")
    ora = local_oracle(mesh, A, F, j, "rt")
    a_o = ora.corr_plus[0] / j
    worst = max(worst, abs(w.a_rt[F] - a_o) / max(abs(a_o), 1e-12))

    w = patch_weights(mesh, A, "bdm")
    ora = local_oracle(mesh, A, F, j, "bdm")
    for mine, theirs in ((w.a_bdm[F], ora.corr_plus[0] / j), (w.b_bdm[F], ora.corr_plus[1] / j)):
        worst = max(worst, abs(mine - theirs) / max(abs(theirs), 1e-12))

    w = patch_weights(mesh, A, "ne")
    ora = local_oracle(mesh, A, F, j, "ne")
    a_o = ora.corr_plus[0] / j
    worst = max(worst, abs(w.a_ne[F] - a_o) / max(abs(a_o), 1e-12))

    w = patch_weights(mesh, A, "nd")
    cs, ce = rng.normal(size=2)
    ora = local_oracle(mesh, A, F, (cs, ce), "nd")
    # no lifting lives on K+, so corr_plus is the minimizer's dof pair
    mine = w.nd_response[F] @ np.array([cs, ce])
    theirs = np.array([ora.corr_plus[0], ora.corr_plus[1]])
    scale = max(np.abs(theirs).max(), 1e-12)
    worst = max(worst, np.abs(mine - theirs).max() / scale)

    # constant-jump weights of the nonconforming gradient recovery
    ora = local_oracle(mesh, A, F, (j, j), "nd")
    mine = np.array([w.a_nc[F], w.b_nc[F]]) * j
    scale = max(np.abs(ora.corr_plus).max(), 1e-12)
    worst = max(worst, np.abs(mine - ora.corr_plus).max() / scale)
    return worst


def test_oracle_equivalence_random_patches():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        mesh, A, F = random_patch(rng)
        worst = max(worst, oracle_weight_check(mesh, A, F, rng))
    assert worst < 1e-10


# ----------------------------------------------------------------------
# jumps


def test_jumps_two_triangle_patch(square2):
    A = CoefficientField.isotropic(square2, 1.0)
    u = np.array([0.0, 1.0, 1.0, 1.0])
    sol = DiscreteSolution(method="conforming", mesh=square2, u_vertex=u)
    data = ProblemData(f=zero, g_D=zero)
    tr = edge_traces(square2, A, sol, data)
    jumps = compute_jumps(square2, A, tr, "conforming")
    F = int(square2.interior_edges[0])
    assert abs(jumps.flux[F, 0]) == pytest.approx(np.sqrt(2.0), abs=1e-13)
    # flux jumps are absent (NaN) on Dirichlet edges
    d = square2.dirichlet_edges
    assert not jumps.flux_mask[d].any()
    assert np.isnan(jumps.flux[d]).all()


def test_jumps_vanish_for_affine():
    mesh = unit_square_mesh(3)
    A = CoefficientField.isotropic(mesh, 2.0)
    g_D = lambda x, y: 1.0 + 2.0 * np.asarray(x, float) - np.asarray(y, float)
    data = ProblemData(f=zero, g_D=g_D)
    ie = mesh.interior_edges
    sol = solve_conforming(mesh, A, data)
    j = compute_jumps(mesh, A, edge_traces(mesh, A, sol, data), "conforming")
    assert np.abs(j.flux[ie]).max() < 1e-12
    soln = solve_nonconforming(mesh, A, data)
    jn = compute_jumps(mesh, A, edge_traces(mesh, A, soln, data), "nonconforming")
    assert np.abs(jn.flux[ie]).max() < 1e-12
    assert np.abs(jn.grad[jn.grad_mask]).max() < 1e-12
    solm = solve_mixed(mesh, A, data)
    jm = compute_jumps(mesh, A, edge_traces(mesh, A, solm, data), "mixed")
    assert np.abs(jm.grad[jm.grad_mask]).max() < 1e-11


def test_neumann_jump_vanishes_with_matching_data():
    def labeler(a, b):
        return "N" if 0.5 * (a + b)[0] > 0.999 else "D"

    base = unit_square_mesh(3)
    mesh = build_mesh(base.vertices, base.triangles, boundary_labeler=labeler)
    A = CoefficientField.isotropic(mesh, 1.0)
    u = lambda x, y: np.asarray(x, float)
    g_N = lambda x, y: np.full_like(np.asarray(x, float), -1.0)  # -du/dn on x=1
    data = ProblemData(f=zero, g_D=u, g_N=g_N)
    sol = solve_conforming(mesh, A, data)
    j = compute_jumps(mesh, A, edge_traces(mesh, A, sol, data), "conforming")
    neu = mesh.neumann_edges
    assert j.flux_mask[neu].all()
    assert np.abs(j.flux[neu]).max() < 1e-12


# ----------------------------------------------------------------------
# weights


def test_weights_symmetric_patch(square2):
    A = CoefficientField.isotropic(square2, 1.0)
    F = int(square2.interior_edges[0])
    assert patch_weights(square2, A, "rt").a_rt[F] == pytest.approx(0.5, abs=1e-14)
    w = patch_weights(square2, A, "bdm")
    assert w.a_bdm[F] == pytest.approx(0.5, abs=1e-14)
    assert w.b_bdm[F] == pytest.approx(0.5, abs=1e-14)
    assert patch_weights(square2, A, "ne").a_ne[F] == pytest.approx(0.5, abs=1e-14)


def test_weights_mirror_coefficient_patch(square2):
    # congruent mirror patch, alpha = (1, 4): the geometric factors cancel
    # and a_rt = alpha+ / (alpha- + alpha+) exactly
    F = int(square2.interior_edges[0])
    A = CoefficientField.isotropic(square2, np.array([1.0, 4.0]))
    a = patch_weights(square2, A, "rt").a_rt[F]
    assert a == pytest.approx(0.8, abs=1e-14)
    # the weight tends to 1 as the ratio grows
    prev = a
    for ratio in (1e2, 1e4, 1e6):
        A = CoefficientField.isotropic(square2, np.array([1.0, ratio]))
        val = patch_weights(square2, A, "rt").a_rt[F]
        assert val == pytest.approx(ratio / (1.0 + ratio), rel=1e-12)
        assert val > prev
        prev = val
    assert prev > 1.0 - 1e-5


def test_weights_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mesh, A, F = random_patch(rng)
        assert 0.0 < patch_weights(mesh, A, "rt").a_rt[F] < 1.0
        assert 0.0 < patch_weights(mesh, A, "ne").a_ne[F] < 1.0


def test_nd_weight_signs_structured():
    # on shape-regular structured patches the constant-jump gradient weights
    # come out positive / negative (this is a regular-patch property, not an
    # invariant: sufficiently skewed patches can flip the signs)
    for mesh in (unit_square_mesh(3), initial_kellogg_mesh(4)):
        for alphas in (1.0, lambda x, y: np.where(x > 0, 50.0, 1.0)):
            A = CoefficientField.isotropic(mesh, alphas)
            w = patch_weights(mesh, A, "nd")
            ie = mesh.interior_edges
            assert np.all(w.a_nc[ie] > 0.0)
            assert np.all(w.b_nc[ie] < 0.0)


# ----------------------------------------------------------------------
# the oracle itself


def test_oracle_zero_jump_zero_correction():
    rng = np.random.default_rng(8)
    mesh, A, F = random_patch(rng)
    for fam, j in (("rt", 0.0), ("bdm", 0.0), ("ne", 0.0), ("nd", (0.0, 0.0))):
        ora = local_oracle(mesh, A, F, j, fam)
        assert np.abs(ora.corr_minus).max() < 1e-14
        assert np.abs(ora.corr_plus).max() < 1e-14


def test_oracle_flux_boundary_cases(square2):
    A = CoefficientField.isotropic(square2, 1.0)
    # Dirichlet edge: conforming flux correction is identically zero
    F = int(square2.dirichlet_edges[0])
    ora = local_oracle(square2, A, F, 1.23, "rt")
    assert np.abs(ora.corr_minus).max() == 0.0
    assert ora.corr_plus is None
    with pytest.raises(ValueError, match=f"edge {F} "):
        ora.evaluate(1, square2.vertices)


def test_oracle_neumann_pure_lifting():
    def labeler(a, b):
        return "N" if 0.5 * (a + b)[1] < 1e-12 else "D"

    base = unit_square_mesh(2)
    mesh = build_mesh(base.vertices, base.triangles, boundary_labeler=labeler)
    A = CoefficientField.isotropic(mesh, 1.0)
    F = int(mesh.neumann_edges[0])
    j = 0.7
    ora = local_oracle(mesh, A, F, j, "rt")
    # single-element patch: the constraint fixes the correction completely,
    # its trace on F is -j and its trace on the other edges vanishes
    assert ora.corr_minus[0] == pytest.approx(-j, abs=1e-12)
    s, e = mesh.vertices[mesh.edges[F, 0]], mesh.vertices[mesh.edges[F, 1]]
    t = np.linspace(0.1, 0.9, 3)[:, None]
    pts = (1 - t) * s + t * e
    vals = ora.evaluate(0, pts)
    assert np.abs(vals @ mesh.edge_normal[F] + j).max() < 1e-12
    for eb in mesh.tri_edges[mesh.edge_tris[F, 0]]:
        if eb == F:
            continue
        s2, e2 = mesh.vertices[mesh.edges[eb, 0]], mesh.vertices[mesh.edges[eb, 1]]
        pts2 = (1 - t) * s2 + t * e2
        vals2 = ora.evaluate(0, pts2)
        assert np.abs(vals2 @ mesh.edge_normal[eb]).max() < 1e-12
    assert ora.corr_plus is None
    with pytest.raises(ValueError, match=f"edge {F} "):
        ora.evaluate(1, pts)


def test_oracle_interior_lifting_and_jump():
    # the total correction satisfies the prescribed jump and zero outer
    # traces; its minimizer part is orthogonal to the zero-trace space
    rng = np.random.default_rng(9)
    for fam, weight_kind in (("rt", "inv"), ("bdm", "inv"), ("ne", "full"), ("nd", "full")):
        mesh, A, F = random_patch(rng)
        j = (0.9, -0.4) if fam == "nd" else 1.3
        ora = local_oracle(mesh, A, F, j, fam)
        s, e = mesh.vertices[mesh.edges[F, 0]], mesh.vertices[mesh.edges[F, 1]]
        tpar = np.linspace(0.15, 0.85, 3)[:, None]
        pts = (1 - tpar) * s + tpar * e
        d = mesh.edge_normal[F] if fam in ("rt", "bdm") else mesh.edge_tangent[F]
        jump_vals = (ora.evaluate(0, pts) - ora.evaluate(1, pts)) @ d
        if fam == "nd":
            lam_s = 1.0 - tpar[:, 0]
            expected = -(j[0] * lam_s + j[1] * (1.0 - lam_s))
        else:
            expected = np.full(3, -j)
        assert np.abs(jump_vals - expected).max() < 1e-11
        for side in (0, 1):
            tri = mesh.edge_tris[F, side]
            for eb in mesh.tri_edges[tri]:
                if eb == F:
                    continue
                s2, e2 = mesh.vertices[mesh.edges[eb, 0]], mesh.vertices[mesh.edges[eb, 1]]
                pts2 = (1 - tpar) * s2 + tpar * e2
                d2 = mesh.edge_normal[eb] if fam in ("rt", "bdm") else mesh.edge_tangent[eb]
                assert np.abs(ora.evaluate(side, pts2) @ d2).max() < 1e-11


def test_oracle_blocks_agree(monkeypatch):
    # splitting the stacked solves into blocks changes no correction
    mesh, A, data = _mixed_bc_problem()
    sol, tr = _solve(mesh, A, data, "nonconforming")
    edges = np.arange(mesh.n_edges)
    for kind, family in (("flux", "bdm"), ("gradient", "nd")):
        jump = compute_jumps(mesh, A, tr, "nonconforming").masked(kind)
        whole = local_oracle(mesh, A, edges, jump, family)
        monkeypatch.setattr(recovery, "_ORACLE_BLOCK", 7)
        blocked = local_oracle(mesh, A, edges, jump, family)
        monkeypatch.undo()
        scale = np.abs(whole.corr_minus).max()
        assert np.abs(blocked.corr_minus - whole.corr_minus).max() <= 1e-13 * scale
        assert np.abs(blocked.corr_plus - whole.corr_plus).max() <= 1e-13 * scale


def test_variational_optimality():
    # (A^{-1} correction, tau) = 0 for all zero-trace patch functions tau,
    # expressed through the Gram blocks and the correction coefficients
    rng = np.random.default_rng(10)
    for fam in ("rt", "bdm", "ne", "nd"):
        for _ in range(5):
            mesh, A, F = random_patch(rng)
            w = patch_weights(mesh, A, fam)
            j = (rng.normal(), rng.normal()) if fam == "nd" else rng.normal()
            ora = local_oracle(mesh, A, F, j, fam)
            corr = np.stack([ora.corr_minus, ora.corr_plus])  # (side, d)
            G = w.gram[F]  # (side, d, d)
            resid = np.einsum("sd,sde->e", corr, G)
            scale = max(np.abs(corr).max(), 1e-12) * np.abs(G).max()
            assert np.abs(resid).max() < 1e-11 * scale


# ----------------------------------------------------------------------
# recovered fields


def _interface_problem():
    mesh = initial_kellogg_mesh(4)
    mesh = refine(mesh, np.arange(mesh.n_triangles))
    alpha = lambda x, y: np.where(((x > 0) & (y > 0)) | ((x < 0) & (y < 0)), 100.0, 1.0)
    A = CoefficientField.isotropic(mesh, alpha)
    ue = lambda x, y: np.sin(np.pi * np.asarray(x, float)) * np.cos(np.asarray(y, float))
    data = ProblemData(f=lambda x, y: np.ones_like(np.asarray(x, float)), g_D=ue)
    return mesh, A, data


def _mixed_bc_problem():
    def labeler(a, b):
        m = 0.5 * (a + b)
        return "N" if m[0] > 0.999 or m[1] < 1e-12 else "D"

    base = unit_square_mesh(4)
    mesh = build_mesh(base.vertices, base.triangles, boundary_labeler=labeler)
    A = CoefficientField.isotropic(mesh, 1.0)
    ue = lambda x, y: np.exp(np.asarray(x, float)) * np.cos(np.asarray(y, float)) * 0.3
    f = lambda x, y: np.cos(5 * np.asarray(x, float)) + np.asarray(y, float)
    g_N = lambda x, y: 0.1 * np.asarray(x, float) ** 0 - 0.1  # zero, per edge constant
    data = ProblemData(f=f, g_D=ue, g_N=g_N)
    return mesh, A, data


def _solve(mesh, A, data, method):
    solver = {
        "conforming": solve_conforming,
        "mixed": solve_mixed,
        "nonconforming": solve_nonconforming,
    }[method]
    sol = solver(mesh, A, data)
    return sol, edge_traces(mesh, A, sol, data)


def max_conformity_jump(field):
    mesh = field.mesh
    C = field.total_vertex_vectors()
    ie = mesh.interior_edges
    s = mesh.vertices[mesh.edges[ie, 0]]
    e = mesh.vertices[mesh.edges[ie, 1]]
    d = mesh.edge_normal[ie] if field.kind == "flux" else mesh.edge_tangent[ie]
    worst, scale = 0.0, 1e-30
    for tpar in (0.25, 0.5, 0.75):
        pts = (1 - tpar) * s + tpar * e
        vm = mesh.eval_vertex_field(C, mesh.edge_tris[ie, 0], pts)
        vp = mesh.eval_vertex_field(C, mesh.edge_tris[ie, 1], pts)
        worst = max(worst, np.abs(((vm - vp) * d).sum(axis=1)).max())
        scale = max(scale, np.abs((vm * d).sum(axis=1)).max())
    return worst, scale


@pytest.mark.parametrize("method,family", ALL_PAIRS)
def test_conformity_interface_problem(method, family):
    mesh, A, data = _interface_problem()
    sol, tr = _solve(mesh, A, data, method)
    fld = recover(mesh, A, tr, method, family, validate=False)
    worst, scale = max_conformity_jump(fld)
    assert worst <= 1e-11 * scale


@pytest.mark.parametrize("method,family", ALL_PAIRS)
def test_conformity_and_boundary_constraints_mixed_bc(method, family):
    mesh, A, data = _mixed_bc_problem()
    sol, tr = _solve(mesh, A, data, method)
    fld = recover(mesh, A, tr, method, family, validate="all")
    worst, scale = max_conformity_jump(fld)
    assert worst <= 1e-11 * scale
    neu, dir_ = mesh.neumann_edges, mesh.dirichlet_edges
    coef = fld.coef if fld.coef.ndim == 2 else fld.coef[:, None]
    if fld.kind == "flux":
        gN = tr.g_neumann[neu, None]
        assert np.array_equal(coef[neu], np.broadcast_to(gN, coef[neu].shape))
        sm = tr.flux[dir_, 0]
        assert np.array_equal(coef[dir_], np.broadcast_to(sm, coef[dir_].shape))
    else:
        dg = tr.dgD_dt[dir_]
        assert np.array_equal(coef[dir_, 0], dg)
        if fld.family == "nd":
            assert np.array_equal(coef[dir_, 1], -dg)


@pytest.mark.parametrize("method,family", ALL_PAIRS)
def test_affine_solution_recovers_numerical_field(method, family):
    mesh = unit_square_mesh(3)
    A = CoefficientField.isotropic(mesh, 2.0)
    g_D = lambda x, y: 1.0 + 2.0 * np.asarray(x, float) - np.asarray(y, float)
    data = ProblemData(f=zero, g_D=g_D)
    sol, tr = _solve(mesh, A, data, method)
    fld = recover(mesh, A, tr, method, family, validate="all")
    assert np.abs(fld.correction_side).max() < 1e-11


def test_recover_rt_two_triangle_patch(square2):
    # symmetric patch with opposite traces: the recovered dof vanishes
    A = CoefficientField.isotropic(square2, 1.0)
    u = np.array([0.0, 1.0, 1.0, 1.0])
    sol = DiscreteSolution(method="conforming", mesh=square2, u_vertex=u)
    data = ProblemData(f=zero, g_D=zero)
    tr = edge_traces(square2, A, sol, data)
    fld = recover(square2, A, tr, "conforming", "rt", validate="all")
    F = int(square2.interior_edges[0])
    assert abs(fld.coef[F]) < 1e-14
    assert abs(abs(fld.correction_side[F, 0]) - np.sqrt(0.5)) < 1e-13


def test_recover_rejects_bad_pair(square2):
    A = CoefficientField.isotropic(square2, 1.0)
    data = ProblemData(f=zero, g_D=zero)
    sol = solve_conforming(square2, A, data)
    tr = edge_traces(square2, A, sol, data)
    with pytest.raises(ValueError):
        recover(square2, A, tr, "conforming", "nd")
    with pytest.raises(ValueError):
        recover(square2, A, tr, "mixed", "nd")  # traces/method mismatch
    with pytest.raises(ValueError):
        recover(square2, A, tr, "conforming", "rt", validate="al")


@pytest.fixture(scope="module")
def graded_problem():
    """The Kellogg problem on an adaptively graded mesh (conforming rt,
    2000 dofs)."""
    problem = kellogg_problem()
    mesh = run_afem(AfemConfig(problem=problem, max_dof=2000)).final_mesh
    return mesh, problem.coefficient(mesh), problem.data


def _oracle_names():
    """Every name read by ``local_oracle`` and by the functions and classes
    of ``afemrec.recovery`` that it reaches, nested code included."""
    names, seen, todo = set(), set(), [recovery.local_oracle]
    while todo:
        obj = todo.pop()
        if obj in seen:
            continue
        seen.add(obj)
        if isinstance(obj, type):
            todo.extend(v for v in vars(obj).values() if inspect.isfunction(v))
            continue
        own, codes = set(), [obj.__code__]
        while codes:
            code = codes.pop()
            own.update(code.co_names)
            codes.extend(c for c in code.co_consts if inspect.iscode(c))
        names |= own
        for name in own:
            target = getattr(recovery, name, None)
            if getattr(target, "__module__", None) == recovery.__name__:
                todo.append(target)
    return names


PERTURBED_PAIRS = [
    ("conforming", "rt"),
    ("conforming", "bdm"),
    ("nonconforming", "ne"),
    ("nonconforming", "nd"),
    ("mixed", "nd"),
]


@pytest.mark.parametrize(
    "method,family,graded",
    [pytest.param(m, f, False, id=f"{m}-{f}-weight{i}") for i, (m, f) in enumerate(PERTURBED_PAIRS)]
    + [pytest.param(m, f, True, id=f"{m}-{f}-graded") for m, f in PERTURBED_PAIRS],
)
def test_oracle_catches_perturbed_weight(request, monkeypatch, method, family, graded):
    # the oracle is independent of the closed-form weights and of the basis
    # kernels they are built from ...
    forbidden = {"patch_weights", "PatchWeights", "response"}
    forbidden |= {"_side_table", "_vertex_vectors", "_weighted_gram"}
    assert not _oracle_names() & forbidden
    mesh, A, data = request.getfixturevalue("graded_problem") if graded else _interface_problem()
    sol, tr = _solve(mesh, A, data, method)
    fld = recover(mesh, A, tr, method, family, validate="all")
    # ... so one weight off by 1e-6 relative, on the interior edge with the
    # largest correction, must be caught; on the graded mesh that edge is
    # taken away from the singularity, where corrections are many orders
    # smaller than the largest ones
    size = np.abs(fld.correction_side).reshape(mesh.n_edges, -1).max(axis=1)
    edges = mesh.interior_edges
    if graded:
        edges = edges[np.linalg.norm(mesh.edge_midpoints()[edges], axis=1) > 0.5]
    F = int(edges[np.argmax(size[edges])])
    exact_weights = recovery.patch_weights

    def perturbed(mesh_, A_, family_, carry_):
        w = exact_weights(mesh_, A_, family_, carry_)
        w.response[F, 0, 0] *= 1.0 + 1e-6
        return w

    monkeypatch.setattr(recovery, "patch_weights", perturbed)
    with pytest.raises(RecoveryError):
        recover(mesh, A, tr, method, family, validate="all")


@pytest.mark.parametrize("validate", ["sample", "all"])
def test_oracle_catches_nan_weight(monkeypatch, validate):
    # a NaN weight on a sampled interior edge makes NaN corrections there,
    # which no comparison with the oracle may let pass
    mesh, A, data = _interface_problem()
    sol, tr = _solve(mesh, A, data, "conforming")
    sample = np.arange(0, mesh.n_edges, max(1, mesh.n_edges // 64))
    F = int(sample[np.isin(sample, mesh.interior_edges)][0])
    exact_weights = recovery.patch_weights

    def perturbed(mesh_, A_, family_, carry_):
        w = exact_weights(mesh_, A_, family_, carry_)
        w.response[F, 0, 0] = np.nan
        return w

    monkeypatch.setattr(recovery, "patch_weights", perturbed)
    with pytest.raises(RecoveryError, match=f"edge {F} "):
        recover(mesh, A, tr, "conforming", "rt", validate=validate)


@pytest.mark.parametrize("method,family", ALL_PAIRS)
def test_oracle_check_coverage(monkeypatch, method, family):
    # one oracle call per recovery, on the fixed sample or on every edge
    mesh, A, data = _interface_problem()
    sol, tr = _solve(mesh, A, data, method)
    calls = []
    oracle = recovery.local_oracle

    def recording(mesh_, A_, F, jump, family_):
        calls.append(np.array(F))
        return oracle(mesh_, A_, F, jump, family_)

    monkeypatch.setattr(recovery, "local_oracle", recording)
    ne = mesh.n_edges
    recover(mesh, A, tr, method, family)
    recover(mesh, A, tr, method, family, validate="all")
    assert len(calls) == 2
    assert np.array_equal(calls[0], np.arange(0, ne, max(1, ne // 64)))
    assert np.array_equal(calls[1], np.arange(ne))


def test_side_table_built_once(monkeypatch):
    # one recovery builds its side table once and forms its fields from it;
    # a mixed solution builds its RT table once, which the traces and the
    # true error both read
    built = []
    build = basis._side_table

    def recording(mesh_, family_):
        built.append(family_)
        return build(mesh_, family_)

    monkeypatch.setattr(recovery, "_side_table", recording)
    monkeypatch.setattr(solvers, "_side_table", recording)
    mesh, A, data = _interface_problem()
    for method, family in ALL_PAIRS:
        sol, tr = _solve(mesh, A, data, method)
        built.clear()
        fld = recover(mesh, A, tr, method, family, validate="all")
        indicators(mesh, A, fld, method)
        fld.total_vertex_vectors()
        assert built == [family], (method, family)

    built.clear()
    sol = solve_mixed(mesh, A, data)
    edge_traces(mesh, A, sol, data)
    grad = lambda x, y: (np.cos(x) * np.asarray(y), np.sin(x) + np.asarray(y))
    true_energy_error(mesh, A, sol, grad, singular_points=((0.0, 0.0),))
    assert built == ["rt"]
