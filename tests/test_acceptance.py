"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
The two full-budget adaptive benchmark runs are shared module fixtures; they
take about a minute and a half together (R = 161: 71 s, R = 1e4: 14 s on a
2-vCPU machine).
"""

import numpy as np
import pytest

from afemrec.cli import main
from afemrec.driver import AfemConfig, run_afem
from afemrec.estimators import indicators, residual_edge_estimator
from afemrec.mesh import initial_kellogg_mesh, refine
from afemrec.problems import kellogg_problem, manufactured_affine, manufactured_smooth
from afemrec.recovery import recover
from afemrec.solvers import (
    edge_traces,
    mixed_divergence,
    solve_conforming,
    solve_mixed,
    solve_nonconforming,
)

from test_recovery import (
    ALL_PAIRS,
    max_conformity_jump,
    oracle_weight_check,
    random_patch,
)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def kellogg_prob():
    return kellogg_problem()


@pytest.fixture(scope="module")
def kellogg_run(kellogg_prob):
    cfg = AfemConfig(
        problem=kellogg_prob,
        method="conforming",
        family="rt",
        theta=0.5,
        max_dof=100_000,
        initial_n=8,
    )
    return kellogg_prob, run_afem(cfg)


@pytest.fixture(scope="module")
def kellogg_run_big_jump():
    problem = kellogg_problem(R=1e4)
    cfg = AfemConfig(
        problem=problem,
        method="conforming",
        family="rt",
        theta=0.5,
        max_dof=100_000,
        initial_n=8,
    )
    return problem, run_afem(cfg)


def test_criterion_1_convergence_rate(kellogg_run):
    _, h = kellogg_run
    slope = h.slope("true_error", window=10)
    report(
        1,
        -0.6 <= slope <= -0.4,
        f"trailing-10 slope of log(error) vs log(dofs) = {slope:.4f} in [-0.6, -0.4]",
    )


def test_criterion_2_effectivity(kellogg_run):
    _, h = kellogg_run
    effs = h.column("effectivity")[5:]
    ok = np.all((effs >= 0.5) & (effs <= 2.0))
    report(
        2,
        ok,
        f"effectivity in [{effs.min():.3f}, {effs.max():.3f}] subset [0.5, 2.0] "
        f"after iteration 5; terminal value {effs[-1]:.4f}",
    )


def test_criterion_3_origin_concentration(kellogg_run):
    _, h = kellogg_run
    mesh = h.final_mesh
    bary = mesh.tri_barycenters()[int(np.argmin(mesh.tri_diam))]
    dist = float(np.hypot(*bary))
    ratio = float(mesh.tri_diam.min() / mesh.tri_diam.max())
    report(
        3,
        dist <= 0.02 and ratio <= 1e-3,
        f"smallest-element barycenter at distance {dist:.2e} <= 0.02 "
        f"(diameter ratio {ratio:.1e} <= 1e-3)",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(200):
        mesh, A, F = random_patch(rng, max_cond=1e4)
        worst = max(worst, oracle_weight_check(mesh, A, F, rng))
    report(
        4,
        worst < 1e-10,
        f"200 random patches: worst weight deviation {worst:.3e} < 1e-10 relative",
    )


def test_criterion_5_conformity_all_pairs(kellogg_prob):
    problem = kellogg_prob
    mesh = initial_kellogg_mesh(4)
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.n_triangles))
    A = problem.coefficient(mesh)
    data = problem.data
    sols = {
        "conforming": solve_conforming(mesh, A, data),
        "mixed": solve_mixed(mesh, A, data),
        "nonconforming": solve_nonconforming(mesh, A, data),
    }
    worst_rel = 0.0
    exact_bc = True
    for method, family in ALL_PAIRS:
        tr = edge_traces(mesh, A, sols[method], data)
        fld = recover(mesh, A, tr, method, family, validate=False)
        worst, scale = max_conformity_jump(fld)
        worst_rel = max(worst_rel, worst / scale)
        dir_ = mesh.dirichlet_edges
        coef = fld.coef if fld.coef.ndim == 2 else fld.coef[:, None]
        if fld.kind == "flux":
            sm = tr.flux[dir_, 0]
            exact_bc &= np.array_equal(coef[dir_], np.broadcast_to(sm, coef[dir_].shape))
        else:
            exact_bc &= np.array_equal(coef[dir_, 0], tr.dgD_dt[dir_])
            if fld.family == "nd":
                exact_bc &= np.array_equal(coef[dir_, 1], -tr.dgD_dt[dir_])
    report(
        5,
        worst_rel <= 1e-11 and exact_bc,
        f"7 recovery pairs on 3-level-refined benchmark mesh: worst relative "
        f"trace jump {worst_rel:.3e} <= 1e-11, boundary coefficients exact: {exact_bc}",
    )


def test_criterion_6_affine_exactness():
    problem = manufactured_affine()
    mesh = problem.mesh_factory(4)
    A = problem.coefficient(mesh)
    data = problem.data
    u = data.exact_u
    worst_sol = 0.0
    sols = {}
    sols["conforming"] = solve_conforming(mesh, A, data)
    worst_sol = max(
        worst_sol,
        np.abs(
            sols["conforming"].u_vertex - u(mesh.vertices[:, 0], mesh.vertices[:, 1])
        ).max(),
    )
    sols["nonconforming"] = solve_nonconforming(mesh, A, data)
    mid = mesh.edge_midpoints()
    worst_sol = max(
        worst_sol, np.abs(sols["nonconforming"].u_edge - u(mid[:, 0], mid[:, 1])).max()
    )
    sols["mixed"] = solve_mixed(mesh, A, data)
    sigma = -(problem.params["tensor"] @ np.array([2.0, -1.0]))
    worst_sol = max(
        worst_sol, np.abs(sols["mixed"].flux_edge - mesh.edge_normal @ sigma).max()
    )

    worst_eta = 0.0
    for method, family in ALL_PAIRS:
        tr = edge_traces(mesh, A, sols[method], data)
        fld = recover(mesh, A, tr, method, family, validate=False)
        worst_eta = max(worst_eta, indicators(mesh, A, fld, method).eta_global)
    for method in sols:
        tr = edge_traces(mesh, A, sols[method], data)
        worst_eta = max(
            worst_eta, residual_edge_estimator(mesh, A, tr, method).eta_global
        )
    report(
        6,
        worst_sol < 1e-10 and worst_eta < 1e-10,
        f"affine exactness: worst solver error {worst_sol:.3e}, "
        f"worst estimator {worst_eta:.3e}, both < 1e-10",
    )


def test_criterion_7_nesting_inequalities(kellogg_prob):
    problem = kellogg_prob
    meshes = [initial_kellogg_mesh(8)]
    meshes.append(refine(meshes[0], np.arange(meshes[0].n_triangles)))
    ok = True
    worst_gap = -np.inf
    for mesh in meshes:
        A = problem.coefficient(mesh)
        data = problem.data
        sol = solve_conforming(mesh, A, data)
        tr = edge_traces(mesh, A, sol, data)
        rt = indicators(mesh, A, recover(mesh, A, tr, "conforming", "rt", validate=False), "conforming")
        bdm = indicators(mesh, A, recover(mesh, A, tr, "conforming", "bdm", validate=False), "conforming")
        gap = (bdm.eta_edges - rt.eta_edges).max()
        worst_gap = max(worst_gap, gap)
        ok &= bool(np.all(bdm.eta_edges <= rt.eta_edges + 1e-12))

        soln = solve_nonconforming(mesh, A, data)
        trn = edge_traces(mesh, A, soln, data)
        ne = indicators(mesh, A, recover(mesh, A, trn, "nonconforming", "ne", validate=False), "nonconforming")
        nd = indicators(mesh, A, recover(mesh, A, trn, "nonconforming", "nd", validate=False), "nonconforming")
        gap = (nd.eta_edges - ne.eta_edges).max()
        worst_gap = max(worst_gap, gap)
        ok &= bool(np.all(nd.eta_edges <= ne.eta_edges + 1e-12))
    report(
        7,
        ok,
        f"edgewise nesting eta_bdm <= eta_rt and eta_nd <= eta_ne "
        f"(worst gap {worst_gap:.3e} <= 1e-12)",
    )


def test_criterion_8_mixed_local_conservation():
    problem = manufactured_smooth()
    mesh = problem.mesh_factory(8)
    A = problem.coefficient(mesh)
    sol = solve_mixed(mesh, A, problem.data)
    mids = mesh.tri_edge_midpoints()
    fbar = problem.data.f(mids[..., 0], mids[..., 1]).mean(axis=1)
    div = mixed_divergence(mesh, sol.flux_edge)
    rel = np.abs(div - fbar).max() / np.abs(fbar).max()
    report(
        8,
        rel < 1e-10,
        f"elementwise div(sigma_m) = mean(f): relative deviation {rel:.3e} < 1e-10",
    )


def test_criterion_9_jump_robustness(kellogg_run_big_jump):
    problem, h = kellogg_run_big_jump
    effs = h.column("effectivity")[5:]
    ok = np.all((effs >= 0.3) & (effs <= 3.0))
    report(
        9,
        ok,
        f"R = 1e4 (gamma = {problem.params['gamma']:.5f}): effectivity in "
        f"[{effs.min():.3f}, {effs.max():.3f}] subset [0.3, 3.0] after iteration 5",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "--problem",
        "kellogg",
        "--initial-n",
        "8",
        "--max-dof",
        "2000",
        "--quiet",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("history.csv", "mesh_final.svg", "mesh_final.txt")
    )
    report(10, same, "two identical runs produce byte-identical CSV and SVG outputs")
