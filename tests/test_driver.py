import weakref

import numpy as np
import pytest

import afemrec.basis
import afemrec.driver
from afemrec.driver import AfemConfig, count_dofs, dorfler_mark, run_afem
from afemrec.io import write_history_csv
from afemrec.mesh import initial_kellogg_mesh, unit_square_mesh
from afemrec.problems import manufactured_affine


def test_dorfler_worked_example():
    # indicators (3, 4), theta = 0.6: need 0.36 * 25 = 9; the largest
    # single square 16 >= 9, so exactly one element is marked
    marked = dorfler_mark(np.array([3.0, 4.0]), 0.6)
    assert marked.tolist() == [1]


def test_dorfler_uniform_quarter():
    for n in (8, 10, 37):
        marked = dorfler_mark(np.ones(n), 0.5)
        assert len(marked) == int(np.ceil(0.25 * n))


def test_dorfler_theta_near_one_marks_all_positive():
    eta = np.array([0.0, 1.0, 2.0, 0.0, 0.5])
    marked = dorfler_mark(eta, 1.0 - 1e-12)
    assert sorted(marked.tolist()) == [1, 2, 4]


def test_dorfler_zero_indicators_empty():
    assert dorfler_mark(np.zeros(5), 0.5).size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dorfler_rejects_non_finite_indicators(bad):
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0, bad, 2.0, 0.5]), 0.5)


def test_dorfler_minimality_and_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        eta = rng.uniform(0.0, 1.0, size=30)
        theta = rng.uniform(0.1, 0.9)
        marked = dorfler_mark(eta, theta)
        total = (eta**2).sum()
        got = (eta[marked] ** 2).sum()
        assert got >= theta**2 * total - 1e-12 * total
        # removing the smallest marked indicator breaks the inequality
        drop = marked[np.argmin(eta[marked])]
        rest = np.setdiff1d(marked, [drop])
        assert (eta[rest] ** 2).sum() < theta**2 * total
    # deterministic tie-break by element id
    marked = dorfler_mark(np.array([1.0, 1.0, 1.0, 1.0]), 0.4)
    assert marked.tolist() == [0]


def test_count_dofs():
    mesh = initial_kellogg_mesh(4)  # 25 vertices, 16 boundary, 56 edges
    assert count_dofs(mesh, "conforming") == 9
    assert count_dofs(mesh, "nonconforming") == 56 - 16
    assert count_dofs(mesh, "mixed") == 56 + 32
    mesh2 = unit_square_mesh(2)
    assert count_dofs(mesh2, "conforming") == 1


def test_config_validation():
    with pytest.raises(ValueError):
        AfemConfig(method="conforming", family="nd")
    with pytest.raises(ValueError):
        AfemConfig(method="mixed", family="rt")
    with pytest.raises(ValueError):
        AfemConfig(theta=1.5)
    with pytest.raises(ValueError):
        AfemConfig(max_dof=0)
    cfg = AfemConfig(method="nonconforming", family="bdm-nd")
    assert cfg.family == "bdm-nd"


def test_affine_run_stops_immediately():
    p = manufactured_affine()
    cfg = AfemConfig(problem=p, method="conforming", family="rt", initial_n=2)
    h = run_afem(cfg)
    assert len(h.records) == 1
    assert h.records[0].eta < 1e-10
    assert h.records[0].true_error < 1e-10


@pytest.mark.parametrize(
    "method,family",
    [("conforming", "bdm"), ("mixed", "nd"), ("nonconforming", "rt-ne"),
     ("nonconforming", "bdm-nd")],
)
def test_small_adaptive_runs_all_methods(kellogg, method, family):
    cfg = AfemConfig(
        problem=kellogg, method=method, family=family, initial_n=4, max_dof=700
    )
    h = run_afem(cfg)
    dofs = h.column("dofs")
    assert np.all(np.diff(dofs) > 0)
    assert h.records[-1].dofs >= 700
    assert np.all(np.isfinite(h.column("eta")))
    assert np.all(h.column("true_error") > 0)


def test_kellogg_run_invariants(kellogg):
    cfg = AfemConfig(
        problem=kellogg, method="conforming", family="rt", initial_n=4, max_dof=2500
    )
    h = run_afem(cfg)
    # interface alignment: every element stays inside one quadrant
    m = h.final_mesh
    bary = m.tri_barycenters()
    region = (bary[:, 0] > 0).astype(int) + 2 * (bary[:, 1] > 0)
    assert np.array_equal(region, m.tri_region)
    coords = m.tri_coords()
    sx = np.sign(coords[..., 0]).astype(int)
    sy = np.sign(coords[..., 1]).astype(int)
    # vertex signs never straddle an axis (0 on the axis is allowed)
    assert np.all(sx.max(axis=1) - sx.min(axis=1) <= 1)
    assert np.all(sy.max(axis=1) - sy.min(axis=1) <= 1)

    # the estimator decreases over every 5-iteration window
    eta = h.column("eta")
    for i in range(len(eta) - 5):
        assert eta[i + 5] < eta[i]

    # history rows are monotone in dofs and finite
    assert np.all(np.diff(h.column("dofs")) > 0)
    for name in ("eta", "true_error", "effectivity", "h_f"):
        assert np.all(np.isfinite(h.column(name)))


def test_run_holds_one_iteration_at_a_time(kellogg, monkeypatch):
    # when a solve starts, the previous iteration's mesh, coefficient,
    # solution and indicators are already gone (no garbage collection needed)
    last = []
    solves = []
    solve = afemrec.driver._SOLVERS["conforming"]
    estimate = afemrec.driver.indicators

    def tracked_solve(mesh, A, data, carry):
        assert [ref() for ref in last] == [None] * len(last)
        sol = solve(mesh, A, data, carry)
        last[:] = [weakref.ref(mesh), weakref.ref(A), weakref.ref(sol)]
        solves.append(mesh.n_triangles)
        return sol

    def tracked_indicators(*args, **kwargs):
        ind = estimate(*args, **kwargs)
        last.append(weakref.ref(ind))
        return ind

    monkeypatch.setitem(afemrec.driver._SOLVERS, "conforming", tracked_solve)
    monkeypatch.setattr(afemrec.driver, "indicators", tracked_indicators)
    h = run_afem(AfemConfig(problem=kellogg, initial_n=4, max_dof=600))
    assert len(h.records) >= 3
    assert solves == [r.n_triangles for r in h.records]
    # the history still holds the final mesh and its indicators
    assert last[0]() is h.final_mesh
    assert h.final_indicators.shape == (h.final_mesh.n_triangles,)
    assert h.final_indicators.max() == h.records[-1].max_indicator


def test_runs_in_one_process_repeat(kellogg):
    # a run carries element blocks from one iteration to the next, and
    # nothing from one run to another
    def run(method, family):
        cfg = AfemConfig(problem=kellogg, method=method, family=family, initial_n=4, max_dof=800)
        return run_afem(cfg)

    first = run("conforming", "rt")
    run("nonconforming", "bdm-nd")
    again = run("conforming", "rt")
    assert len(first.records) >= 5
    assert first.records == again.records
    assert first.final_indicators.tobytes() == again.final_indicators.tobytes()


@pytest.mark.parametrize(
    "method,family", [("conforming", "bdm"), ("mixed", "nd"), ("nonconforming", "rt-ne")]
)
def test_carried_blocks_leave_the_history_unchanged(kellogg, monkeypatch, method, family):
    cfg = AfemConfig(problem=kellogg, method=method, family=family, initial_n=4, max_dof=800)
    carried = run_afem(cfg)
    carried_rows = []
    blocks = afemrec.basis.ElementCarry.blocks

    def nothing_carried(self, name, shape):
        out, todo = blocks(self, name, shape)
        carried_rows.append(np.count_nonzero(~todo))
        return out, np.ones_like(todo)

    monkeypatch.setattr(afemrec.basis.ElementCarry, "blocks", nothing_carried)
    fresh = run_afem(cfg)
    assert sum(carried_rows) > 0
    assert carried.records == fresh.records
    assert carried.final_indicators.tobytes() == fresh.final_indicators.tobytes()


def test_uniform_run(kellogg):
    cfg = AfemConfig(
        problem=kellogg,
        method="conforming",
        family="rt",
        initial_n=4,
        max_dof=300,
        uniform=True,
    )
    h = run_afem(cfg)
    tris = [r.n_triangles for r in h.records]
    for a, b in zip(tris, tris[1:]):
        assert b == 2 * a


def test_oscillation_errors_propagate(kellogg, monkeypatch):
    # only a tensor coefficient leaves the oscillation undefined; any other
    # failure of the term (faulty data, a broadcasting error) must surface
    def faulty(mesh, A, f, carry=None):
        raise ValueError("faulty source term")

    monkeypatch.setattr(afemrec.driver, "oscillation", faulty)
    with pytest.raises(ValueError, match="faulty source term"):
        run_afem(AfemConfig(problem=kellogg, initial_n=4, max_dof=100))


def test_tensor_coefficient_records_no_oscillation(tmp_path):
    p = manufactured_affine(tensor=[[2.0, 0.5], [0.5, 1.0]])
    h = run_afem(AfemConfig(problem=p, initial_n=2))
    assert [r.h_f for r in h.records] == [None]
    write_history_csv(h, tmp_path / "h.csv")
    assert (tmp_path / "h.csv").read_text().splitlines()[1].endswith(",")


def test_slope_computation():
    p = manufactured_affine()
    cfg = AfemConfig(problem=p, initial_n=2)
    h = run_afem(cfg)
    # a single record cannot produce a slope
    assert np.isnan(h.slope("eta"))
