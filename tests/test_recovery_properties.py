"""Property test: every recovery equals the patch oracle on random
tensor-coefficient meshes, and the batched oracle equals its single-edge
calls."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afemrec.mesh import refine
from afemrec.recovery import compute_jumps, local_oracle, recover
from afemrec.solvers import CoefficientField, ProblemData
from test_mesh_properties import _mixed_square
from test_recovery import ALL_PAIRS, _solve, random_spd


def _data():
    ue = lambda x, y: 0.3 * np.exp(np.asarray(x, float)) * np.cos(np.asarray(y, float))
    f = lambda x, y: np.cos(5 * np.asarray(x, float)) + np.asarray(y, float)
    g_N = lambda x, y: 0.1 + 0.0 * np.asarray(x, float)
    return ProblemData(f=f, g_D=ue, g_N=g_N)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_recover_equals_oracle_on_random_tensor_meshes(seed, data):
    mesh = _mixed_square()  # Dirichlet, with a Neumann side at x = 1
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        marked = data.draw(
            st.lists(st.integers(0, mesh.n_triangles - 1), min_size=1, max_size=6),
            label="marked",
        )
        mesh = refine(mesh, marked)
    rng = np.random.default_rng(seed)
    A = CoefficientField(np.stack([random_spd(rng, 1e4) for _ in range(mesh.n_triangles)]))
    problem = _data()
    edges = np.arange(mesh.n_edges)
    for method, family in ALL_PAIRS:
        sol, tr = _solve(mesh, A, problem, method)
        fld = recover(mesh, A, tr, method, family, validate="all")
        jump = compute_jumps(mesh, A, tr, method).masked(fld.kind)
        batch = local_oracle(mesh, A, edges, jump, family)
        fields = (fld.numerical_side, fld.correction_side, fld.coef)
        scale = np.hstack([np.abs(a).reshape(mesh.n_edges, -1) for a in fields]).max(axis=1)
        for F in edges:
            one = local_oracle(mesh, A, int(F), jump[F], family)
            plus = np.zeros_like(one.corr_minus) if one.corr_plus is None else one.corr_plus
            assert (one.corr_plus is None) == (mesh.edge_tris[F, 1] < 0)
            assert np.abs(batch.corr_minus[F] - one.corr_minus).max() <= 1e-13 * scale[F]
            assert np.abs(batch.corr_plus[F] - plus).max() <= 1e-13 * scale[F]
