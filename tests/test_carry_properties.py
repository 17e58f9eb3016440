"""Property test: the element blocks an adaptive run carries from one mesh
to its refinement equal a fresh computation bit for bit.

A triangle that refinement kept, with a bitwise equal coefficient tensor
row, takes its parent's P1 / Crouzeix-Raviart stiffness block, side Gram
blocks, exact-gradient samples and oscillation term; every other block is
computed.  Each step below compares the carried results with the same
kernels called with nothing carried.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afemrec.basis import ElementCarry
from afemrec.estimators import oscillation, true_energy_error
from afemrec.mesh import INTERIOR, Mesh, initial_kellogg_mesh, refine
from afemrec.recovery import patch_weights
from afemrec.solvers import CoefficientField, _p1_stiffness, solve_conforming, solve_nonconforming
from test_mesh_properties import _mixed_square
from test_recovery import random_spd
from test_recovery_properties import _data

FAMILIES = ("rt", "bdm", "ne", "nd")
BASES = {"kellogg": lambda: initial_kellogg_mesh(4), "mixed-square": _mixed_square}


def _exact_grad(x, y):
    return np.cos(x) * np.exp(y), np.sin(3.0 * y) + x


class Run:
    """One carry per consumer, as in an adaptive run: the recoveries with
    the stiffness blocks, a P1 solve, a Crouzeix-Raviart solve, and the
    true error with the oscillation, which needs a scalar coefficient."""

    def __init__(self):
        self.carries = [ElementCarry() for _ in range(3)]
        self.estimates = ElementCarry()
        self.data = _data()

    def step(self, mesh, tensor):
        A = CoefficientField(tensor)
        for carry in self.carries:
            carry.advance(mesh, A)
        carry, p1, cr = self.carries
        for family in FAMILIES:
            got = patch_weights(mesh, A, family, carry)
            ref = patch_weights(mesh, A, family)
            assert got.gram.tobytes() == ref.gram.tobytes(), family
            assert got.response.tobytes() == ref.response.tobytes(), family
            for got_side, ref_side in zip(got.side_table, ref.side_table):
                for a, b in zip(got_side, ref_side):
                    assert a.tobytes() == b.tobytes(), family
        assert _p1_stiffness(mesh, A, carry).tobytes() == _p1_stiffness(mesh, A).tobytes()
        # the solves read the same blocks, which Crouzeix-Raviart scales
        got = solve_conforming(mesh, A, self.data, p1).u_vertex
        assert got.tobytes() == solve_conforming(mesh, A, self.data).u_vertex.tobytes()
        got = solve_nonconforming(mesh, A, self.data, cr).u_edge
        assert got.tobytes() == solve_nonconforming(mesh, A, self.data).u_edge.tobytes()

        # a kept triangle's scalar coefficient is as bitwise equal as its tensor
        iso = CoefficientField.isotropic(mesh, A.tensor[:, 0, 0])
        self.estimates.advance(mesh, iso)
        sol = solve_conforming(mesh, iso, self.data)
        fresh = ElementCarry()
        fresh.advance(mesh, iso)
        err = [true_energy_error(mesh, iso, sol, _exact_grad, [(0.0, 0.0)], c)
               for c in (self.estimates, fresh, None)]
        assert len({e.hex() for e in err}) == 1
        h_fk = [oscillation(mesh, iso, self.data.f, c)[1].tobytes()
                for c in (self.estimates, fresh, None)]
        assert len(set(h_fk)) == 1
        for name, shape in (("exact-grad", (mesh.n_triangles, 2, 7)),
                            ("oscillation", (mesh.n_triangles,))):
            got = self.estimates.blocks(name, shape)[0]
            assert got.tobytes() == fresh.blocks(name, shape)[0].tobytes(), name


def _inherit(child, tensor, rng):
    """Tensor rows of ``child``: a kept triangle keeps its parent's row, a
    new one draws a random SPD tensor."""
    origin = child.tri_origin
    out = np.empty((child.n_triangles, 2, 2))
    kept = origin >= 0
    out[kept] = tensor[origin[kept]]
    out[~kept] = [random_spd(rng, 1e4) for _ in range(np.count_nonzero(~kept))]
    return out


def _same_mesh(mesh):
    """``mesh`` rebuilt as its own child: every triangle kept."""
    bnd = mesh.edge_label != INTERIOR
    boundary = (mesh.edges[bnd], mesh.edge_label[bnd])
    return Mesh(
        mesh.vertices,
        mesh.triangles,
        mesh.tri_region,
        mesh.refinement_edge,
        boundary,
        mesh.edges,
        np.arange(mesh.n_triangles),
    )


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(sorted(BASES)), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_carried_blocks_equal_fresh_ones(base, seed, data):
    rng = np.random.default_rng(seed)
    mesh = BASES[base]()
    tensor = np.stack([random_spd(rng, 1e4) for _ in range(mesh.n_triangles)])
    run = Run()
    run.step(mesh, tensor)
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        marked = data.draw(
            st.lists(st.integers(0, mesh.n_triangles - 1), min_size=1, max_size=4),
            label="marked",
        )
        mesh = refine(mesh, marked)
        tensor = _inherit(mesh, tensor, rng)
        run.step(mesh, tensor)

    # a step that changes the coefficient on some kept triangles: their
    # blocks must be computed, not carried
    child = refine(mesh, [data.draw(st.integers(0, mesh.n_triangles - 1), label="mark")])
    tensor = _inherit(child, tensor, rng)
    kept = np.flatnonzero(child.tri_origin >= 0)
    changed = rng.choice(kept, max(1, len(kept) // 3), replace=False)
    tensor[changed] = [random_spd(rng, 1e4) for _ in changed]
    run.step(child, tensor)

    # a step that leaves one side of the edges exactly one computed row,
    # which a one-row batch may round differently (matmul can take another
    # path for it): the one changed triangle is K- of one or two of its
    # edges, and it is the one computed stiffness block
    mesh = _same_mesh(child)
    is_minus = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.n_triangles)[:, None]
    lone = np.flatnonzero(np.isin(is_minus.sum(axis=1), (1, 2)))
    t = lone[data.draw(st.integers(0, len(lone) - 1), label="lone")]
    tensor = tensor.copy()
    tensor[t] = random_spd(rng, 1e4)
    run.step(mesh, tensor)
