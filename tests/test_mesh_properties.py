"""Property tests of the edge orientation contract under random NVB markings.

Every edge ``F = (s, e)`` has ``K-`` as the triangle around which ``s -> e``
runs counterclockwise; a new edge runs counterclockwise around its lower-id
triangle, and an edge that survives a refinement keeps ``(s, e)`` and its
normal bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afemrec.mesh import INTERIOR, build_mesh, initial_kellogg_mesh, refine, unit_square_mesh


def _mixed_square():
    base = unit_square_mesh(2)

    def labeler(a, b):
        return "N" if 0.5 * (a + b)[0] > 0.999 else "D"

    regions = np.arange(base.n_triangles) % 3
    return build_mesh(base.vertices, base.triangles, boundary_labeler=labeler, regions=regions)


BASES = {"kellogg": lambda: initial_kellogg_mesh(2), "mixed-square": _mixed_square}


def _edge_index(mesh):
    """Map ``(min id, max id)`` of every edge to its edge id."""
    lo, hi = np.sort(mesh.edges, axis=1).T
    return {(int(a), int(b)): F for F, (a, b) in enumerate(zip(lo, hi))}


def check_orientation(mesh):
    s, e = mesh.edges.T
    # s -> e runs counterclockwise on K- and clockwise on K+: with k the
    # edge's local slot, s, e are local vertices (k + 1, k + 2) % 3 of K-
    # and (k + 2, k + 1) % 3 of K+
    for side, (ds, de) in enumerate([(1, 2), (2, 1)]):
        has = mesh.edge_tris[:, side] >= 0
        F = np.flatnonzero(has)
        tv = mesh.triangles[mesh.edge_tris[F, side]]
        rows = np.arange(len(F))
        k = mesh.edge_slot[F, side]
        assert np.array_equal(tv[rows, (k + ds) % 3], s[F])
        assert np.array_equal(tv[rows, (k + de) % 3], e[F])
        assert np.array_equal(mesh.tri_edges[mesh.edge_tris[F, side], k], F)
        assert np.all(mesh.edge_slot[~has, side] == -1)
    plus = mesh.edge_tris[:, 1] >= 0
    # a triangle is K- of exactly the edges whose s -> e runs counterclockwise
    # around it
    is_minus = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.n_triangles)[:, None]
    ccw = mesh.triangles[:, [1, 2, 0]] == mesh.edges[mesh.tri_edges, 0]
    assert np.array_equal(ccw, is_minus)
    # interior edges have two distinct sides, boundary edges one
    interior = mesh.edge_label == INTERIOR
    assert np.array_equal(plus, interior)
    assert np.all(mesh.edge_tris[interior, 0] != mesh.edge_tris[interior, 1])
    assert mesh.n_edges == len(_edge_index(mesh))


def check_nvb(mesh, base_min_angle):
    # conformity: boundary-labelled edges lie on the boundary of the square,
    # so no hanging node leaves an unmatched interior edge half
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    mid = mesh.edge_midpoints()[mesh.edge_label != INTERIOR]
    on_bnd = (np.abs(mid - lo) < 1e-12).any(axis=1) | (np.abs(mid - hi) < 1e-12).any(axis=1)
    assert on_bnd.all()
    assert mesh.tri_area.sum() == pytest.approx(np.prod(hi - lo), rel=1e-12)
    # NVB of right isosceles triangles bisected at the hypotenuse keeps every
    # child similar, so the smallest angle never drops
    assert mesh.min_angle() >= base_min_angle - 1e-12


def check_regions(parent, child):
    """Each child triangle lies in a parent triangle of the same region."""
    p = child.tri_barycenters()
    x0 = parent.vertices[parent.triangles[:, 0]]
    # barycentric coordinates of every child barycenter in every parent
    lam12 = np.einsum("tld,ctd->ctl", parent.grad_lambda[:, 1:], p[:, None] - x0[None])
    lam = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
    host = (lam > -1e-12).all(axis=2)
    assert np.all(host.sum(axis=1) == 1)
    assert np.array_equal(child.tri_region, parent.tri_region[host.argmax(axis=1)])


def check_origin(parent, child):
    """A triangle with a parent id is that parent triangle verbatim, with
    its geometry bits and its side of each edge; every other triangle is
    new."""
    origin = child.tri_origin
    kept = np.flatnonzero(origin >= 0)
    src = origin[kept]
    assert np.all(origin[origin < 0] == -1)
    assert len(np.unique(src)) == len(src)
    assert np.array_equal(child.triangles[kept], parent.triangles[src])
    assert np.array_equal(child.tri_region[kept], parent.tri_region[src])
    assert np.array_equal(child.refinement_edge[kept], parent.refinement_edge[src])
    for name in ("tri_area", "grad_lambda"):
        assert getattr(child, name)[kept].tobytes() == getattr(parent, name)[src].tobytes()
    both = ((child, kept), (parent, src))
    sides = [m.edge_tris[m.tri_edges[t], 1] == t[:, None] for m, t in both]
    assert np.array_equal(*sides)
    lengths = [m.edge_length[m.tri_edges[t]].tobytes() for m, t in both]
    assert lengths[0] == lengths[1]
    # every parent triangle that survives verbatim has its id recorded
    triples = [set(map(tuple, m.triangles.tolist())) for m in (parent, child)]
    assert len(triples[0] & triples[1]) == len(kept)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(sorted(BASES)), data=st.data())
def test_orientation_contract_under_random_nvb(base, data):
    mesh = BASES[base]()
    base_min_angle = mesh.min_angle()
    check_orientation(mesh)
    # every edge of the initial mesh is new: K- is the lower triangle id
    interior = mesh.edge_label == INTERIOR
    assert np.all(mesh.edge_tris[interior, 0] < mesh.edge_tris[interior, 1])

    rounds = data.draw(st.integers(1, 4), label="rounds")
    for _ in range(rounds):
        marked = data.draw(
            st.lists(st.integers(0, mesh.n_triangles - 1), min_size=1, max_size=6),
            label="marked",
        )
        child = refine(mesh, marked)
        check_orientation(child)
        check_nvb(child, base_min_angle)
        check_regions(mesh, child)
        check_origin(mesh, child)

        parent_index = _edge_index(mesh)
        for key, F in _edge_index(child).items():
            P = parent_index.get(key)
            if P is None:
                # a new edge runs counterclockwise around its lower-id triangle
                if child.edge_tris[F, 1] >= 0:
                    assert child.edge_tris[F, 0] < child.edge_tris[F, 1]
            else:
                # a surviving edge keeps (s, e) and its normal bit for bit
                assert tuple(child.edges[F]) == tuple(mesh.edges[P])
                assert child.edge_normal[F].tobytes() == mesh.edge_normal[P].tobytes()
                assert child.edge_label[F] == mesh.edge_label[P]
        mesh = child


@pytest.mark.parametrize("base", sorted(BASES))
def test_uniform_refinement_keeps_no_triangle(base):
    mesh = BASES[base]()
    assert mesh.tri_origin is None
    child = refine(mesh, np.arange(mesh.n_triangles))
    assert np.all(child.tri_origin == -1)


# triangle count and SHA-256 of the topology after three rounds of seeded
# random marks, recorded when bisection still looked each edge up by its
# vertex pair
PINNED_REFINE = {
    "mixed-square": (
        _mixed_square, 23, "7e6045b42ea15ce74c2a9d2e51725786606070a5ee41a7e7db42efeb904d7e95"
    ),
    "kellogg-4": (
        lambda: initial_kellogg_mesh(4),
        144,
        "7bb1188ca7e49d40158fc4e8cebafa9f1a3e671826a28393e1bf7485c933563a",
    ),
}


@pytest.mark.parametrize("base", sorted(PINNED_REFINE))
def test_refine_bits_pinned_under_random_marks(base):
    make, n_triangles, digest = PINNED_REFINE[base]
    mesh = make()
    rng = np.random.default_rng(11)
    for _ in range(3):
        mesh = refine(mesh, rng.choice(mesh.n_triangles, mesh.n_triangles // 3, replace=False))
    assert mesh.n_triangles == n_triangles
    h = hashlib.sha256()
    for a in (mesh.triangles, mesh.refinement_edge, mesh.tri_region, mesh.edges, mesh.edge_label):
        h.update(a.astype(np.int64).tobytes())
    assert h.hexdigest() == digest
