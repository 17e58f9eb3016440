import numpy as np
import pytest

from afemrec.basis import LocalTriangleFrame
from afemrec.mesh import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    Mesh,
    MeshError,
    build_mesh,
    edge_patch,
    initial_kellogg_mesh,
    read_mesh_text,
    refine,
    unit_square_mesh,
    write_mesh_text,
)


def outward_normal(mesh, tri, edge):
    """Outward unit normal of a given triangle on one of its edges,
    computed from raw coordinates (independent of stored orientation)."""
    s, e = mesh.edges[edge]
    mid = 0.5 * (mesh.vertices[s] + mesh.vertices[e])
    slot = list(mesh.tri_edges[tri]).index(edge)
    opp = mesh.vertices[mesh.triangles[tri, slot]]
    ev = mesh.vertices[e] - mesh.vertices[s]
    n = np.array([ev[1], -ev[0]])
    n /= np.linalg.norm(n)
    if (mid - opp) @ n < 0:
        n = -n
    return n


def test_two_triangle_square_counts(square2):
    assert square2.n_vertices == 4
    assert square2.n_triangles == 2
    assert square2.n_edges == 5
    assert len(square2.interior_edges) == 1


def test_reference_triangle_counts():
    m = build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert m.n_edges == 3
    assert len(m.interior_edges) == 0
    assert len(m.dirichlet_edges) == 3


def test_kellogg_mesh_counts():
    m = initial_kellogg_mesh(4)
    assert (m.n_vertices, m.n_triangles, m.n_edges) == (25, 32, 56)
    # Euler formula for a disk: V - E + T = 1
    assert m.n_vertices - m.n_edges + m.n_triangles == 1


def test_kellogg_quadrant_alignment():
    m = initial_kellogg_mesh(4)
    bary = m.tri_barycenters()
    # no barycenter on an axis, and the stored region matches the quadrant
    assert np.abs(bary).min() > 1e-12
    region = (bary[:, 0] > 0).astype(int) + 2 * (bary[:, 1] > 0)
    assert np.array_equal(region, m.tri_region)


def test_kellogg_requires_even_n():
    with pytest.raises(MeshError):
        initial_kellogg_mesh(3)
    with pytest.raises(MeshError):
        initial_kellogg_mesh(0)


def test_build_rejects_zero_area():
    with pytest.raises(MeshError):
        build_mesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


def test_build_rejects_nonmanifold():
    v = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1]]
    t = [[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 2, 3]]  # edge (0,2) used 3 times
    with pytest.raises(MeshError):
        build_mesh(v, t)


def test_build_rejects_unlabeled_boundary():
    with pytest.raises(MeshError):
        build_mesh(
            [[0, 0], [1, 0], [0, 1]],
            [[0, 1, 2]],
            boundary_labeler=lambda a, b: None,
        )


def test_build_requires_dirichlet():
    with pytest.raises(MeshError):
        build_mesh(
            [[0, 0], [1, 0], [0, 1]],
            [[0, 1, 2]],
            boundary_labeler=lambda a, b: "N",
        )


def test_orientation_invariant(square2):
    for m in (square2, initial_kellogg_mesh(4)):
        for e in range(m.n_edges):
            km = m.edge_tris[e, 0]
            n = outward_normal(m, km, e)
            assert np.abs(n - m.edge_normal[e]).max() < 1e-14
            kp = m.edge_tris[e, 1]
            if kp >= 0:
                np_ = outward_normal(m, kp, e)
                assert np.abs(np_ + m.edge_normal[e]).max() < 1e-14
        # tangent is rot90 of the normal and runs from s to e
        t = np.stack([-m.edge_normal[:, 1], m.edge_normal[:, 0]], axis=1)
        assert np.abs(t - m.edge_tangent).max() < 1e-15
        ev = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
        assert np.abs(ev - m.edge_length[:, None] * m.edge_tangent).max() < 1e-12


def test_area_sum(square2):
    assert square2.tri_area.sum() == pytest.approx(1.0, rel=1e-12)
    assert initial_kellogg_mesh(8).tri_area.sum() == pytest.approx(4.0, rel=1e-12)


def test_edge_patch_interior(square2):
    F = int(square2.interior_edges[0])
    p = edge_patch(square2, F)
    assert len(p.elements) == 2
    assert len(p.boundary_edges) == 4
    assert F not in p.boundary_edges


def test_edge_patch_boundary(square2):
    F = int(square2.dirichlet_edges[0])
    p = edge_patch(square2, F)
    assert len(p.elements) == 1
    assert len(p.boundary_edges) == 2
    assert F not in p.boundary_edges


def test_edge_patch_bad_id(square2):
    with pytest.raises(MeshError):
        edge_patch(square2, 99)


def test_refine_mark_all_square(square2):
    r = refine(square2, [0, 1])
    assert r.n_triangles == 4
    assert r.n_vertices == 5  # one midpoint on the diagonal


def test_refine_mark_none(square2):
    assert refine(square2, []) is square2


def test_refine_bad_marks(square2):
    with pytest.raises(MeshError):
        refine(square2, [5])


def test_refine_takes_only_integer_ids():
    # a mask or float ids cast to int64 would bisect other elements
    mesh = initial_kellogg_mesh(4)
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[31] = True
    for marks in (mask, [1.9], np.array([1.0])):
        with pytest.raises(MeshError):
            refine(mesh, marks)
    assert refine(mesh, []) is mesh
    assert refine(mesh, np.array([], dtype=np.int64)) is mesh


def test_uniform_refinement_doubles(square2):
    m = square2
    for k in range(4):
        m = refine(m, np.arange(m.n_triangles))
        assert m.n_triangles == 2 ** (k + 1) * 2
    m = initial_kellogg_mesh(2)
    for k in range(3):
        m = refine(m, np.arange(m.n_triangles))
        assert m.n_triangles == 2 ** (k + 1) * 8


def test_refinement_conformity_and_angles():
    m = initial_kellogg_mesh(2)
    a0 = m.min_angle()
    rng = np.random.default_rng(2)
    for _ in range(6):
        marked = rng.choice(
            m.n_triangles, size=max(1, m.n_triangles // 3), replace=False
        )
        m = refine(m, marked)
        # conformity: every edge has one or two adjacent triangles
        counts = np.bincount(m.tri_edges.ravel(), minlength=m.n_edges)
        assert counts.max() <= 2
        assert counts.min() >= 1
        # counterclockwise orientation is maintained (constructor enforces
        # positive areas, assert explicitly)
        assert m.tri_area.min() > 0
        assert m.min_angle() >= 0.5 * a0 - 1e-12


def test_refinement_keeps_labels_and_regions():
    def labeler(a, b):
        mid = 0.5 * (a + b)
        return "N" if mid[1] < 1e-12 else "D"

    m = build_mesh(
        [[0, 0], [1, 0], [1, 1], [0, 1]],
        [[0, 1, 2], [0, 2, 3]],
        boundary_labeler=labeler,
    )
    n_neu0 = (m.edge_label == NEUMANN).sum()
    assert n_neu0 == 1
    r = refine(m, [0, 1])
    r = refine(r, np.arange(r.n_triangles))
    mids = r.edge_midpoints()
    neu = r.edge_label == NEUMANN
    assert neu.sum() >= 2
    assert np.all(mids[neu, 1] < 1e-12)
    dir_bnd = r.edge_label == DIRICHLET
    assert np.all(mids[dir_bnd, 1] > -1e-12)

    k = initial_kellogg_mesh(2)
    k2 = refine(k, np.arange(k.n_triangles))
    bary = k2.tri_barycenters()
    region = (bary[:, 0] > 0).astype(int) + 2 * (bary[:, 1] > 0)
    assert np.array_equal(region, k2.tri_region)


def test_refinement_keeps_edge_normals():
    m = initial_kellogg_mesh(4)
    # refine a far-away corner group of elements only
    bary = m.tri_barycenters()
    far = np.flatnonzero((bary[:, 0] > 0.5) & (bary[:, 1] > 0.5))
    keys0 = {
        (min(s, e), max(s, e)): (s, e, tuple(m.edge_normal[i]))
        for i, (s, e) in enumerate(map(tuple, m.edges))
    }
    r = refine(m, far)
    for i, (s, e) in enumerate(map(tuple, r.edges)):
        key = (min(s, e), max(s, e))
        if key in keys0:
            s0, e0, n0 = keys0[key]
            assert (s, e) == (s0, e0)
            assert np.abs(np.array(n0) - r.edge_normal[i]).max() < 1e-15


def test_inherited_orientation_must_keep_boundary_normals_outward(square2):
    m = square2
    bnd = m.dirichlet_edges
    labels = (m.edges[bnd], np.full(len(bnd), DIRICHLET))
    F = bnd[0]
    args = (m.vertices, m.triangles, m.tri_region, m.refinement_edge, labels)
    kept = Mesh(*args, m.edges[[F]])
    assert np.array_equal(kept.edges, m.edges)
    with pytest.raises(MeshError, match="points out of the domain"):
        Mesh(*args, m.edges[[F], ::-1])


def test_constructor_takes_unordered_records():
    def labeler(a, b):
        return "N" if 0.5 * (a + b)[1] > 0.999 else "D"

    m = unit_square_mesh(2, boundary_labeler=labeler)
    m = refine(m, [0, 3])
    m = refine(m, np.arange(0, m.n_triangles, 2))
    assert len(m.neumann_edges) and len(m.dirichlet_edges)
    rng = np.random.default_rng(5)
    bnd = rng.permutation(np.flatnonzero(m.edge_label != INTERIOR))
    # vertices 0 and 2 end the bottom side, with vertex 1 between them
    assert {0, 2} not in [set(e) for e in m.edges.tolist()]
    # an unknown id names no edge, though (a - 1, b + nv) encodes like (a, b)
    F = next(f for f in bnd if m.edges[f].min() > 0)
    a, b = np.sort(m.edges[F])
    alias = [a - 1, b + m.n_vertices]
    pairs = np.vstack([alias, m.edges[bnd, ::-1], [0, 2]])
    labels = np.concatenate([[3 - m.edge_label[F]], m.edge_label[bnd], [NEUMANN]])
    r = Mesh(
        m.vertices,
        m.triangles,
        m.tri_region,
        m.refinement_edge,
        (pairs, labels),
        m.edges[rng.permutation(m.n_edges)],
        m.tri_origin,
    )
    assert vars(r).keys() == vars(m).keys()
    for name, value in vars(m).items():
        assert np.array_equal(getattr(r, name), value), name


def test_mesh_text_roundtrip(tmp_path):
    def labeler(a, b):
        return "N" if 0.5 * (a + b)[0] > 0.999 else "D"

    m = build_mesh(
        [[0, 0], [1, 0], [1, 1], [0, 1]],
        [[0, 1, 2], [0, 2, 3]],
        boundary_labeler=labeler,
    )
    path = tmp_path / "mesh.txt"
    write_mesh_text(m, path)
    lines = path.read_text().splitlines()
    nv, nt, nb = map(int, lines[0].split())
    assert (nv, nt, nb) == (4, 2, 4)
    assert len(lines) == 1 + nv + nt + nb

    r = read_mesh_text(path)
    assert r.n_vertices == m.n_vertices
    assert r.n_triangles == m.n_triangles
    assert np.abs(r.vertices - m.vertices).max() < 1e-15
    assert np.array_equal(np.sort(r.edge_label), np.sort(m.edge_label))
    assert np.array_equal(r.tri_region, m.tri_region)


def test_mesh_text_rejects_missing_label(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1 1\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n")
    with pytest.raises(MeshError):
        read_mesh_text(path)


def test_mesh_text_rejects_malformed(tmp_path):
    path = tmp_path / "bad2.txt"
    for text in (
        "3 1 1\n0 0\n1 0\n0 1\n0 1 D\n",
        "3 1 1\n0 0\n1 0\n0 1\n0 1 7 0\n0 1 D\n",
        # (0, 5) must not alias the edge (1, 2) of a 3-vertex mesh
        "3 1 4\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n1 2 D\n2 0 D\n0 5 N\n",
        # each boundary edge must have exactly one record
        "3 1 4\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n0 1 N\n1 2 D\n2 0 D\n",
        "3 1 4\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n1 0 D\n1 2 D\n2 0 D\n",
        "4 2 5\n0 0\n1 0\n1 1\n0 1\n0 1 2 0\n0 2 3 0\n"
        "0 1 D\n1 2 D\n2 3 D\n3 0 D\n0 2 D\n",
        # counts are checked against the records before any array is sized:
        # one far beyond memory, one that fits but exceeds the records
        "3 10000000000000 3\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n1 2 D\n2 0 D\n",
        "3 1 1000000\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n1 2 D\n2 0 D\n",
        "3 -1 3\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n1 2 D\n2 0 D\n",
    ):
        path.write_text(text)
        with pytest.raises(MeshError):
            read_mesh_text(path)


@pytest.mark.parametrize(
    "text",
    [
        "3 1 3\n0 0\n1 0\n0 1\n0 1 99999999999999999999 0\n0 1 D\n1 2 D\n2 0 D\n",
        "3 1 3\n0 0\n1 0\n0 1\n0 1 2 0\n0 99999999999999999999 D\n1 2 D\n2 0 D\n",
        "99999999999999999999 1 3\n0 0\n1 0\n0 1\n0 1 2 0\n0 1 D\n1 2 D\n2 0 D\n",
    ],
    ids=["triangle", "edge", "header"],
)
def test_mesh_text_rejects_integers_beyond_int64(tmp_path, text):
    path = tmp_path / "big.txt"
    path.write_text(text)
    with pytest.raises(MeshError):
        read_mesh_text(path)


@pytest.mark.parametrize("tri", [[0, 1, 7], [0, 1, -1]])
def test_build_rejects_unknown_vertex(tri):
    with pytest.raises(MeshError):
        build_mesh([[0, 0], [1, 0], [0, 1]], [tri])


def test_unit_square_mesh():
    m = unit_square_mesh(3)
    assert m.n_triangles == 18
    assert m.tri_area.sum() == pytest.approx(1.0)


def test_eval_vertex_field_matches_per_triangle_barycentric():
    mesh = refine(initial_kellogg_mesh(2), [0, 3])
    rng = np.random.default_rng(3)
    C = rng.normal(size=(mesh.n_triangles, 3, 2))
    tris = rng.integers(0, mesh.n_triangles, 40)
    lam = rng.dirichlet(np.ones(3), size=40)
    points = np.einsum("mv,mvx->mx", lam, mesh.tri_coords()[tris])
    got = mesh.eval_vertex_field(C, tris, points)
    for t, p, g in zip(tris, points, got):
        frame = LocalTriangleFrame.from_vertices(*mesh.tri_coords()[t])
        assert np.allclose(g, frame.barycentric(p) @ C[t], rtol=1e-13, atol=1e-13)
