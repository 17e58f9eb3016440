import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from afemrec.cli import main, parse_cli
from afemrec.driver import AfemConfig, run_afem
from afemrec.io import read_history_csv, write_history_csv, write_mesh_svg
from afemrec.mesh import build_mesh, initial_kellogg_mesh, refine, unit_square_mesh, write_mesh_text
from afemrec.problems import BenchmarkProblem, manufactured_affine
from afemrec.solvers import CoefficientField, ProblemData


def test_history_csv_roundtrip(tmp_path, kellogg):
    cfg = AfemConfig(problem=kellogg, initial_n=4, max_dof=400)
    h = run_afem(cfg)
    path = tmp_path / "hist.csv"
    write_history_csv(h, path)
    text = path.read_text()
    assert text.startswith("iter,dofs,eta,true_error,effectivity,h_f\n")
    assert "\r" not in text
    rows = read_history_csv(path)
    assert len(rows) == len(h.records)
    for row, rec in zip(rows, h.records):
        assert row["iter"] == rec.iteration
        assert row["dofs"] == rec.dofs
        assert row["eta"] == pytest.approx(rec.eta, rel=1e-10)
        assert row["true_error"] == pytest.approx(rec.true_error, rel=1e-10)
        assert row["effectivity"] == pytest.approx(rec.effectivity, rel=1e-10)


def test_history_csv_single_iteration(tmp_path):
    p = manufactured_affine()
    h = run_afem(AfemConfig(problem=p, initial_n=2))
    path = tmp_path / "one.csv"
    write_history_csv(h, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2


def test_history_csv_empty_effectivity_without_exact(tmp_path):
    zero = lambda x, y: np.zeros_like(np.asarray(x, float))
    one = lambda x, y: np.ones_like(np.asarray(x, float))
    p = BenchmarkProblem(
        name="blind",
        mesh_factory=lambda n=2: unit_square_mesh(n),
        coefficient=lambda m: CoefficientField.isotropic(m, 1.0),
        data=ProblemData(f=one, g_D=zero),
    )
    h = run_afem(AfemConfig(problem=p, initial_n=2, max_dof=40))
    path = tmp_path / "noexact.csv"
    write_history_csv(h, path)
    for line in path.read_text().splitlines()[1:]:
        parts = line.split(",")
        assert parts[3] == "" and parts[4] == ""
        assert parts[2] != ""
    rows = read_history_csv(path)
    assert rows[0]["true_error"] is None


@pytest.mark.parametrize("row", ["1,9", "1,9,0.5,0.4,1.25,,7"])
def test_history_csv_rejects_rows_of_another_width(tmp_path, row):
    path = tmp_path / "short.csv"
    path.write_text("iter,dofs,eta,true_error,effectivity,h_f\n1,9,0.5,0.4,1.25,\n" + row + "\n")
    with pytest.raises(ValueError):
        read_history_csv(path)


def test_svg_two_triangles(tmp_path, square2):
    path = tmp_path / "mesh.svg"
    write_mesh_svg(square2, path)
    root = ET.parse(path).getroot()
    polys = [c for c in root if c.tag.endswith("polygon")]
    assert len(polys) == 2
    assert all(p.get("fill") == "none" for p in polys)


def test_svg_indicator_coloring(tmp_path, square2):
    path = tmp_path / "colored.svg"
    write_mesh_svg(square2, path, indicators=np.array([1.0, 5.0]))
    root = ET.parse(path).getroot()
    fills = [c.get("fill") for c in root if c.tag.endswith("polygon")]
    assert len(set(fills)) == 2
    assert all(f.startswith("#") for f in fills)
    with pytest.raises(ValueError):
        write_mesh_svg(square2, path, indicators=np.ones(3))


def test_svg_fills_the_view_box_at_any_scale(tmp_path):
    # scaling by a power of two is exact, so a scaled copy of a mesh draws
    # the same picture into the same view box, byte for byte
    base = initial_kellogg_mesh(8)
    for exponent in (0, -40, -50):
        mesh = build_mesh(base.vertices * 2.0**exponent, base.triangles, regions=base.tri_region)
        write_mesh_svg(mesh, tmp_path / f"scaled{exponent}.svg")
    root = ET.parse(tmp_path / "scaled0.svg").getroot()
    assert root.get("viewBox") == "0 0 800.00 800.00"
    points = [p.get("points").replace(",", " ") for p in root if p.tag.endswith("polygon")]
    coords = np.array(" ".join(points).split(), dtype=float)
    assert coords.max() - coords.min() > 760.0
    reference = (tmp_path / "scaled0.svg").read_bytes()
    for exponent in (-40, -50):
        assert (tmp_path / f"scaled{exponent}.svg").read_bytes() == reference, exponent


def test_writer_bytes_pinned(tmp_path):
    # SHA-256 of both writers' output on a graded Kellogg mesh, recorded
    # with the per-triangle f-string writers they replaced; 4768 triangles
    # span more than one chunk of rows
    mesh = initial_kellogg_mesh(48)
    for _ in range(20):
        at_origin = (np.abs(mesh.tri_coords()).sum(axis=2) == 0.0).any(axis=1)
        mesh = refine(mesh, np.flatnonzero(at_origin))
    assert mesh.n_triangles == 4768
    write_mesh_svg(mesh, tmp_path / "ind.svg", indicators=mesh.tri_diam)
    write_mesh_svg(mesh, tmp_path / "plain.svg")
    write_mesh_text(mesh, tmp_path / "mesh.txt")
    expected = {
        "ind.svg": "09f678fd6410d148967c59e05781a39317dbb59ed38efce54a1eb274a885fa26",
        "plain.svg": "8a3c1341be5864cc92d81af822aab66b373e382b29ee93fe7ca8601f663c7014",
        "mesh.txt": "e434aff3c5db3af719ab3332bf353ebf1b3e35baae2ca821f537d0a870aded61",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of the three output files of `afemrec --max-dof 2000` for one
# recovery of each method, recorded before the second implementations of
# the triangle geometry, SPD check, scatter-adds and mesh-text parser were
# folded into one kernel each (the mixed and nonconforming entries since the
# edge systems are factored as SPD, which moves Doerfler near-ties); a
# change that moves bits on purpose re-records them and lists the old and
# new values
CLI_BYTES = {
    ("conforming", "rt"): {
        "history.csv": "2fe528a02ed5a89f1bae060a36ee3494c11bae9e0ce85084abf22e6d7aade567",
        "mesh_final.txt": "c24fd89ce739768650aa03038ebff6edcf4583927e630aa32b24f87293377d09",
        "mesh_final.svg": "49d2210bbc27ad6f6ed3cda6d9a603f0d521102ce5e00d6b2bd62d9cd975a117",
    },
    ("mixed", "nd"): {
        "history.csv": "0fc3f17e8f57c2d337166814edf15f40236879e5a96bb01972c10a951ba53e37",
        "mesh_final.txt": "667d26b65b37258cfc4a81178c3a1f6e4e37ccf743cad57bf40b38d1bc466f3a",
        "mesh_final.svg": "6011caf628cb4ba83357b037d26552101349b12473f856ecb746b75c100820e6",
    },
    ("nonconforming", "bdm-nd"): {
        "history.csv": "0399a73a8d848d72b720d7ae2f73f5481e773b50bb2ccecbee0c163b3db8ee96",
        "mesh_final.txt": "ff0e0591e87e167ed4044fa7ae6567e673487058be26d758fecf9504df5eddf1",
        "mesh_final.svg": "529dafff501d43b6a41b73c1f36ff80c68cd743cfd3d261f366308ba1d5f9a48",
    },
}


@pytest.mark.parametrize("method,recovery", list(CLI_BYTES), ids="-".join)
def test_cli_output_bytes_pinned(tmp_path, method, recovery):
    out = tmp_path / "out"
    argv = ["--method", method, "--recovery", recovery, "--max-dof", "2000", "--quiet"]
    assert main(argv + ["--out", str(out)]) == 0
    for name, digest in CLI_BYTES[method, recovery].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_parse_cli_defaults():
    cfg = parse_cli([])
    assert cfg.afem.problem == "kellogg"
    assert cfg.afem.method == "conforming"
    assert cfg.afem.family == "rt"
    assert cfg.afem.theta == 0.5
    assert cfg.afem.max_dof == 100000
    assert cfg.afem.initial_n == 8
    assert str(cfg.out_dir) == "out"


def test_parse_cli_valid_combo():
    cfg = parse_cli(["--method", "mixed", "--recovery", "nd"])
    assert (cfg.afem.method, cfg.afem.family) == ("mixed", "nd")
    cfg = parse_cli(["--method", "nonconforming", "--recovery", "bdm-nd"])
    assert cfg.afem.family == "bdm-nd"


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "conforming", "--recovery", "nd"],
        ["--method", "mixed", "--recovery", "rt"],
        ["--method", "nonconforming", "--recovery", "rt"],
        ["--theta", "1.2"],
        ["--problem", "bogus"],
    ],
)
def test_parse_cli_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2


def test_main_end_to_end(tmp_path, capsys):
    rc = main(
        [
            "--problem",
            "affine",
            "--initial-n",
            "2",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "out" / "history.csv").exists()
    assert (tmp_path / "out" / "mesh_final.svg").exists()
    assert (tmp_path / "out" / "mesh_final.txt").exists()
    out = capsys.readouterr().out
    assert "iterations" in out


def test_main_numerical_failure_exit_code(tmp_path, monkeypatch):
    from afemrec import cli
    from afemrec.solvers import SolverError

    def boom(cfg):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "run_afem", boom)
    rc = main(["--problem", "affine", "--out", str(tmp_path / "x")])
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [["--initial-n", "3"], ["--problem", "affine", "--initial-n", "0"]],
)
def test_main_bad_initial_mesh_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("afemrec: error: --initial-n") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_main_determinism_small(tmp_path):
    args = [
        "--problem",
        "kellogg",
        "--initial-n",
        "4",
        "--max-dof",
        "500",
        "--quiet",
    ]
    rc1 = main(args + ["--out", str(tmp_path / "a")])
    rc2 = main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    for name in ("history.csv", "mesh_final.svg", "mesh_final.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
