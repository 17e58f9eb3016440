"""Result serialization: convergence CSV and SVG mesh rendering.

Only plain-text formats (CSV, SVG, and the mesh text format in
:mod:`afemrec.mesh`) are written, so outputs stay diffable; identical runs
produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .driver import ConvergenceHistory
from .mesh import Mesh, _write_rows

__all__ = ["write_history_csv", "read_history_csv", "write_mesh_svg"]

CSV_HEADER = "iter,dofs,eta,true_error,effectivity,h_f"


def _fmt(value) -> str:
    if value is None:
        return ""
    v = float(value)
    if not np.isfinite(v):
        return ""
    return f"{v:.12g}"


def write_history_csv(history: ConvergenceHistory, path) -> None:
    """One row per iteration; floats carry 12 significant digits, unknown
    entries (no exact solution) stay empty; LF line endings."""
    if not history.records:
        raise ValueError("cannot serialize an empty history")
    lines = [CSV_HEADER]
    for r in history.records:
        lines.append(
            ",".join(
                [
                    str(r.iteration),
                    str(r.dofs),
                    _fmt(r.eta),
                    _fmt(r.true_error),
                    _fmt(r.effectivity),
                    _fmt(r.h_f),
                ]
            )
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_history_csv(path):
    """Parse a history CSV back into a list of per-row dicts (floats, or
    None for empty fields)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized history CSV header")
    rows = []
    names = CSV_HEADER.split(",")
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError(f"history row {ln!r} has {len(parts)} fields, not {len(names)}")
        row = {}
        for name, part in zip(names, parts):
            if part == "":
                row[name] = None
            elif name in ("iter", "dofs"):
                row[name] = int(part)
            else:
                row[name] = float(part)
        rows.append(row)
    return rows


# greyscale-to-red ramp for indicator quantiles (dark = large indicator)
_RAMP = (
    "#f7f7f7",
    "#fddbc7",
    "#f4a582",
    "#d6604d",
    "#b2182b",
    "#67001f",
)


def write_mesh_svg(mesh: Mesh, path, indicators=None, size: int = 800) -> None:
    """Render the mesh as an SVG, one polygon per triangle.

    With ``indicators`` given (one value per element), triangles are filled
    by indicator quantile on a light-to-dark ramp; otherwise they are
    unfilled.  The viewBox fits the mesh bounding box with a small margin.
    """
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    # a floor relative to the extent, so a mesh draws alike at every scale
    span = np.maximum(hi - lo, 1e-12 * (hi - lo).max())
    margin = 0.02 * span.max()
    width = span[0] + 2 * margin
    height = span[1] + 2 * margin

    fills = ["none"] * mesh.n_triangles
    if indicators is not None:
        vals = np.asarray(indicators, dtype=float)
        if vals.shape != (mesh.n_triangles,):
            raise ValueError("need one indicator value per element")
        if not np.all(vals <= 0):
            qs = np.quantile(vals, np.linspace(0.0, 1.0, len(_RAMP) + 1)[1:-1])
            bins = np.searchsorted(qs, vals, side="right")
            fills = [_RAMP[b] for b in bins.tolist()]

    scale = size / max(width, height)
    coords = mesh.tri_coords()
    pts = np.empty((mesh.n_triangles, 3, 2))
    pts[..., 0] = (coords[..., 0] - lo[0] + margin) * scale
    # SVG y axis points down
    pts[..., 1] = (hi[1] + margin - coords[..., 1]) * scale
    stroke = max(0.2, 0.002 * size * min(mesh.tri_diam.min() / span.max(), 1.0))
    polygon = (
        '<polygon points="%.3f,%.3f %.3f,%.3f %.3f,%.3f" fill="%s" '
        f'stroke="black" stroke-width="{stroke:.3f}"/>\n'
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * scale:.2f}" '
            f'height="{height * scale:.2f}" '
            f'viewBox="0 0 {width * scale:.2f} {height * scale:.2f}">\n'
        )
        _write_rows(fh, polygon, pts.reshape(-1, 6), fills)
        fh.write("</svg>\n")
