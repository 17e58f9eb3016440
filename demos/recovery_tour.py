"""Tour of the edge-patch recovery machinery on a single interface patch.

Builds a two-triangle patch with a strong coefficient jump, solves the
conforming method on a small interface mesh, and walks through the pieces:
side traces, edge jumps, patch averaging weights, the explicit recovered
coefficients, and their agreement with the constrained least-squares patch
oracle.  Finishes by checking normal-trace continuity of the recovered flux.

Run:  python3 demos/recovery_tour.py
"""

import numpy as np

from afemrec import CoefficientField, ProblemData, initial_kellogg_mesh
from afemrec.recovery import compute_jumps, local_oracle, patch_weights, recover
from afemrec.solvers import edge_traces, solve_conforming

mesh = initial_kellogg_mesh(4)
ratio = 100.0
alpha = lambda x, y: np.where(((x > 0) & (y > 0)) | ((x < 0) & (y < 0)), ratio, 1.0)
A = CoefficientField.isotropic(mesh, alpha)
u_bc = lambda x, y: np.sin(np.pi * np.asarray(x, float)) * np.cos(np.asarray(y, float))
data = ProblemData(
    f=lambda x, y: np.ones_like(np.asarray(x, float)),
    g_D=u_bc,
)

sol = solve_conforming(mesh, A, data)
traces = edge_traces(mesh, A, sol, data)
jumps = compute_jumps(mesh, A, traces, "conforming")

# pick the interior edge with the largest flux jump across the interface
interface = [
    int(e)
    for e in mesh.interior_edges
    if A.scalar[mesh.edge_tris[e, 0]] != A.scalar[mesh.edge_tris[e, 1]]
]
F = max(interface, key=lambda e: abs(jumps.flux[e, 0]))
km, kp = mesh.edge_tris[F]
print(f"edge {F}: K- = {km} (alpha {A.scalar[km]:g}), K+ = {kp} (alpha {A.scalar[kp]:g})")
print(f"  side traces of the numerical flux: {traces.flux[F, 0, 0]:+.5f} / {traces.flux[F, 1, 0]:+.5f}")
print(f"  flux jump: {jumps.flux[F, 0]:+.5f}")

w = patch_weights(mesh, A, "rt")
print(f"  averaging weight a_rt = {w.a_rt[F]:.6f}")
print(f"  (coefficient-ratio heuristic alpha+/(alpha-+alpha+) = "
      f"{A.scalar[kp]/(A.scalar[km]+A.scalar[kp]):.6f})")

field = recover(mesh, A, traces, "conforming", "rt", validate="all")
print(f"  recovered normal flux on the edge: {field.coef[F]:+.5f}")
print(f"  corrections per side: {field.correction_side[F, 0]:+.5e} / "
      f"{field.correction_side[F, 1]:+.5e}")

oracle = local_oracle(mesh, A, F, float(jumps.flux[F, 0]), "rt")
print(f"  patch-oracle corrections:  {oracle.corr_minus[0]:+.5e} / "
      f"{oracle.corr_plus[0]:+.5e}")

# normal-trace continuity of the full recovered flux across every edge
C = field.total_vertex_vectors()
ie = mesh.interior_edges
s = mesh.vertices[mesh.edges[ie, 0]]
e = mesh.vertices[mesh.edges[ie, 1]]
worst = 0.0
for t in (0.25, 0.5, 0.75):
    pts = (1 - t) * s + t * e
    vm = mesh.eval_vertex_field(C, mesh.edge_tris[ie, 0], pts)
    vp = mesh.eval_vertex_field(C, mesh.edge_tris[ie, 1], pts)
    worst = max(worst, np.abs(((vm - vp) * mesh.edge_normal[ie]).sum(axis=1)).max())
print(f"\nmax normal-trace jump of the recovered flux over all edges: {worst:.2e}")
print("the recovered field is H(div)-conforming to machine precision")
