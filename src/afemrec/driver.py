"""The adaptive solve - estimate - mark - refine loop.

Runs one of the three discretizations with its recovery-based estimator,
marks elements by Doerfler bulk criterion on the element indicators, and
bisects until a degree-of-freedom or iteration budget is reached.  Given
the same configuration the loop is fully deterministic (sparse direct
solves, ordered marking with id tie-breaks, deterministic refinement), and
the element blocks it carries between iterations equal fresh ones bit for
bit and never outlive the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ElementCarry
from .estimators import indicators, oscillation, true_energy_error
from .mesh import Mesh, refine
from .problems import BenchmarkProblem, get_problem
from .recovery import FAMILY_CHOICES, recover
from .solvers import (
    edge_traces,
    solve_conforming,
    solve_mixed,
    solve_nonconforming,
)

__all__ = [
    "AfemConfig",
    "IterationRecord",
    "ConvergenceHistory",
    "FAMILY_CHOICES",
    "dorfler_mark",
    "count_dofs",
    "run_afem",
]

_SOLVERS = {
    "conforming": solve_conforming,
    "mixed": solve_mixed,
    "nonconforming": solve_nonconforming,
}


@dataclass
class AfemConfig:
    """Configuration of one adaptive run.

    ``family`` names the recovery: ``rt`` / ``bdm`` for the conforming
    method, ``nd`` for mixed, and the pairs ``rt-ne`` / ``bdm-nd`` for the
    nonconforming method.  ``theta`` is the bulk-marking parameter in
    (0, 1); ``uniform=True`` disables marking and refines every element.
    """

    problem: BenchmarkProblem | str = "kellogg"
    method: str = "conforming"
    family: str = "rt"
    theta: float = 0.5
    max_dof: int = 100_000
    max_iter: int = 200
    c1: float = 0.5
    initial_n: int = 8
    uniform: bool = False

    def __post_init__(self):
        if self.method not in FAMILY_CHOICES:
            raise ValueError(f"unknown method {self.method!r}")
        if self.family not in FAMILY_CHOICES[self.method]:
            raise ValueError(
                f"recovery {self.family!r} is not defined for the "
                f"{self.method} method; valid: {FAMILY_CHOICES[self.method]}"
            )
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.c1 < 1.0:
            raise ValueError("c1 must lie in (0, 1)")
        if self.max_dof < 1 or self.max_iter < 1:
            raise ValueError("budgets must be positive")


@dataclass
class IterationRecord:
    iteration: int
    dofs: int
    eta: float
    true_error: float | None
    effectivity: float | None
    h_f: float | None
    min_indicator: float
    max_indicator: float
    n_triangles: int
    min_diam: float
    max_diam: float


@dataclass
class ConvergenceHistory:
    """Per-iteration convergence data plus the final mesh and indicators."""

    config: AfemConfig
    records: list = field(default_factory=list)
    final_mesh: Mesh = None
    final_indicators: np.ndarray = None

    def column(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.records]
        return np.array([np.nan if v is None else v for v in vals], dtype=float)

    def slope(self, what: str = "true_error", window: int = 10) -> float:
        """Least-squares slope of log(column) against log(dofs) over the
        trailing ``window`` iterations."""
        dofs = self.column("dofs")
        vals = self.column(what)
        keep = np.isfinite(vals) & (vals > 0)
        dofs, vals = dofs[keep], vals[keep]
        if len(vals) < 2:
            return float("nan")
        dofs, vals = dofs[-window:], vals[-window:]
        coef = np.polyfit(np.log(dofs), np.log(vals), 1)
        return float(coef[0])


def dorfler_mark(eta_elements: np.ndarray, theta: float) -> np.ndarray:
    """Smallest prefix of elements (by descending indicator, id tie-break)
    whose squared indicators reach ``theta^2`` of the total.  All-zero
    indicators yield an empty set; NaN or infinite ones raise ValueError."""
    eta_sq = np.asarray(eta_elements, dtype=float) ** 2
    total = eta_sq.sum()
    if not np.isfinite(total):
        raise ValueError(f"indicator sum of squares is {total}")
    if total <= 0.0:
        return np.array([], dtype=np.int64)
    order = np.lexsort((np.arange(len(eta_sq)), -eta_sq))
    csum = np.cumsum(eta_sq[order])
    k = int(np.searchsorted(csum, theta**2 * total - 1e-14 * total)) + 1
    return np.sort(order[:k])


def count_dofs(mesh: Mesh, method: str) -> int:
    """Number of discrete unknowns: free vertex values (P1), free edge values
    (CR), or RT0 + P0 dofs (mixed), which is not the size of the system solved."""
    if method == "conforming":
        return int(mesh.n_vertices - len(mesh.dirichlet_vertices))
    if method == "nonconforming":
        return int(mesh.n_edges - len(mesh.dirichlet_edges))
    if method == "mixed":
        return int(mesh.n_edges - len(mesh.neumann_edges) + mesh.n_triangles)
    raise ValueError(f"unknown method {method!r}")


def _estimate(mesh, A, config, data, carry):
    sol = _SOLVERS[config.method](mesh, A, data, carry)
    traces = edge_traces(mesh, A, sol, data)
    fields = [recover(mesh, A, traces, config.method, fam, carry=carry)
              for fam in config.family.split("-")]
    del traces  # the indicators read only the recovered fields
    # the weights c only apply to the nonconforming pair
    return sol, indicators(mesh, A, fields, config.method, c=(config.c1, 1.0 - config.c1))


def run_afem(config: AfemConfig) -> ConvergenceHistory:
    """Execute the adaptive loop until the dof or iteration budget.

    Each iteration solves, estimates, and records; refinement follows unless
    a budget is hit or the estimator vanishes.  The true energy error and
    effectivity index are recorded whenever the problem carries an exact
    solution.

    The run's :class:`~afemrec.basis.ElementCarry` carries from one
    iteration to the next only the blocks that depend on a triangle's
    geometry, coefficient and the problem's fixed data alone: the P1 /
    Crouzeix-Raviart stiffness blocks, the side Gram blocks of each
    recovery family per (triangle, slot), the exact-gradient samples of the
    true error, the oscillation's squared data deviations, and the
    coefficient tensor rows they were computed with.  A
    triangle that refinement kept (``mesh.tri_origin``) and whose tensor
    row is bitwise equal to its parent's reuses its parent's blocks, which
    equal a fresh computation bit for bit; every other block is computed.
    So the history is the same as with every block computed afresh.  A
    uniform run, whose refinements keep no triangle, holds no carry.  The
    carry lives only inside this call.
    """
    problem = (
        get_problem(config.problem) if isinstance(config.problem, str) else config.problem
    )
    data = problem.data
    mesh = problem.mesh_factory(config.initial_n)
    history = ConvergenceHistory(config=config)
    # a uniform refinement keeps no triangle, so its blocks are not held
    carry = None if config.uniform else ElementCarry()

    for iteration in range(1, config.max_iter + 1):
        A = problem.coefficient(mesh)
        if carry is not None:
            carry.advance(mesh, A)
        sol, ind = _estimate(mesh, A, config, data, carry)

        err = eff = None
        if data.has_exact:
            err = true_energy_error(
                mesh, A, sol, data.exact_grad, data.singular_points, carry
            )
            eff = ind.eta_global / err if err > 0 else None
        # the oscillation is defined for a scalar coefficient only
        h_f = None if A.scalar is None else oscillation(mesh, A, data.f, carry)[0]

        dofs = count_dofs(mesh, config.method)
        history.records.append(
            IterationRecord(
                iteration=iteration,
                dofs=dofs,
                eta=ind.eta_global,
                true_error=err,
                effectivity=eff,
                h_f=h_f,
                min_indicator=float(ind.eta_elements.min()),
                max_indicator=float(ind.eta_elements.max()),
                n_triangles=mesh.n_triangles,
                min_diam=float(mesh.tri_diam.min()),
                max_diam=float(mesh.tri_diam.max()),
            )
        )

        if dofs >= config.max_dof or iteration >= config.max_iter:
            break
        if config.uniform:
            marked = np.arange(mesh.n_triangles)
        else:
            marked = dorfler_mark(ind.eta_elements, config.theta)
        if marked.size == 0:
            break
        # one iteration's state at a time: only the mesh, the marked set and
        # the carried blocks reach refine, and the marked set does not
        # outlive it
        del sol, ind, A
        mesh = refine(mesh, marked)
        del marked

    history.final_mesh = mesh
    history.final_indicators = ind.eta_elements
    return history
