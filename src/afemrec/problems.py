"""Benchmark problem catalog.

The main entry is the checkerboard interface benchmark on (-1,1)^2 whose
exact solution ``u = r^gamma mu(theta)`` is harmonic in each quadrant,
continuous, and has continuous conormal flux ``alpha du/dn`` across the
axes.  The angular profile is the standard four-piece cosine form with a
fixed phase ``rho = pi/4``; the remaining phase ``sigma`` is solved
numerically from the transcendental interface matching conditions (it is
never hard-coded), and every constructed problem is run through
:func:`verify_exact`, which checks the PDE residual by finite differences
and the interface continuity conditions analytically.  Either the exponent
``gamma`` or the coefficient ratio ``R`` may be prescribed; the other is
solved for.

Two manufactured problems (affine and smooth) cover exactness and
convergence testing.  Problem ids for the command line: ``kellogg``,
``affine``, ``smooth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, initial_kellogg_mesh, unit_square_mesh
from .solvers import CoefficientField, ProblemData

__all__ = [
    "BenchmarkProblem",
    "ProblemError",
    "kellogg_problem",
    "manufactured_affine",
    "manufactured_smooth",
    "verify_exact",
    "get_problem",
    "PROBLEM_IDS",
]

PROBLEM_IDS = ("kellogg", "affine", "smooth")


class ProblemError(RuntimeError):
    """Exact-solution self-check failed during problem construction."""


@dataclass
class BenchmarkProblem:
    """A PDE problem with mesh factory, coefficient generator, and data.

    ``coefficient(mesh)`` evaluates the piecewise-constant coefficient on a
    mesh (by barycenters, so any refinement of an interface-aligned initial
    mesh stays exact); ``alpha_at(x, y)`` is the pointwise scalar view used
    by the verification routine; ``sample_filter(x, y)`` masks points where
    finite-difference stencils are valid (away from interfaces and singular
    points); ``interface_residuals()`` returns the analytic interface
    mismatch values, when the problem has interfaces.
    """

    name: str
    mesh_factory: callable
    coefficient: callable
    data: ProblemData
    alpha_at: callable | None = None
    sample_filter: callable | None = None
    interface_residuals: callable | None = None
    params: dict = field(default_factory=dict)

    @property
    def has_exact(self) -> bool:
        return self.data.has_exact


# ----------------------------------------------------------------------
# checkerboard benchmark


def _bisect(f, a: float, b: float) -> float | None:
    """Root of ``f`` on ``[a, b]`` by bisection, or None when ``f`` has the
    same sign at both ends.  Stops once the bracket is narrower than
    ``1e-16 * max(1, |m|)`` around its midpoint ``m``."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        return None
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if abs(b - a) < 1e-16 * max(1.0, abs(m)):
            break
    return 0.5 * (a + b)


def _sigma_from_gamma(gamma: float) -> float:
    """Solve the interface matching condition for the free phase.

    With ``rho = pi/4`` the conormal-flux conditions on the four axes reduce
    to ``tan((pi/2 - sigma) gamma) = tan(sigma gamma)`` on the admissibility
    window ``max(0, pi - pi gamma) < -2 gamma sigma < min(pi, 2 pi - pi
    gamma)``; the root is found by bisection of that determinant.
    """
    if not 0.0 < gamma < 1.0:
        raise ProblemError("the exponent must lie in (0, 1)")
    lo = -min(math.pi, 2.0 * math.pi - math.pi * gamma) / (2.0 * gamma)
    hi = -max(0.0, math.pi - math.pi * gamma) / (2.0 * gamma)
    eps = 1e-9 * (hi - lo)

    def det(s):
        return math.tan((math.pi / 2.0 - s) * gamma) - math.tan(s * gamma)

    sigma = _bisect(det, lo + eps, hi - eps)
    if sigma is None:
        raise ProblemError("interface matching determinant does not change sign")
    return sigma


def _ratio_from_gamma(gamma: float) -> float:
    sigma = _sigma_from_gamma(gamma)
    return -math.tan(sigma * gamma) / math.tan(math.pi * gamma / 4.0)


def _gamma_from_ratio(R: float) -> float:
    """Invert the (monotone decreasing) map gamma -> coefficient ratio."""
    if R <= 1.0:
        raise ProblemError("the coefficient ratio must exceed 1")
    gamma = _bisect(lambda g: _ratio_from_gamma(g) - R, 1e-6, 1.0 - 1e-9)
    if gamma is None:
        raise ProblemError("coefficient ratio out of the solvable range")
    return gamma


def kellogg_problem(
    gamma: float = 0.1,
    R: float | None = None,
    initial_n: int = 8,
    _sigma_shift: float = 0.0,
) -> BenchmarkProblem:
    """Checkerboard-coefficient problem on (-1,1)^2 with exact solution.

    ``alpha = R`` on the first and third quadrants, 1 elsewhere, the
    boundary is all Dirichlet with ``g_D`` the exact trace, and ``f = 0``.
    Pass ``R`` to solve for the matching exponent instead of prescribing
    ``gamma`` (the default pair is gamma = 0.1, R = 161.4476387975881).
    The constructed problem is verified with :func:`verify_exact`;
    construction aborts if any check fails.
    """
    if R is not None:
        gamma = _gamma_from_ratio(float(R))
    rho = math.pi / 4.0
    sigma = _sigma_from_gamma(gamma) + _sigma_shift
    R_val = -math.tan(sigma * gamma) / math.tan(rho * gamma)

    amp = np.array(
        [
            math.cos((math.pi / 2.0 - sigma) * gamma),
            math.cos(rho * gamma),
            math.cos(sigma * gamma),
            math.cos((math.pi / 2.0 - rho) * gamma),
        ]
    )
    phase = np.array(
        [
            -math.pi / 2.0 + rho,
            -math.pi + sigma,
            -math.pi - rho,
            -3.0 * math.pi / 2.0 - sigma,
        ]
    )
    breaks = np.array([math.pi / 2.0, math.pi, 1.5 * math.pi, 2.0 * math.pi])
    alpha_piece = np.array([R_val, 1.0, R_val, 1.0])

    def piece_of(theta):
        return np.minimum(np.searchsorted(breaks, theta, side="left"), 3)

    def mu_piece(i, theta):
        return amp[i] * np.cos((theta + phase[i]) * gamma)

    def dmu_piece(i, theta):
        return -gamma * amp[i] * np.sin((theta + phase[i]) * gamma)

    def polar(x, y):
        r = np.hypot(x, y)
        theta = np.mod(np.arctan2(y, x), 2.0 * math.pi)
        return r, theta

    def exact_u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r, theta = polar(x, y)
        return r**gamma * mu_piece(piece_of(theta), theta)

    def exact_grad(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r, theta = polar(x, y)
        i = piece_of(theta)
        # grad(r^g a cos(g (theta + phase))) = g a r^(g-1) (cos psi, -sin psi)
        psi = (gamma - 1.0) * theta + gamma * phase[i]
        scale = np.zeros_like(r)
        np.power(r, gamma - 1.0, out=scale, where=r > 0.0)
        scale *= gamma * amp[i]
        return scale * np.cos(psi), -scale * np.sin(psi)

    def alpha_at(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        odd = ((x > 0) & (y > 0)) | ((x < 0) & (y < 0))
        return np.where(odd, R_val, 1.0)

    def coefficient(mesh: Mesh) -> CoefficientField:
        return CoefficientField.isotropic(mesh, alpha_at)

    def sample_filter(x, y):
        margin = 1e-3
        return (np.abs(x) > margin) & (np.abs(y) > margin) & (np.hypot(x, y) > 0.05)

    def interface_residuals():
        u_mis = 0.0
        flux_mis = 0.0
        for k in range(4):
            th = breaks[k]
            nxt = (k + 1) % 4
            th_next = th if k < 3 else 0.0
            u_mis = max(u_mis, abs(mu_piece(k, th) - mu_piece(nxt, th_next)))
            flux_mis = max(
                flux_mis,
                abs(
                    alpha_piece[k] * dmu_piece(k, th)
                    - alpha_piece[nxt] * dmu_piece(nxt, th_next)
                ),
            )
        return {"u": float(u_mis), "flux": float(flux_mis)}

    data = ProblemData(
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        g_D=exact_u,
        exact_u=exact_u,
        exact_grad=exact_grad,
        singular_points=((0.0, 0.0),),
    )
    problem = BenchmarkProblem(
        name="kellogg",
        mesh_factory=lambda n=initial_n: initial_kellogg_mesh(n),
        coefficient=coefficient,
        data=data,
        alpha_at=alpha_at,
        sample_filter=sample_filter,
        interface_residuals=interface_residuals,
        params={"gamma": gamma, "R": R_val, "rho": rho, "sigma": sigma},
    )
    verify_exact(problem)
    return problem


# ----------------------------------------------------------------------
# manufactured problems


def manufactured_affine(tensor=None, initial_n: int = 4) -> BenchmarkProblem:
    """u = 1 + 2 x - y on the unit square, f = 0, any constant SPD tensor."""
    A = np.eye(2) if tensor is None else np.asarray(tensor, dtype=float)

    def exact_u(x, y):
        return 1.0 + 2.0 * np.asarray(x, dtype=float) - np.asarray(y, dtype=float)

    def exact_grad(x, y):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, 2.0), np.full_like(x, -1.0)

    data = ProblemData(
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        g_D=exact_u,
        exact_u=exact_u,
        exact_grad=exact_grad,
    )
    problem = BenchmarkProblem(
        name="affine",
        mesh_factory=lambda n=initial_n: unit_square_mesh(n),
        coefficient=lambda mesh: CoefficientField.from_tensor(mesh, A),
        data=data,
        alpha_at=(lambda x, y: np.full_like(np.asarray(x, dtype=float), A[0, 0]))
        if abs(A[0, 1]) < 1e-15 and abs(A[0, 0] - A[1, 1]) < 1e-15
        else None,
        params={"tensor": A},
    )
    verify_exact(problem)
    return problem


def manufactured_smooth(initial_n: int = 4) -> BenchmarkProblem:
    """u = sin(pi x) sin(pi y) on the unit square, A = I, f = 2 pi^2 u."""

    def exact_u(x, y):
        return np.sin(np.pi * np.asarray(x, dtype=float)) * np.sin(
            np.pi * np.asarray(y, dtype=float)
        )

    def exact_grad(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    data = ProblemData(
        f=lambda x, y: 2.0 * np.pi**2 * exact_u(x, y),
        g_D=exact_u,
        exact_u=exact_u,
        exact_grad=exact_grad,
    )
    problem = BenchmarkProblem(
        name="smooth",
        mesh_factory=lambda n=initial_n: unit_square_mesh(n),
        coefficient=lambda mesh: CoefficientField.isotropic(mesh, 1.0),
        data=data,
        alpha_at=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        params={},
    )
    verify_exact(problem)
    return problem


# ----------------------------------------------------------------------
# verification


def verify_exact(problem: BenchmarkProblem, n_samples: int = 200, h: float = 1e-5):
    """Check the attached exact solution against the PDE and interfaces.

    (i) ``-div(A grad u) = f`` at interior sample points via a second-order
    finite-difference Laplacian (step ``h``, tolerance 1e-4 relative to the
    second-derivative scale), with the stencil kept away from interfaces
    and singular points; (ii, iii) analytic interface continuity of ``u``
    and of the conormal flux, both below 1e-8.  The exact gradient is also
    checked against central differences.  Raises :class:`ProblemError` on
    the first failed check and returns a report dict otherwise.
    """
    data = problem.data
    if not data.has_exact:
        raise ProblemError("problem has no exact solution to verify")

    report = {}
    if problem.interface_residuals is not None:
        res = problem.interface_residuals()
        report["u_interface"] = res["u"]
        report["flux_interface"] = res["flux"]
        if res["u"] > 1e-8:
            raise ProblemError(f"interface continuity of u fails: {res['u']:.3e}")
        if res["flux"] > 1e-8:
            raise ProblemError(
                f"interface continuity of the flux fails: {res['flux']:.3e}"
            )

    mesh = problem.mesh_factory(4)
    rng = np.random.default_rng(20240 + len(problem.name))
    tris = rng.integers(0, mesh.n_triangles, size=4 * n_samples)
    w = rng.dirichlet(np.ones(3), size=4 * n_samples)
    pts = np.einsum("mv,mvx->mx", w, mesh.vertices[mesh.triangles[tris]])
    if problem.sample_filter is not None:
        keep = problem.sample_filter(pts[:, 0], pts[:, 1])
        pts = pts[keep]
    pts = pts[:n_samples]
    if len(pts) == 0:
        raise ProblemError("no admissible sample points for verification")
    x, y = pts[:, 0], pts[:, 1]

    u = data.exact_u
    uxx = (u(x + h, y) - 2.0 * u(x, y) + u(x - h, y)) / h**2
    uyy = (u(x, y + h) - 2.0 * u(x, y) + u(x, y - h)) / h**2
    if problem.alpha_at is not None:
        alpha = problem.alpha_at(x, y)
        resid = -alpha * (uxx + uyy) - data.f(x, y)
        scale = np.abs(alpha) * (np.abs(uxx) + np.abs(uyy))
        coefmag = np.abs(alpha)
    else:
        A = problem.params.get("tensor", np.eye(2))
        uxy = (
            u(x + h, y + h) - u(x + h, y - h) - u(x - h, y + h) + u(x - h, y - h)
        ) / (4.0 * h**2)
        resid = -(A[0, 0] * uxx + 2.0 * A[0, 1] * uxy + A[1, 1] * uyy) - data.f(x, y)
        scale = np.abs(A).max() * (np.abs(uxx) + np.abs(uyy) + np.abs(uxy))
        coefmag = np.abs(A).max()
    # the h = 1e-5 stencil cannot resolve residuals below its roundoff
    # floor ~ eps |u| / h^2, so grant that as an absolute allowance
    noise = 32.0 * np.finfo(float).eps / h**2 * coefmag * (np.abs(u(x, y)) + 1.0)
    pde_resid = float(
        np.max(np.maximum(np.abs(resid) - noise, 0.0) / np.maximum(scale, 1.0))
    )
    report["pde_residual"] = pde_resid
    if pde_resid > 1e-4:
        raise ProblemError(f"PDE residual check fails: {pde_resid:.3e}")

    gx, gy = data.exact_grad(x, y)
    fdx = (u(x + h, y) - u(x - h, y)) / (2.0 * h)
    fdy = (u(x, y + h) - u(x, y - h)) / (2.0 * h)
    gscale = np.maximum(np.abs(gx) + np.abs(gy), 1.0)
    grad_resid = float(
        np.max((np.abs(gx - fdx) + np.abs(gy - fdy)) / gscale)
    )
    report["grad_fd"] = grad_resid
    if grad_resid > 1e-5:
        raise ProblemError(f"exact gradient check fails: {grad_resid:.3e}")
    return report


def get_problem(name: str, **kwargs) -> BenchmarkProblem:
    """Catalog lookup by string id (``kellogg``, ``affine``, ``smooth``)."""
    if name == "kellogg":
        return kellogg_problem(**kwargs)
    if name == "affine":
        return manufactured_affine(**kwargs)
    if name == "smooth":
        return manufactured_smooth(**kwargs)
    raise ValueError(f"unknown problem id {name!r}; choose from {PROBLEM_IDS}")
