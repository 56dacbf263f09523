"""Stability eigenvalue mu1 of the linearized operator and the clamped-plate nu1.

Both are smallest eigenvalues of generalized symmetric problems
A phi = mu M phi in the radial sector, with A the quadratic form
integral (Delta phi)^2 - 2 lambda integral phi^2/(1-u)^3 (the second term
absent for the plate problem) and M the r^(N-1)-weighted mass.  A is
pentadiagonal and M diagonal, so both are solved on the band: a banded
Cholesky factorization of A + s M and inverse iteration, O(M) per step.
Only radial test functions are used; minimal solutions are radial, so this
matches the certificates, but whether the unrestricted infimum coincides is
recorded as a limitation, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .grid import InvalidArgument, RadialField, RadialGrid, build_grid, sphere_area
from .operators import bilaplacian_form


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenpair of a generalized symmetric radial problem.

    The eigenfunction is normalized to unit L^2(B) norm (discrete, including
    the sphere-area factor).  `residual` is the backward error of the pair in
    the mass-scaled standard form: with y = M^(1/2) phi and
    A_hat = M^(-1/2) A M^(-1/2), it is ||A_hat y - value y|| divided by
    ||A_hat||_inf ||y||.  The raw residual of a fourth-order operator scales
    with eps * ||A|| ~ eps / h^4 and is not a meaningful accuracy measure.
    `method` names the solver and the form it ran on; `iterations` is the
    number of inverse-iteration steps it took to converge.
    """

    value: float
    eigenfunction: RadialField
    residual: float
    method: str
    iterations: int


#: inverse iteration stops once the Rayleigh quotient of the shifted pencil
#: changes by at most this much, relative, between two steps
_RQ_TOL = 1e-12
#: cap on inverse-iteration steps; reaching it raises
_MAX_ITER = 500


def _smallest_generalized(A: sp.csr_matrix, m: np.ndarray, lower_bound: float | None = None):
    """Smallest eigenpair of A x = mu diag(m) x for pentadiagonal symmetric A, m > 0.

    Returns (value, vector, iterations).  Inverse iteration on the inverted
    pencil, x <- (A + s diag(m))^(-1) diag(m) x, converges to its largest
    theta = 1 / (mu1 + s), with A + s diag(m) factored once by banded
    Cholesky (LAPACK upper band storage of A's diagonals 0..2).  Inverting
    through the stiffness side is what makes this robust: the r^(N-1) mass
    spans many orders of magnitude and the fourth-order stiffness is
    ill-conditioned, a combination on which sparse shift-invert Lanczos
    misconverges for larger N.  The start vector is positive; the ground
    state has one sign where the mass lies, so the start has a component
    along it.

    The shift s must make A + s diag(m) positive definite; s = 0 is tried
    first (maximal accuracy on the stable branch), then a shift derived from
    `lower_bound` (for the linearized form, minus the potential maximum),
    then geometric escalation while the Cholesky factorization fails.

    The iteration stops when the pencil's Rayleigh quotient
    y^T (A + s diag(m)) y / y^T diag(m) y, which equals
    y^T diag(m) x / y^T diag(m) y for the new iterate y, changes by at most
    _RQ_TOL relative to itself.  Reaching _MAX_ITER raises RuntimeError.

    The value returned with the eigenvector is its Rayleigh quotient
    x^T A x / sum(m x^2) in A's own precision (extended for the forms of
    this package), not 1/theta - s.  The float64 pencil carries rounding of
    order eps * ||A|| ~ eps / h^4, which would overtake the discretization
    error on fine grids; the quotient's error is quadratic in the
    eigenvector's.
    """
    n = len(m)
    band = np.zeros((3, n))
    for k in range(3):
        band[2 - k, k:] = A.diagonal(k)
    shifts = [0.0]
    if lower_bound is not None and lower_bound < 0:
        shifts.append(-float(lower_bound) + 1.0)
    while len(shifts) < 10:
        shifts.append(2.0 * shifts[-1] + 1.0)
    for s in shifts:
        shifted = band.copy()
        shifted[2] += s * m
        try:
            chol = sla.cholesky_banded(shifted, lower=False)
        except sla.LinAlgError:
            continue
        x = np.ones(n)
        rho_prev = np.inf
        for it in range(1, _MAX_ITER + 1):
            mx = m * x
            y = sla.cho_solve_banded((chol, False), mx)
            my = m * y
            rho = (y @ mx) / (y @ my)
            x = y / np.sqrt(y @ my)
            if abs(rho - rho_prev) <= _RQ_TOL * abs(rho):
                v = x.astype(np.longdouble)
                return float((v @ (A @ v)) / np.sum(m * v ** 2)), x, it
            rho_prev = rho
        raise RuntimeError(f"inverse iteration did not converge in {_MAX_ITER} steps at shift {s}")
    raise RuntimeError("could not find a positive-definite shift for the pencil")


def _finish(grid: RadialGrid, A, m, value, vec, iterations, method) -> EigenResult:
    A64 = A.astype(np.float64)
    s = 1.0 / np.sqrt(m)
    y = vec / s
    res = s * (A64 @ vec) - value * y
    norm_ahat = float(np.max(s * np.abs(A64) @ s))
    residual = float(np.linalg.norm(res) / (norm_ahat * np.linalg.norm(y)))
    # normalize to integral_B phi^2 = 1, including the sphere area
    mass = sphere_area(grid.N) * float(np.sum(m * vec ** 2))
    vec = vec / np.sqrt(mass)
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    phi = RadialField(grid, np.concatenate([vec, [0.0]]))
    return EigenResult(value=value, eigenfunction=phi, residual=residual, method=method,
                       iterations=iterations)


def nu1_discrete(grid: RadialGrid) -> EigenResult:
    """Smallest clamped-plate eigenvalue of Delta^2 on the radial grid.

    The value is the extended-precision Rayleigh quotient of the computed
    eigenvector (see :func:`_smallest_generalized`), and it converges at
    second order in 1/M at every N.
    """
    A, m = bilaplacian_form(grid)
    value, vec, iterations = _smallest_generalized(A, m)
    return _finish(grid, A, m, value, vec, iterations,
                   "banded Cholesky inverse iteration, plate form")


def nu1(N: int, grid: RadialGrid | None = None) -> float:
    """Clamped-plate eigenvalue nu1(N), Richardson-extrapolated over two grids.

    The discretization is second order at every N, N = 1 included (its
    origin closure is described in :mod:`memsplate.operators`), so the
    refined value e2 is corrected by (e2 - e1)/3.  The default grid is
    uniform: eigenfunctions are smooth, and grading only inflates the
    condition number of the form matrix.
    """
    if grid is None:
        grid = build_grid(N, 512, 1.0)
    e1 = nu1_discrete(grid).value
    e2 = nu1_discrete(grid.refine()).value
    return e2 + (e2 - e1) / 3.0


def mu1(profile: RadialField, lam: float) -> EigenResult:
    """Smallest eigenvalue of the second variation at `profile` and voltage `lam`.

    The form is integral (Delta phi)^2 - 2 lam integral phi^2 / (1-u)^3 over
    radial phi with homogeneous clamped closure and unit L^2 norm.
    """
    u = profile.values
    if np.max(u) >= 1.0:
        raise InvalidArgument("profile touches the ceiling: the form is undefined")
    grid = profile.grid
    A, m = bilaplacian_form(grid)
    weight = 2.0 * lam / (1.0 - u[:-1]) ** 3
    A_mu = (A - sp.diags(weight * m)).tocsr()
    value, vec, iterations = _smallest_generalized(A_mu, m, lower_bound=-float(np.max(weight, initial=0.0)))
    return _finish(grid, A_mu, m, value, vec, iterations,
                   "banded Cholesky inverse iteration, linearized form")


def stability_along_branch(points) -> list[float]:
    """mu1 at each branch point; every converged minimal-branch point must be stable."""
    values = []
    for pt in points:
        res = mu1(pt.profile, pt.lam)
        if res.value <= 0:
            raise RuntimeError(
                f"minimal-branch point at lambda={pt.lam} is not stable (mu1={res.value})"
            )
        values.append(res.value)
    return values


def beam_eigenvalue_1d(tol: float = 1e-12) -> float:
    """Oracle for nu1 at N=1: first even clamped-beam mode on (-1, 1).

    k solves tan(k) + tanh(k) = 0 in (pi/2, pi); nu1 = k^4.  Independent of
    the grid discretization (plain bisection on the characteristic equation).
    """
    import math

    f = lambda k: math.tan(k) + math.tanh(k)
    lo, hi = math.pi / 2 + 1e-9, math.pi - 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    k = 0.5 * (lo + hi)
    return k ** 4


def disk_eigenvalue_2d(tol: float = 1e-12) -> float:
    """Oracle for nu1 at N=2: clamped unit disk, radially symmetric mode.

    k solves J0(k) I1(k) + I0(k) J1(k) = 0; nu1 = k^4.
    """
    from scipy.special import i0, i1, j0, j1

    f = lambda k: j0(k) * i1(k) + i0(k) * j1(k)
    lo, hi = 2.0, 4.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    k = 0.5 * (lo + hi)
    return k ** 4
