"""Minimal-branch continuation for Delta^2 u = lambda/(1-u)^2 with clamped data.

Two solvers share the discrete clamped bilaplacian: the classical monotone
fixed-point scheme (iterates rise from the biharmonic lift and stay below
the minimal solution) and a damped Newton iteration for speed.  Both solve
their linear systems with a float64 banded LU of the mixed form
v = Delta u, Delta v = f (see `_ClampedSolver`); Newton iterates on the
interleaved (v, u) unknown itself and stops at the float64 rounding floor
of its row-scaled mixed residual.  A sweep raises lambda with Newton alone,
started from the secant extrapolation of the last two converged profiles,
brackets the pull-in voltage by bisecting the solvable/unsolvable boundary,
and classifies the last converged profile as regular or singular from its
touchdown asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .grid import BoundaryData, InvalidArgument, RadialField, RadialGrid, build_grid, phi_lift
# bilaplacian_clamped is unused here; perfbench/test_harness.py's BINDINGS lists it
from .operators import bilaplacian_clamped, lambda_bar, mixed_bilaplacian  # noqa: F401


class NonConvergence(Exception):
    """Solver failure; `touched` marks an iterate crossing the touchdown threshold."""

    def __init__(self, message: str, touched: bool):
        super().__init__(message)
        self.touched = touched


@dataclass(frozen=True)
class BranchPoint:
    """One converged point of the minimal branch."""

    lam: float
    profile: RadialField
    sup_norm: float
    mu1: float | None
    iterations: int


@dataclass(frozen=True)
class ContinuationConfig:
    """Parameters of a minimal-branch sweep."""

    N: int
    bc: BoundaryData = BoundaryData(0.0, 0.0)
    M: int = 2048
    gamma: float | None = None  # default 2.0; 1.0 for N = 1 (see __post_init__)
    tau: float = 1.0 - 1e-3
    compute_mu1: bool = False

    def __post_init__(self):
        if self.gamma is None:
            # grading resolves the r^(4/3) touchdown layer; at N = 1 the
            # profile stays regular and graded grids solve as accurately, but
            # the default stays uniform so that the N = 1 brackets keep their
            # values
            object.__setattr__(self, "gamma", 2.0 if self.N >= 2 else 1.0)
        if not (0 < self.tau < 1):
            raise InvalidArgument("touchdown threshold must lie in (0, 1)")

    def step(self) -> float:
        """lambda step: lambda_bar/20, or 0.25 when lambda_bar <= 0."""
        lb = float(lambda_bar(self.N))
        return lb / 20.0 if lb > 0 else 0.25

    def bracket_tol(self) -> float:
        """Width at which bisection of the pull-in bracket stops."""
        return self.step() / 256.0


@dataclass(frozen=True)
class BranchResult:
    """Output of a sweep: branch points, pull-in bracket, and classification."""

    points: tuple
    lam_star_estimate: float
    lam_star_bracket: tuple
    extremal_profile: RadialField
    classification: str  # "Regular" | "Singular"
    C0_fit: float
    exponent_fit: float
    solve_accuracy: float  # the solver's construction-time probe error
    factorizations: int  # banded LU factorizations of the fine-grid solver
    failed_solves: int  # fine Newton and coarse monotone solves that raised NonConvergence
    warnings: tuple = ()


class _ClampedSolver:
    """Factorized clamped bilaplacian on one grid with one boundary data.

    Every solve is one float64 LAPACK banded LU solve of the mixed system
    v = Delta u, Delta v = f (`mixed_bilaplacian`), whose rows scale like
    1/h^2 where those of the composed operator scale like 1/h^4.  The
    operator is factored once; a Newton Jacobian differs from it only on the
    u diagonal and is factored once per step, and Newton measures its
    residual on the same mixed rows.  A known-solution probe at construction
    measures the achievable solve accuracy (`solve_accuracy`) and raises
    instead of returning garbage when it is too poor.  `factorizations`
    counts the banded LU factorizations made so far.
    """

    _PROBE_LIMIT = 1e-2

    def __init__(self, grid: RadialGrid, bc: BoundaryData):
        if not bc.is_admissible():
            raise InvalidArgument("boundary data must be admissible (beta <= 0, alpha - beta/2 < 1)")
        self.grid = grid
        self.bc = bc
        self.factorizations = 0
        A, o1 = mixed_bilaplacian(grid, bc)
        self.A, self.absA = A, abs(A)
        self.ku, self.kl = int(A.offsets[0]), -int(A.offsets[-1])
        # dgbtrf wants kl spare rows on top for the pivoting fill-in
        self.ab = np.vstack([np.zeros((self.kl, A.shape[0])), A.data])
        self.b0 = np.zeros(A.shape[0])
        self.b0[0::2] = o1
        self.lu = self._factor(self.ab)
        self.phi = phi_lift(bc, grid.r[:-1])
        self.solve_accuracy = self._probe(A)
        if not self.solve_accuracy <= self._PROBE_LIMIT:
            raise InvalidArgument(
                "clamped bilaplacian too ill-conditioned for this grid "
                f"(probe error {self.solve_accuracy:.1e}); lower gamma or M")

    def _factor(self, ab: np.ndarray):
        self.factorizations += 1
        lu, piv, info = dgbtrf(ab, self.kl, self.ku)
        if info > 0:
            raise NonConvergence(f"singular banded matrix (zero pivot at {info})", touched=False)
        return lu, piv

    def _solve(self, lu, b: np.ndarray) -> np.ndarray:
        """Interleaved mixed solution [v0, u0, v1, ...] for the right-hand side b."""
        return dgbtrs(lu[0], self.kl, self.ku, b, lu[1])[0]

    def _probe(self, A) -> float:
        """Max solve error of the homogeneous mixed system A for u = (1 - r^2)^2."""
        v = (1.0 - self.grid.r[:-1] ** 2) ** 2
        x = np.zeros(A.shape[0])
        x[1::2] = v
        x[0::2] = -(A @ x)[0::2]  # Delta u = L1 @ u
        b = np.zeros_like(x)
        b[1::2] = (A @ x)[1::2]  # L2 @ (L1 @ u)
        return float(np.max(np.abs(self._solve(self.lu, b)[1::2] - v)))

    def solve_rhs(self, f: np.ndarray) -> np.ndarray:
        """Solve Delta^2 u = f (interior nodes) including the boundary offset."""
        b = self.b0.copy()
        b[1::2] = f
        return self._solve(self.lu, b)[1::2]

    def jacobian_solve(self, u: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
        """Solve J dx = rhs, J the mixed band minus 2 lam/(1-u)^3 on the u diagonal.

        rhs and dx interleave like the mixed unknown; with rhs zero on the v
        rows, the u entries of dx solve (Delta^2 - 2 lam/(1-u)^3) du = rhs.
        """
        ab = self.ab.copy()
        ab[self.kl + self.ku, 1::2] -= 2.0 * lam / (1.0 - u) ** 3
        return self._solve(self._factor(ab), rhs)

    def mixed_state(self, u: np.ndarray) -> np.ndarray:
        """Interleaved [v0, u0, v1, ...] with v = Delta u from the even rows."""
        x = np.zeros_like(self.b0)
        x[1::2] = u
        x[0::2] = self.b0[0::2] - (self.A @ x)[0::2]
        return x

    def residual(self, x: np.ndarray, lam: float):
        """(F, max |F| / (|A||x| + |b| + 1)) for F(x) = A x - b(u).

        b(u) holds o1 on the even rows and lam/(1-u)^2 on the odd ones; the
        row scale is what float64 rounds when it forms each row, so the
        scaled residual of an exact solution is a few eps.
        """
        b = self.b0.copy()
        b[1::2] = lam / (1.0 - x[1::2]) ** 2
        F = self.A @ x - b
        return F, float(np.max(np.abs(F) / (self.absA @ np.abs(x) + np.abs(b) + 1.0)))

    def field(self, u_int: np.ndarray) -> RadialField:
        return RadialField(self.grid, np.concatenate([u_int, [self.bc.alpha]]), self.bc)


def monotone_solve(lam: float, bc: BoundaryData, grid: RadialGrid,
                   tol: float = 1e-10, max_iter: int = 600,
                   tau: float = 1.0 - 1e-3, _solver: _ClampedSolver | None = None):
    """Monotone fixed-point iteration from the biharmonic lift.

    u_0 = Phi, then Delta^2 u_(n+1) = lambda/(1 - u_n)^2 with the clamped
    data.  Iterates are verified non-decreasing; returns (profile, iterations).
    Raises NonConvergence with touched=True when an iterate crosses `tau`
    (lambda above pull-in) and touched=False when max_iter hits first
    (lambda near pull-in: caller should bisect).
    """
    if lam < 0:
        raise InvalidArgument("lambda must be nonnegative")
    s = _solver if _solver is not None else _ClampedSolver(grid, bc)
    u = s.phi.copy()
    if np.max(u) >= tau:
        raise NonConvergence("biharmonic lift already beyond the threshold", touched=True)
    # With one fixed factorization the increments fall to ~1e-15 on fine
    # graded grids, well below tol; the stagnation exit (increments that stop
    # decreasing while small) only guards grids whose solve noise is larger.
    band = lambda v: 1e-6 * (1.0 + float(np.max(np.abs(v))))
    best, stall = math.inf, 0
    for it in range(1, max_iter + 1):
        rhs = lam / (1.0 - u) ** 2
        u_new = s.solve_rhs(rhs)
        if np.max(u_new) >= tau:
            raise NonConvergence("iterate crossed the touchdown threshold", touched=True)
        d = u_new - u
        u = u_new
        dmax = float(np.max(np.abs(d)))
        if dmax < tol:
            return s.field(u), it
        if dmax < 0.99 * best:
            best, stall = dmax, 0
        else:
            stall += 1
        if stall >= 8:
            if dmax < band(u):
                return s.field(u), it  # converged to the solver noise floor
            raise NonConvergence("iteration stalled above the noise band", touched=False)
        if np.min(d) < -band(u):
            raise NonConvergence("monotonicity of the scheme violated", touched=False)
    raise NonConvergence(f"no contraction after {max_iter} iterations", touched=False)


#: Newton stops once the row-scaled mixed residual reaches this floor
NEWTON_FLOOR = 8.0 * np.finfo(np.float64).eps
#: step lengths 1, 1/2, 1/4, 1/8 are tried before Newton gives up
_DAMPING_TRIALS = 4


def newton_solve(lam: float, guess: RadialField, bc: BoundaryData, grid: RadialGrid,
                 max_iter: int = 50, tau: float = 1.0 - 1e-3,
                 _solver: _ClampedSolver | None = None):
    """Damped Newton iteration on the mixed system A x = b(u), x = [v0, u0, ...].

    F(x) = A x - b(u) with A the mixed clamped bilaplacian and b(u) holding
    o1 on the v rows and lambda/(1-u)^2 on the u rows; the Jacobian is A
    minus 2 lambda/(1-u)^3 on the u diagonal.  Iteration stops when
    max |F| / (|A||x| + |b| + 1) reaches `NEWTON_FLOOR`.  Each step takes
    the first of `_DAMPING_TRIALS` halved step lengths that stays below the
    touchdown threshold and lowers the scaled residual or reaches the floor;
    when none does (above the fold) it raises NonConvergence at once.
    Returns (profile, Newton steps).
    """
    if np.max(guess.values) >= 1.0:
        raise InvalidArgument("initial guess touches the ceiling")
    s = _solver if _solver is not None else _ClampedSolver(grid, bc)
    u = np.minimum(np.asarray(guess.values[:-1], dtype=np.float64), tau - 1e-6)
    x = s.mixed_state(u)
    res, res_norm = s.residual(x, lam)
    it = 0
    while res_norm > NEWTON_FLOOR:
        if it == max_iter:
            raise NonConvergence(f"Newton did not converge in {max_iter} iterations",
                                 touched=False)
        it += 1
        dx = s.jacobian_solve(x[1::2], -res, lam)
        step = 1.0
        for _ in range(_DAMPING_TRIALS):
            x_try = x + step * dx
            if np.max(x_try[1::2]) < tau:
                res_try, norm_try = s.residual(x_try, lam)
                if norm_try < res_norm or norm_try <= NEWTON_FLOOR:
                    break
            step *= 0.5
        else:
            raise NonConvergence("Newton damping found no step that lowers the residual",
                                 touched=bool(np.max(x[1::2] + dx[1::2]) >= tau))
        x, res, res_norm = x_try, res_try, norm_try
    return s.field(x[1::2]), it


def _resampled_mu1(profile: RadialField, lam: float) -> float:
    """mu1 on a uniform moderate grid (interpolated profile).

    Eigen solves on fine graded grids are dominated by roundoff; the uniform
    resample keeps the value meaningful.
    """
    from .stability import mu1

    g = build_grid(profile.grid.N, 384, 1.0)
    vals = np.interp(g.r, profile.grid.r, profile.values, left=profile.values[0])
    vals[-1] = profile.boundary.alpha
    return mu1(RadialField(g, np.minimum(vals, 1.0 - 1e-12), profile.boundary), lam).value


def _touchdown_fit(profile: RadialField):
    """Least-squares fit of log(1-u) ~ s log r + log C on the analysis window."""
    grid = profile.grid
    rlo = 2.0 * (1.0 / grid.M) ** (1.0 / grid.gamma)
    mask = (grid.r >= rlo) & (grid.r <= 0.3)
    w = 1.0 - profile.values[mask]
    r = grid.r[mask]
    good = w > 0
    slope, intercept = np.polyfit(np.log(r[good]), np.log(w[good]), 1)
    return float(math.exp(intercept)), float(slope)


def sweep_branch(config: ContinuationConfig) -> BranchResult:
    """Trace the minimal branch and bracket the pull-in voltage.

    lambda rises from 0 in steps of `config.step()`; the first failure
    triggers bisection of the solvable/unsolvable boundary down to
    `config.bracket_tol()`.  Every lambda is one Newton solve: the lift at
    lambda = 0, then the last profile for the first step, then the secant
    extrapolation of the last two converged profiles.  The last converged
    profile is classified Singular when its touchdown fit has exponent
    within 0.15 of 4/3 and its sup norm Richardson-extrapolates to 1 within
    2e-2 under grid refinement (a monotone solve on the half grid), else
    Regular.  With zero data, a bracket below lambda_bar (a failure short of
    the fold) is reported in `warnings`.
    """
    grid = build_grid(config.N, config.M, config.gamma)
    solver = _ClampedSolver(grid, config.bc)
    dlam, width = config.step(), config.bracket_tol()
    points, failed = [], 0

    def accept(lam, guess):
        profile, it = newton_solve(lam, guess, config.bc, grid, tau=config.tau,
                                   _solver=solver)
        points.append(BranchPoint(lam, profile, profile.sup_norm,
                                  _resampled_mu1(profile, lam) if config.compute_mu1 else None,
                                  it))
        return profile

    good = accept(0.0, solver.field(solver.phi))
    lam_lo, lam_hi, prev = 0.0, None, None
    while lam_hi is None or lam_hi - lam_lo > width:
        lam = lam_lo + dlam if lam_hi is None else 0.5 * (lam_lo + lam_hi)
        guess = good.values
        if prev is not None:
            lam_prev, u_prev = prev
            guess = guess + (lam - lam_lo) * (guess - u_prev) / (lam_lo - lam_prev)
        try:
            # near touchdown the secant can reach 1, which Newton rejects
            profile = accept(lam, RadialField(grid, np.minimum(guess, config.tau - 1e-6),
                                              config.bc))
        except NonConvergence:
            failed += 1
            lam_hi = lam
            continue
        prev, lam_lo, good = (lam_lo, good.values), lam, profile

    C0_fit, exponent_fit = _touchdown_fit(good)

    warnings = []
    # lambda_bar bounds lambda* from below for zero data (see pullin_bounds):
    # a bracket ending under it was cut short by a failed solve below the fold
    if config.bc == BoundaryData(0.0, 0.0) and lam_hi < lambda_bar(config.N):
        warnings.append("bracket lies below the analytic lower bound lambda_bar")

    # sup-norm Richardson over a coarser companion grid at the same lambda
    sups = [good.sup_norm]
    p2 = None
    g2 = build_grid(config.N, config.M // 2, config.gamma)
    coarse = _ClampedSolver(g2, config.bc)
    # the coarse grid's own fold may sit marginally below lam_lo; back off a
    # few bracket widths before giving up
    for back in (0.0, 2.0, 8.0, 64.0, 256.0):
        try:
            p2, _ = monotone_solve(lam_lo - back * width, config.bc, g2, tau=config.tau,
                                   _solver=coarse)
            sups.append(p2.sup_norm)
            break
        except NonConvergence:
            failed += 1
    else:
        warnings.append("coarse grid does not converge at the bracketed lambda")
        sups.append(sups[0])
    sup_extrap = sups[0] + (sups[0] - sups[1]) / 3.0

    exponent_ok = abs(exponent_fit - 4.0 / 3.0) <= 0.15
    singular = exponent_ok and abs(sup_extrap - 1.0) <= 2e-2
    if p2 is not None:
        _, e2 = _touchdown_fit(p2)
        if (abs(e2 - 4.0 / 3.0) <= 0.15) != exponent_ok:
            warnings.append("grid-resolution warning: classifications disagree between grids")

    return BranchResult(
        points=tuple(points),
        lam_star_estimate=0.5 * (lam_lo + lam_hi),
        lam_star_bracket=(lam_lo, lam_hi),
        extremal_profile=good,
        classification="Singular" if singular else "Regular",
        C0_fit=C0_fit,
        exponent_fit=exponent_fit,
        solve_accuracy=solver.solve_accuracy,
        factorizations=solver.factorizations,
        failed_solves=failed,
        warnings=tuple(warnings),
    )


def pullin_bounds(N: int, nu1_value: float):
    """Exact lower bound max{32(10N - N^2 - 12)/27, lambda_bar} and upper 4 nu1/27."""
    if nu1_value <= 0:
        raise InvalidArgument("nu1 must be positive")
    quad = Fraction(32 * (10 * N - N * N - 12), 27)
    lower = max(quad, lambda_bar(N))
    upper = 4.0 * nu1_value / 27.0
    if float(lower) >= upper:
        raise InvalidArgument(
            f"inconsistent bounds for N={N}: lower {float(lower)} >= upper {upper}; "
            "the nu1 input looks wrong")
    return float(lower), upper


@dataclass(frozen=True)
class SandwichReport:
    """Violations of 1 - C0 r^(4/3) <= u <= 1 - r^(4/3) at the grid nodes."""

    C0: float
    lower_violation: float
    upper_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.lower_violation <= self.tol and self.upper_violation <= self.tol


def sandwich_check(profile: RadialField, lam: float, lam_star_est: float,
                   tol: float = 5e-2) -> SandwichReport:
    """Check the singular-profile sandwich with C0 = (lam*/lambda_bar)^(1/3)."""
    N = profile.grid.N
    if N < 9:
        raise InvalidArgument("the sandwich bounds hold for N >= 9 only")
    r = profile.grid.r
    u = profile.values
    C0 = (lam_star_est / float(lambda_bar(N))) ** (1.0 / 3.0)
    lower = np.max((1.0 - C0 * r ** (4.0 / 3.0)) - u)
    upper = np.max(u - (1.0 - r ** (4.0 / 3.0)))
    return SandwichReport(C0=C0, lower_violation=float(max(0.0, lower)),
                          upper_violation=float(max(0.0, upper)), tol=tol)
