"""Minimal-branch continuation for Delta^2 u = lambda/(1-u)^2 with clamped data.

Two solvers share the discrete clamped bilaplacian: the classical monotone
fixed-point scheme (iterates rise from the biharmonic lift and stay below
the minimal solution) and a damped Newton iteration for speed.  A sweep
raises lambda with warm starts, brackets the pull-in voltage by bisecting
the solvable/unsolvable boundary, and classifies the last converged profile
as regular or singular from its touchdown asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import BoundaryData, InvalidArgument, RadialField, RadialGrid, build_grid, phi_lift
from .operators import bilaplacian_clamped, lambda_bar


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
    solver: str
    iterations: int


@dataclass(frozen=True)
class ContinuationConfig:
    """Parameters of a minimal-branch sweep."""

    N: int
    bc: BoundaryData = BoundaryData(0.0, 0.0)
    M: int = 2048
    gamma: float | None = None  # default 2.0; 1.0 for N = 1 (see __post_init__)
    dlam: float | None = None  # default lambda_bar/20, or 0.25 when that is <= 0
    tol: float = 1e-10
    max_iter: int = 600
    tau: float = 1.0 - 1e-3
    eps_lam: float | None = None  # bracket width; default dlam / 256
    compute_mu1: bool = False

    def __post_init__(self):
        if self.gamma is None:
            # grading resolves the r^(4/3) touchdown layer; at N = 1 there is
            # no volume weight to tame the center rows and a graded fine grid
            # exceeds even extended-precision conditioning, so stay uniform
            object.__setattr__(self, "gamma", 2.0 if self.N >= 2 else 1.0)
        if not (0 < self.tau < 1):
            raise InvalidArgument("touchdown threshold must lie in (0, 1)")
        if self.tol <= 0 or (self.eps_lam is not None and self.eps_lam <= 0):
            raise InvalidArgument("tolerances must be positive")

    def step(self) -> float:
        if self.dlam is not None:
            return self.dlam
        lb = float(lambda_bar(self.N))
        return lb / 20.0 if lb > 0 else 0.25

    def bracket_tol(self) -> float:
        return self.eps_lam if self.eps_lam is not None else self.step() / 256.0


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
    warnings: tuple = ()


class _BandedLU:
    """Extended-precision LU with partial pivoting for a banded matrix.

    The clamped bilaplacian rows span offsets [-2, +3]; hardware longdouble
    keeps roughly four more decimal digits than float64, which is what rescues
    strongly graded grids whose condition number exceeds 1/eps(float64).
    """

    def __init__(self, K, kl: int = 2, ku: int = 3):
        K = K.tocoo()
        n = K.shape[0]
        ut = kl + ku  # upper bandwidth after pivoting fill-in
        A = np.zeros((ut + kl + 1, n), dtype=np.longdouble)
        A[ut + K.row - K.col, K.col] = K.data
        piv = np.zeros(n, dtype=np.int64)
        for k in range(n):
            m = min(kl, n - 1 - k)
            p = int(np.argmax(np.abs(A[ut:ut + m + 1, k])))
            piv[k] = k + p
            if p:
                js = np.arange(k, min(k + ut + 1, n))
                a, b = ut + k - js, ut + k + p - js
                A[a, js], A[b, js] = A[b, js].copy(), A[a, js].copy()
            pv = A[ut, k]
            if pv == 0:
                raise NonConvergence("singular clamped operator", touched=False)
            js = np.arange(k + 1, min(k + ut + 1, n))
            for i in range(1, m + 1):
                fac = A[ut + i, k] / pv
                A[ut + i, k] = fac
                if len(js):
                    A[ut + k + i - js, js] -= fac * A[ut + k - js, js]
        self.A, self.piv, self.kl, self.ut, self.n = A, piv, kl, ut, n

    def solve(self, b) -> np.ndarray:
        A, piv, kl, ut, n = self.A, self.piv, self.kl, self.ut, self.n
        x = np.array(b, dtype=np.longdouble)
        for k in range(n):
            p = piv[k]
            if p != k:
                x[k], x[p] = x[p], x[k]
            m = min(kl, n - 1 - k)
            if m:
                x[k + 1:k + m + 1] -= A[ut + 1:ut + m + 1, k] * x[k]
        for k in range(n - 1, -1, -1):
            jend = min(k + ut, n - 1)
            if jend > k:
                js = np.arange(k + 1, jend + 1)
                x[k] -= np.dot(A[ut + k - js, js], x[js])
            x[k] /= A[ut, k]
        return x


class _ClampedSolver:
    """Shared factorized clamped bilaplacian on one grid with one boundary data.

    A known-solution probe at construction measures the achievable linear
    accuracy; when float64 factorization plus refinement cannot deliver, the
    solver switches to an extended-precision banded factorization, and when
    even that fails (condition number beyond longdouble) it raises instead of
    returning garbage.
    """

    _PROBE_LIMIT = 1e-2

    def __init__(self, grid: RadialGrid, bc: BoundaryData):
        if not bc.is_admissible():
            raise InvalidArgument("boundary data must be admissible (beta <= 0, alpha - beta/2 < 1)")
        self.grid = grid
        self.bc = bc
        self.op = bilaplacian_clamped(grid, bc)
        self.K64 = self.op.matrix.astype(np.float64).tocsc()
        self.offset64 = np.asarray(self.op.offset, dtype=np.float64)
        self.lu = spla.splu(self.K64)
        self.phi = phi_lift(bc, grid.r[:-1])
        self.mode = "float64"
        self.solve_accuracy = self._probe()
        if self.solve_accuracy > self._PROBE_LIMIT:
            self.blu = _BandedLU(self.op.matrix)
            self.mode = "extended"
            self.solve_accuracy = self._probe()
            if self.solve_accuracy > self._PROBE_LIMIT:
                raise InvalidArgument(
                    "clamped bilaplacian too ill-conditioned for this grid "
                    f"(probe error {self.solve_accuracy:.1e}); lower gamma or M")

    def _probe(self) -> float:
        """Relative solve error on the known clamped profile (1 - r^2)^2."""
        v = (1.0 - self.grid.r[:-1] ** 2) ** 2
        b = np.asarray(self.op.matrix @ v.astype(np.longdouble), dtype=np.float64)
        u = self._linsolve(b)
        return float(np.max(np.abs(u - v)))

    def _linsolve(self, f: np.ndarray) -> np.ndarray:
        """Solve matrix @ u = f with the active factorization."""
        if self.mode == "extended":
            return np.asarray(self.blu.solve(f.astype(np.longdouble)), dtype=np.float64)
        u = self.lu.solve(f)
        fld = f.astype(np.longdouble)
        for _ in range(2):  # refinement stagnates quickly; two steps suffice
            resid = np.asarray(self.op.matrix @ u.astype(np.longdouble) - fld,
                               dtype=np.float64)
            du = self.lu.solve(resid)
            u = u - du
            if np.max(np.abs(du)) < 1e-14 * (1.0 + np.max(np.abs(u))):
                break
        return u

    def solve_rhs(self, f: np.ndarray) -> np.ndarray:
        """Solve Delta^2 u = f (interior nodes) including the boundary offset."""
        return self._linsolve(f - self.offset64)

    def jacobian_solve(self, u: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
        """Solve (Delta^2 - 2 lam/(1-u)^3) du = rhs at the current iterate."""
        w = 2.0 * lam / (1.0 - u) ** 3
        if self.mode == "extended":
            J = self.op.matrix - sp.diags(w.astype(np.longdouble))
            return np.asarray(_BandedLU(J).solve(rhs.astype(np.longdouble)),
                              dtype=np.float64)
        J = (self.K64 - sp.diags(w)).tocsc()
        try:
            return spla.splu(J).solve(rhs)
        except RuntimeError as exc:
            raise NonConvergence(f"singular Jacobian: {exc}", touched=False)

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
    # The linear-solver noise floor grows with the grid's condition number
    # (reaching ~5e-9 on fine strongly graded grids), so convergence below it
    # is detected by stagnation: increments that stop decreasing while small.
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


def newton_solve(lam: float, guess: RadialField, bc: BoundaryData, grid: RadialGrid,
                 tol: float = 1e-10, max_iter: int = 50,
                 tau: float = 1.0 - 1e-3, _solver: _ClampedSolver | None = None):
    """Damped Newton iteration on Delta^2 u - lambda/(1-u)^2 = 0.

    The Jacobian is the clamped bilaplacian minus 2 lambda/(1-u)^3; steps are
    halved until the new iterate stays below the touchdown threshold and does
    not increase the residual.  Returns (profile, iterations).
    """
    if np.max(guess.values) >= 1.0:
        raise InvalidArgument("initial guess touches the ceiling")
    s = _solver if _solver is not None else _ClampedSolver(grid, bc)
    u = np.asarray(guess.values[:-1], dtype=np.float64).copy()
    u = np.minimum(u, tau - 1e-6)
    absK = abs(s.K64)

    def residual(v):
        # extended precision: in float64 the cancellation noise at the
        # 1/h^4 row scale feeds ~1e-8 wander back into the Newton steps
        vld = v.astype(np.longdouble)
        return np.asarray((s.op.matrix @ vld + s.op.offset) - lam / (1.0 - vld) ** 2,
                          dtype=np.float64)

    def res_scale(v):
        # rows of the composed operator scale like 1/h^4: measure the
        # residual relative to the magnitudes actually summed per row
        return absK @ np.abs(v) + np.abs(s.offset64) + lam / (1.0 - v) ** 2 + 1.0

    res = residual(u)
    res_norm = np.max(np.abs(res) / res_scale(u))
    band = lambda v: 1e-6 * (1.0 + float(np.max(np.abs(v))))
    best, stall = math.inf, 0
    for it in range(1, max_iter + 1):
        du = s.jacobian_solve(u, -res, lam)
        dmax = float(np.max(np.abs(du)))
        if np.max(u + du) < tau:
            if dmax < tol:
                return s.field(u + du), it
            if dmax < 0.99 * best:
                best, stall = dmax, 0
            else:
                stall += 1
            if stall >= 6 and dmax < band(u):
                return s.field(u + du), it  # converged to the solver noise floor
        step = 1.0
        for _ in range(60):
            u_try = u + step * du
            if np.max(u_try) < tau:
                res_try = residual(u_try)
                res_try_norm = np.max(np.abs(res_try) / res_scale(u_try))
                if res_try_norm < res_norm or step < 1e-6:
                    break
            step *= 0.5
        else:
            raise NonConvergence("Newton damping failed to find an admissible step",
                                 touched=bool(np.max(u + du) >= tau))
        u, res, res_norm = u_try, res_try, res_try_norm
    raise NonConvergence(f"Newton did not converge in {max_iter} iterations", touched=False)


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


def _solve_at(lam, bc, grid, cfg, warm=None, solver=None):
    s = solver if solver is not None else _ClampedSolver(grid, bc)
    if warm is not None:
        try:
            return newton_solve(lam, warm, bc, grid, tol=cfg.tol, tau=cfg.tau, _solver=s) + ("newton",)
        except NonConvergence:
            pass
    prof, it = monotone_solve(lam, bc, grid, tol=cfg.tol, max_iter=cfg.max_iter,
                              tau=cfg.tau, _solver=s)
    return prof, it, "monotone"


def sweep_branch(config: ContinuationConfig) -> BranchResult:
    """Trace the minimal branch and bracket the pull-in voltage.

    lambda rises from 0 in steps of `config.step()` with warm-started Newton
    solves (monotone fallback); the first failure triggers bisection of the
    solvable/unsolvable boundary down to `config.bracket_tol()`.  The last
    converged profile is classified Singular when its touchdown fit has
    exponent within 0.15 of 4/3 and its sup norm Richardson-extrapolates to 1
    within 2e-2 under grid refinement, else Regular.
    """
    grid = build_grid(config.N, config.M, config.gamma)
    solver = _ClampedSolver(grid, config.bc)
    dlam = config.step()

    points = []
    lam = 0.0
    profile, it, tag = _solve_at(0.0, config.bc, grid, config, solver=solver)
    points.append(BranchPoint(0.0, profile, profile.sup_norm,
                              _resampled_mu1(profile, 0.0) if config.compute_mu1 else None,
                              tag, it))
    lam_lo, good = 0.0, profile
    lam_hi = None
    while lam_hi is None:
        lam = lam_lo + dlam
        try:
            profile, it, tag = _solve_at(lam, config.bc, grid, config, warm=good, solver=solver)
        except NonConvergence:
            lam_hi = lam
            break
        points.append(BranchPoint(lam, profile, profile.sup_norm,
                                  _resampled_mu1(profile, lam) if config.compute_mu1 else None,
                                  tag, it))
        lam_lo, good = lam, profile

    while lam_hi - lam_lo > config.bracket_tol():
        mid = 0.5 * (lam_lo + lam_hi)
        try:
            profile, it, tag = _solve_at(mid, config.bc, grid, config, warm=good, solver=solver)
        except NonConvergence:
            lam_hi = mid
            continue
        points.append(BranchPoint(mid, profile, profile.sup_norm,
                                  _resampled_mu1(profile, mid) if config.compute_mu1 else None,
                                  tag, it))
        lam_lo, good = mid, profile

    C0_fit, exponent_fit = _touchdown_fit(good)

    # sup-norm Richardson over a coarser companion grid at the same lambda
    warnings = []
    sups = [good.sup_norm]
    p2 = None
    g2 = build_grid(config.N, config.M // 2, config.gamma)
    # the coarse grid's own fold may sit marginally below lam_lo; back off a
    # few bracket widths before giving up
    for back in (0.0, 2.0, 8.0, 64.0, 256.0):
        try:
            p2, _, _ = _solve_at(lam_lo - back * config.bracket_tol(), config.bc, g2, config)
            sups.append(p2.sup_norm)
            break
        except NonConvergence:
            continue
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
