"""Minimal-branch continuation for Delta^2 u = lambda/(1-u)^2 with clamped data.

Two solvers share the discrete clamped bilaplacian: the classical monotone
fixed-point scheme (iterates rise from the biharmonic lift and stay below
the minimal solution) and a damped Newton iteration.  Both solve their
linear systems with a float64 banded LU of the mixed form v = Delta u,
Delta v = f (see `_ClampedSolver`); Newton iterates on the interleaved
(v, u) unknown itself and stops at the float64 rounding floor of its
row-scaled mixed residual.

A sweep traces the branch in s = u(0), which stays a regular parameter
through the fold (Keller's pseudo-arclength bordering with the arclength
replaced by u(0)).  Each point is a bordered Newton solve for (u, lambda)
with u(0) = s, one banded factorization per Newton step, and the last
step's factorization gives the tangent (du/ds, dlambda/ds).  A solve
starts from the cubic Hermite curve through the last two solved points and
their tangents, or from the tangent line when only one point is solved.
The s-step is still sized by the tangent line's miss: sized by the Hermite
curve's smaller miss, the steps grew enough to jump over the fold to tau,
and N = 6 and 7 came out singular.
The trace stops at the fold of the minimal branch, the root of dlambda/ds,
where lambda* is a maximum of lambda(s), or at the touchdown threshold
s = tau, where it reports lambda(tau).  Once dlambda/ds changes sign, each
fold-search solve sits where the cubic Hermite model of lambda(s) through
the bracket ends (their lambda and dlambda/ds) turns (`_hermite_root`):
regula falsi on dlambda/ds alone took 12 solves at N = 8, where dlambda/ds
is far from linear, and this takes 5.  Illinois regula falsi is the
safeguard: it takes the step after two updates of the same bracket end, or
when no turning point lies strictly inside.  A fold before tau classifies
the dimension as regular; reaching tau with the touchdown profile
1 - C0 r^(4/3) as singular.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .grid import BoundaryData, InvalidArgument, RadialField, RadialGrid, build_grid, phi_lift
# bilaplacian_clamped is unused here; perfbench/test_harness.py's BINDINGS lists it
from .operators import bilaplacian_clamped, lambda_bar, mixed_bilaplacian  # noqa: F401

_FLAPACK = "scipy.linalg._flapack"


def _flapack_spec():
    """The import spec of scipy's compiled LAPACK extension in scipy's `linalg` folder, or None."""
    import scipy
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    return finder.find_spec(_FLAPACK)


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, `scipy.linalg._flapack`, loaded on its own.

    Importing `scipy.linalg.lapack` runs the whole `scipy.linalg` package
    init, which costs about 27 MB of RSS and 0.2 s; the extension alone costs
    under 3 MB.  A module already in `sys.modules` is reused.  Otherwise the
    extension is executed from its file and registered under its own name,
    so a later `import scipy.linalg` reuses this module object.  Without the
    file, the routines come from `scipy.linalg.lapack`, the same Fortran code.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        spec = _flapack_spec()
        if spec is None:
            from scipy.linalg import lapack as module
        else:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
    return module


def dgbtrf(ab, kl, ku):
    """LAPACK banded LU, `scipy.linalg.lapack.dgbtrf`, in place: the factors overwrite `ab`.

    `ab` must be a Fortran-ordered float64 band the caller owns.  The LAPACK
    extension, not the `scipy.linalg` package, loads at the first call (see
    `_lapack`).
    """
    return _lapack().dgbtrf(ab, kl, ku, overwrite_ab=1)


def dgbtrs(ab, kl, ku, b, ipiv):
    """Solve with a `dgbtrf` factorization, `scipy.linalg.lapack.dgbtrs`.

    The solution overwrites b when b is a Fortran-ordered float64 array."""
    return _lapack().dgbtrs(ab, kl, ku, b, ipiv, overwrite_b=1)


class NonConvergence(Exception):
    """Solver failure; the message says which solver step failed."""


@dataclass(frozen=True)
class BranchPoint:
    """One converged point of the minimal branch, at s = u(0) with slope dlambda/ds."""

    lam: float
    profile: RadialField
    sup_norm: float
    mu1: float | None
    iterations: int
    s: float
    slope: float


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


@dataclass(frozen=True)
class GridEvidence:
    """lambda*_h of one sweep on M, M/2 and M/4, with its observed order.

    The order is log2((l4 - l2) / (l2 - l1)) for the values l1, l2, l4 on M,
    M/2 and M/4; None when the differences change sign.  An order that is
    None or below 1 means the three grids are outside the asymptotic range,
    so they back no extrapolation; `sweep_branch` then adds a warning.
    `points` counts the converged bordered solves of each grid's trace,
    `seeded` tells whether that trace started from the finer grid's trace
    (see `sweep_branch`) rather than from the lift, and `newton_steps`
    counts the Newton steps made on each grid, those of a start near the
    fold that found no bracket included.
    """

    M: tuple
    lam_star: tuple
    observed_order: float | None
    points: tuple
    seeded: tuple
    newton_steps: tuple


#: values of s at which `BranchResult.curve` samples the branch
CURVE_SAMPLES = 201


@dataclass(frozen=True)
class BranchResult:
    """Output of a sweep: branch points, lambda*_h, its bracket and evidence, classification.

    `points` holds the minimal-branch points in increasing s, up to the fold
    or to s = tau.  At a fold, `lam_star_bracket` is the root finder's
    bracket: the largest lambda solved and the meeting point of the tangents
    at the two ends of the final s-bracket, an upper bound for the concave
    lambda(s) near the fold.  At s = tau it is lambda(tau) and its tangent
    extension to touchdown, lambda(tau) + (1 - tau) dlambda/ds.  The
    counters cover the sweep's own grid: converged bordered solves
    (`trace_points`), Newton steps, halved Newton steps, refined Newton
    steps, fold-search solves (`fold_secant_steps`: at Hermite-model roots
    of lambda(s) or Illinois steps on dlambda/ds, see `_trace`), banded
    factorizations, and failed solves, each followed by a halved s-step.  A
    sweep makes one factorization per Newton step plus the operator's, and with
    `compute_mu1` the factors of each mu1.  `mu1_iterations` counts the
    inverse-iteration steps of the mu1 solves and `mu1_fallbacks` the seeded
    mu1 solves refused (see `stability.mu1`); both are 0 without
    `compute_mu1`.
    """

    points: tuple
    lam_star_estimate: float
    lam_star_bracket: tuple
    extremal_profile: RadialField
    classification: str  # "Regular" | "Singular"
    fold: bool  # the trace turned at a fold before s = tau
    C0_fit: float
    exponent_fit: float
    solve_accuracy: float  # the solver's construction-time probe error
    grid_evidence: GridEvidence | None
    factorizations: int
    failed_solves: int
    trace_points: int
    newton_steps: int
    halvings: int
    refinements: int
    fold_secant_steps: int
    mu1_iterations: int
    mu1_fallbacks: int
    warnings: tuple = ()

    def curve(self):
        """(lambda, sup u) at `CURVE_SAMPLES` values of s evenly spaced over the points.

        lambda(s) is the cubic Hermite interpolant of the points' lambda and
        dlambda/ds; sup u is interpolated linearly in s (it equals s when
        the profiles decrease radially).
        """
        S = np.array([p.s for p in self.points])
        lam = np.array([p.lam for p in self.points])
        slope = np.array([p.slope for p in self.points])
        sup = np.array([p.sup_norm for p in self.points])
        s = np.linspace(S[0], S[-1], CURVE_SAMPLES)
        i = np.clip(np.searchsorted(S, s, side="right") - 1, 0, len(S) - 2)
        h = S[i + 1] - S[i]
        t = (s - S[i]) / h
        lam_s = _hermite(t, h, lam[i], slope[i], lam[i + 1], slope[i + 1])
        return lam_s, sup[i] + t * (sup[i + 1] - sup[i])


def _hermite(t, h, y0, dy0, y1, dy1):
    """Cubic Hermite curve through y0 and y1, with derivatives dy0 and dy1 in s.

    t = (s - s0) / h for the nodes s0 and s0 + h; t outside [0, 1]
    extrapolates.  The arguments may be arrays of matching shapes.
    """
    return ((2 * t ** 3 - 3 * t ** 2 + 1) * y0 + (t ** 3 - 2 * t ** 2 + t) * h * dy0
            + (3 * t ** 2 - 2 * t ** 3) * y1 + (t ** 3 - t ** 2) * h * dy1)


def _hermite_root(h, y0, dy0, y1, dy1):
    """The t in (0, 1) where `_hermite`'s curve turns, for dy0 > 0 >= dy1; None if none is.

    Its derivative in t is q(t) = 3 (d0 + d1 - 2 D) t^2 + (6 D - 4 d0 - 2 d1) t
    + d0 with d0 = h dy0, d1 = h dy1 and D = y1 - y0.  Since q(0) = d0 > 0 >=
    d1 = q(1), exactly one root lies in (0, 1], the one at which q falls
    through zero, (-B - r) / (2 A) for q = A t^2 + B t + d0 and
    r = sqrt(B^2 - 4 A d0), whatever the sign of A.  It is formed so that
    nothing cancels: as 2 d0 / (r - B) when B < 0, and when B >= 0, which
    makes A = d1 - d0 - B negative, as is.
    """
    d0, d1, D = h * dy0, h * dy1, y1 - y0
    A, B = 3.0 * (d0 + d1 - 2.0 * D), 6.0 * D - 4.0 * d0 - 2.0 * d1
    disc = B * B - 4.0 * A * d0
    if not disc >= 0.0:
        return None
    r = math.sqrt(disc)
    t = 2.0 * d0 / (r - B) if B < 0 else (B + r) / (-2.0 * A) if A < 0 else math.nan
    return t if 0.0 < t < 1.0 else None


class _ClampedSolver:
    """Factorized clamped bilaplacian on one grid with one boundary data.

    Every solve is one float64 LAPACK banded LU solve of the mixed system
    v = Delta u, Delta v = f (`mixed_bilaplacian`), whose rows scale like
    1/h^2 where those of the composed operator scale like 1/h^4.  Its band,
    the operator's only form, is factored once; a Newton Jacobian differs
    from it only on the u diagonal and is factored once per step.  The band
    stores A's rows in `order`, each (v, u) pair swapped; `_solve` and
    `matvec` translate, so the unknowns and the right-hand-side layout are
    A's own.  The band is kept twice: under `kl` spare rows in Fortran order,
    the layout `dgbtrf` factors in place, and row-aligned for the products
    A x and |A||x| (`matvec`, `matvec_pair`), with which Newton measures its
    residual.  A known-solution probe at construction measures the
    achievable solve accuracy (`solve_accuracy`) and raises instead of
    returning garbage when it is too poor.  `factorizations`,
    `newton_steps`, `halvings` and `refinements` count the banded LU
    factorizations, the Newton steps, the halved Newton steps and the
    bordered steps replaced by their refinement (see `_bordered_solve`)
    made so far.
    """

    _PROBE_LIMIT = 1e-2

    def __init__(self, grid: RadialGrid, bc: BoundaryData):
        if not bc.is_admissible():
            raise InvalidArgument("boundary data must be admissible (beta <= 0, alpha - beta/2 < 1)")
        self.grid = grid
        self.bc = bc
        self.factorizations = self.newton_steps = self.halvings = self.refinements = 0
        band, (self.kl, self.ku), o1 = mixed_bilaplacian(grid, bc)
        D, n = band.shape
        # dgbtrf's workspace, copied whole for each factorization; LAPACK
        # documents the kl spare rows on top as "need not be set", and
        # dgbtf2 zeroes the fill-in there itself
        self._ab = np.empty((self.kl + D, n), order="F")
        self._ab[self.kl:] = band
        # _aligned[d, i] = band[d, i + k] for the diagonal k = ku - d: A's
        # entry in band row i and column i + k, zero where that column is off
        # the matrix.  Row d of the view _shifted is x[i + k], zero off the
        # ends, once _products writes x into _xpad[kl:kl + n]
        self._aligned = np.zeros_like(band)
        for d in range(D):
            k = self.ku - d
            i, j = max(0, -k), max(0, k)
            self._aligned[d, i:n - j] = band[d, j:n - i]
        self._xpad = np.zeros(n + D - 1)
        self._shifted = np.lib.stride_tricks.sliding_window_view(self._xpad, n)[::-1]
        self.order = np.arange(n)
        self.order[:-1] ^= 1
        self.b0 = np.zeros(n)
        self.b0[0::2] = o1
        self.lu = self._factor()
        self.phi = phi_lift(bc, grid.r[:-1])
        self.solve_accuracy = self._probe()
        if not self.solve_accuracy <= self._PROBE_LIMIT:
            raise InvalidArgument(
                "clamped bilaplacian too ill-conditioned for this grid "
                f"(probe error {self.solve_accuracy:.1e}); lower gamma or M")

    def _products(self, x: np.ndarray) -> np.ndarray:
        """The band's products with x, (D, n): row d holds band[d, i + k] x[i + k]."""
        self._xpad[self.kl:self.kl + x.size] = x
        return self._aligned * self._shifted

    def _sum(self, z: np.ndarray) -> np.ndarray:
        """Column sums of band products, the top row first, added into +0.0, in A's row order.

        That is how scipy.sparse adds the diagonals of a matrix stored by
        diagonals, so every sum rounds as it does there, signed zeros too."""
        return np.add.reduce(z, axis=0, initial=0.0)[self.order]

    def matvec(self, x: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A @ x, or |A| @ |x| when `absolute` (|a x| is |a| |x| exactly), in A's row order."""
        z = self._products(x)
        return self._sum(np.abs(z, out=z) if absolute else z)

    def matvec_pair(self, x: np.ndarray):
        """(A @ x, |A| @ |x|) from one set of band products; each equals its `matvec`."""
        z = self._products(x)
        return self._sum(z), self._sum(np.abs(z, out=z))

    def factor_shifted(self, d: np.ndarray):
        """LU of the mixed band minus diag(d) on the u rows (the band's superdiagonal)."""
        return self._factor(d)

    def _factor(self, d=0.0):
        """`factor_shifted`'s LU, and the operator's at d = 0, on a copy for dgbtrf to overwrite."""
        ab = self._ab.copy(order="F")
        ab[self.kl + self.ku - 1, 1::2] -= d
        self.factorizations += 1
        lu, piv, info = dgbtrf(ab, self.kl, self.ku)
        if info > 0:
            raise NonConvergence(f"singular banded matrix (zero pivot at {info})")
        return lu, piv

    def _solve(self, lu, b: np.ndarray) -> np.ndarray:
        """Interleaved mixed solution [v0, u0, v1, ...] for the right-hand side(s) b,
        laid out like A's rows; they are put in the band's row order here."""
        return dgbtrs(lu[0], self.kl, self.ku, b[self.order], lu[1])[0]

    def _probe(self) -> float:
        """Max solve error of the homogeneous mixed system A for u = (1 - r^2)^2."""
        v = (1.0 - self.grid.r[:-1] ** 2) ** 2
        x = np.zeros(self.b0.size)
        x[1::2] = v
        x[0::2] = -self.matvec(x)[0::2]  # Delta u = L1 @ u
        b = np.zeros_like(x)
        b[1::2] = self.matvec(x)[1::2]  # L2 @ (L1 @ u)
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
        return self._solve(self.factor_shifted(2.0 * lam / (1.0 - u) ** 3), rhs)

    def mixed_state(self, u: np.ndarray) -> np.ndarray:
        """Interleaved [v0, u0, v1, ...] with v = Delta u from the even rows."""
        x = np.zeros_like(self.b0)
        x[1::2] = u
        x[0::2] = self.b0[0::2] - self.matvec(x)[0::2]
        return x

    def residual(self, x: np.ndarray, lam: float):
        """(F, max |F| / scale) for F(x) = A x - b(u).

        b(u) holds o1 on the even rows and lam/(1-u)^2 on the odd ones.  The
        row scale |A||x| + |b| + 1, plus 2 |b| |u| / (1-u) on the u rows, is
        what float64 rounds when it stores x and forms each row, so the
        scaled residual of the correctly rounded solution is a few eps.  The
        last term is the change of b under a one-ulp change of u; near
        touchdown on coarse grids it exceeds the others, and without it no
        float iterate reaches `NEWTON_FLOOR` there.  A x and |A||x| come from
        one set of band products (`matvec_pair`).
        """
        u = x[1::2]
        gap = 1.0 - u
        b = self.b0.copy()
        b[1::2] = lam / gap ** 2
        F, scale = self.matvec_pair(x)
        F -= b
        scale += np.abs(b)
        scale += 1.0
        scale[1::2] += 2.0 * np.abs(b[1::2] * u) / gap
        return F, float(np.max(np.abs(F) / scale))

    def field(self, u_int: np.ndarray) -> RadialField:
        return RadialField(self.grid, np.concatenate([u_int, [self.bc.alpha]]), self.bc)


#: the monotone iteration stops once its largest increment falls below this
MONOTONE_TOL = 1e-10
_MONOTONE_MAX_ITER = 600


def monotone_solve(lam: float, bc: BoundaryData, grid: RadialGrid,
                   tau: float = 1.0 - 1e-3, _solver: _ClampedSolver | None = None):
    """Monotone fixed-point iteration from the biharmonic lift.

    u_0 = Phi, then Delta^2 u_(n+1) = lambda/(1 - u_n)^2 with the clamped
    data, until the largest increment falls below `MONOTONE_TOL`.  Iterates
    are verified non-decreasing; returns (profile, iterations).  Raises
    NonConvergence when an iterate crosses `tau` (lambda above pull-in) and
    when `_MONOTONE_MAX_ITER` iterations pass first (lambda near pull-in,
    where the contraction factor nears 1); the message says which.
    """
    if lam < 0:
        raise InvalidArgument("lambda must be nonnegative")
    s = _solver if _solver is not None else _ClampedSolver(grid, bc)
    u = s.phi.copy()
    if np.max(u) >= tau:
        raise NonConvergence("biharmonic lift already beyond the threshold")
    for it in range(1, _MONOTONE_MAX_ITER + 1):
        u_new = s.solve_rhs(lam / (1.0 - u) ** 2)
        if np.max(u_new) >= tau:
            raise NonConvergence("iterate crossed the touchdown threshold")
        d = u_new - u
        u = u_new
        if np.max(np.abs(d)) < MONOTONE_TOL:
            return s.field(u), it
        if np.min(d) < -1e-6 * (1.0 + float(np.max(np.abs(u)))):
            raise NonConvergence("monotonicity of the scheme violated")
    raise NonConvergence(f"no contraction after {_MONOTONE_MAX_ITER} iterations")


#: Newton stops once the row-scaled mixed residual reaches this floor
NEWTON_FLOOR = 8.0 * np.finfo(np.float64).eps
#: step lengths 1, 1/2, 1/4, 1/8 are tried before Newton gives up
_DAMPING_TRIALS = 4
_NEWTON_MAX_ITER = 50


def _damped_newton(s: _ClampedSolver, x: np.ndarray, lam: float, ceiling: float, direction,
                   min_steps: int = 0):
    """Damped Newton loop on F(x, lam) = A x - b(u); returns (x, lam, steps).

    `direction(x, lam, F)` gives the full step (dx, dlam) and `refine`, None
    or a callable that returns a more accurate step from the same
    factorization.  Iteration stops when the scaled residual
    (`_ClampedSolver.residual`) reaches `NEWTON_FLOOR` after at least
    `min_steps` steps.  A step length is accepted when its iterate stays
    below `ceiling` and lowers the scaled residual or reaches the floor.
    When the full step is not accepted, `refine` (if given) replaces the
    step before any halving.  Each Newton step takes the first accepted of
    `_DAMPING_TRIALS` lengths 1, 1/2, 1/4, ...; when none is (above the
    fold) it raises NonConvergence at once.
    """
    res, res_norm = s.residual(x, lam)
    it = 0
    while it < min_steps or res_norm > NEWTON_FLOOR:
        if it == _NEWTON_MAX_ITER:
            raise NonConvergence(
                f"Newton did not converge in {_NEWTON_MAX_ITER} iterations")
        it += 1
        s.newton_steps += 1
        dx, dlam, refine = direction(x, lam, res)
        k = 0
        while True:
            x_try, lam_try = x + 0.5 ** k * dx, lam + 0.5 ** k * dlam
            if np.max(x_try[1::2]) < ceiling:
                res_try, norm_try = s.residual(x_try, lam_try)
                if norm_try < res_norm or norm_try <= NEWTON_FLOOR:
                    break
            if k == 0 and refine is not None:
                s.refinements += 1
                (dx, dlam), refine = refine(), None
                continue
            k += 1
            if k == _DAMPING_TRIALS:
                raise NonConvergence("Newton damping found no step that lowers the residual")
        s.halvings += k
        x, lam, res, res_norm = x_try, lam_try, res_try, norm_try
    return x, lam, it


def newton_solve(lam: float, guess: RadialField, bc: BoundaryData, grid: RadialGrid,
                 tau: float = 1.0 - 1e-3, _solver: _ClampedSolver | None = None):
    """Damped Newton iteration on the mixed system A x = b(u), x = [v0, u0, ...].

    F(x) = A x - b(u) with A the mixed clamped bilaplacian and b(u) holding
    o1 on the v rows and lambda/(1-u)^2 on the u rows; the Jacobian is A
    minus 2 lambda/(1-u)^3 on the u diagonal.  Iterates stay below the
    touchdown threshold `tau` (see `_damped_newton`).  Returns
    (profile, Newton steps).
    """
    if np.max(guess.values) >= 1.0:
        raise InvalidArgument("initial guess touches the ceiling")
    s = _solver if _solver is not None else _ClampedSolver(grid, bc)
    u = np.minimum(np.asarray(guess.values[:-1], dtype=np.float64), tau - 1e-6)
    x, _, it = _damped_newton(s, s.mixed_state(u), lam, tau,
                              lambda x, lam, F: (s.jacobian_solve(x[1::2], -F, lam), 0.0, None))
    return s.field(x[1::2]), it


def _bordered_solve(s: _ClampedSolver, x: np.ndarray, lam: float):
    """Newton for (x, lambda) with u(0) = x[1] held fixed; returns (x, lam, steps, b).

    Block elimination of the bordered system: a = J^-1(-F) and b = J^-1 g,
    g = (1-u)^-2 on the u rows, from one factorization and one two-column
    solve; then dlambda = -a_0 / b_0 keeps u(0) and dx = a + dlambda b.
    Near the fold J is nearly singular, a and b share a huge null component,
    and this step can fail to lower the residual; then one step of
    iterative refinement of the bordered system on the same factors
    replaces it (see `_damped_newton`).  The solve takes at least one step,
    so a predictor already at the residual floor is still corrected in
    lambda, and the returned b, from the last step's Jacobian, gives the
    tangent: du/ds = b / b_0, dlambda/ds = 1 / b_0.
    """
    b_last = None

    def direction(x, lam, F):
        nonlocal b_last
        gap = 1.0 - x[1::2]
        w = 2.0 * lam / gap ** 3
        lu = s.factor_shifted(w)
        g_u = 1.0 / gap ** 2  # -dF/dlambda on the u rows; zero on the v rows
        # the columns -F and g in the band's row order, whose even rows but
        # the last are A's u rows
        rhs = np.zeros((x.size, 2), order="F")
        rhs[:, 0] = -F[s.order]
        rhs[:-1:2, 1] = g_u
        a, b = dgbtrs(lu[0], s.kl, s.ku, rhs, lu[1])[0].T
        b_last = b

        def eliminate(a):
            dlam = -a[1] / b[1]
            dx = a + dlam * b
            dx[1] = 0.0  # exactly, so that u(0) keeps the float s it was given
            return dx, dlam

        dx, dlam = eliminate(a)

        def refine():
            g = np.zeros_like(x)
            g[1::2] = g_u
            r = -F - s.matvec(dx) + dlam * g
            r[1::2] += w * dx[1::2]
            dx2, dlam2 = eliminate(s._solve(lu, r))
            return dx + dx2, dlam + dlam2

        return dx, dlam, refine

    x, lam, it = _damped_newton(s, x, lam, 1.0, direction, min_steps=1)
    return x, lam, it, b_last


@dataclass(frozen=True)
class _TracePoint:
    s: float
    lam: float
    x: np.ndarray  # interleaved [v0, u0, v1, ...]
    tangent: np.ndarray  # dx/ds
    slope: float  # dlambda/ds
    iterations: int
    mu1: float | None


@dataclass(frozen=True)
class _Trace:
    points: list  # minimal-branch _TracePoints in increasing s
    fold: bool
    lam_star: float
    bracket: tuple
    converged: int  # every converged bordered solve, past the fold included
    fold_steps: int  # fold-search solves
    failed: int
    mu1_iterations: int  # inverse-iteration steps of the trace's mu1 solves
    mu1_fallbacks: int  # seeded mu1 solves refused
    seed: _TracePoint  # the last stepping point with dlambda/ds > 0
    seeded: bool  # the trace started from a given state, not from the lift
    curvature: float | None  # d2lambda/ds2 across the final fold bracket; None without a fold


#: first s-step of a trace
_DS0 = 0.05
#: the s-step is sized so that the tangent line misses u by about this
_PREDICTOR_TOL = 1e-2
#: a failed solve halves the s-step; below this width the trace gives up
_DS_MIN = 1e-9
#: the fold search stops when its lambda bracket is this narrow, relative
_FOLD_RTOL = 1e-10
_FOLD_MAX_STEPS = 50
#: a start near the fold brackets it in at most this many doubling s-steps ...
_NEAR_FOLD_STEPS = 8
#: ... of which the first is at least this long
_NEAR_FOLD_DS_MIN = 1e-7


def _restrict(x: np.ndarray) -> np.ndarray:
    """The interleaved state on the grid with half the cells: its shared nodes.

    Node 2k of a graded grid with M cells is node k of the grid with M/2
    (`build_grid` gives the same float), so v_1, u_1, v_3, u_3, ..., v_(M-1)
    of x = [v0, u0, ..., v_(M-1)] is the coarse state.
    """
    y = np.empty((len(x) - 1) // 2)
    y[0::2], y[1::2] = x[2::4], x[3::4]
    return y


def _trace(s: _ClampedSolver, tau: float, mu1=None, start=None, near_fold=None) -> _Trace:
    """Trace the minimal branch in s = u(0) from the lift to the fold or s = tau.

    Each point is a `_bordered_solve`; its tangent comes from the Jacobian
    of the solve's last Newton step, so a point costs no factorization of
    its own; `mu1` (when given) factors its own, and each mu1 is seeded with
    the one solved before it (at the first point, with nu1(N); see
    `stability.mu1`).  A stepping solve starts from the cubic Hermite curve
    through the last two points (`_hermite`, extrapolated), the first one
    after the start from
    the last point's tangent line.  The s-step is sized so that the tangent
    line misses the solved u by about `_PREDICTOR_TOL`, whichever start the
    solve had, so the s values are nearly those of tangent-started solves; a
    failed solve halves the s-step.  After the first point with
    dlambda/ds <= 0, the fold is sought in the s-bracket (a, b), dlambda/ds
    > 0 at a and <= 0 at b.  Each new s is the turning point of the cubic
    Hermite curve of lambda(s) through a and b (`_hermite_root`), which uses
    the lambda values of the ends as well as their slopes.  When the last
    update replaced the same end as the one before it, or no turning point
    lies strictly inside, it is instead the Illinois step: the regula falsi
    root of dlambda/ds, whose value at the end kept is halved each time the
    other end is replaced twice in a row.  Each solve starts from the
    Hermite curve between the bracket ends, and the search stops when the
    bracket between the largest lambda solved and the meeting point of the
    end tangents is `_FOLD_RTOL` narrow; lambda*_h is its midpoint.  End
    tangents that meet more than `_FOLD_RTOL` below the largest lambda bound
    nothing (lambda is not concave over the bracket), and the search goes
    on.  The trace records d2lambda/ds2 across its final bracket,
    (dlambda/ds(b) - dlambda/ds(a)) / (b - a), as `curvature`.
    The first point is the lift's discrete solution at lambda = 0, or, with
    `start = (x, lam)`, the bordered solve from that predictor.  A lift
    whose u(0) is already at or above tau raises InvalidArgument: the trace
    would have no step to take.  A start at or above tau, whose solve fails
    or which lands at dlambda/ds <= 0 (past this grid's fold) is dropped,
    and the trace starts from the lift.
    With `near_fold = (x, lam, curvature)`, a predictor near this grid's
    fold and d2lambda/ds2 there, the trace steps to the fold instead: it
    solves the start, then steps s toward the sign of dlambda/ds from
    tangent-line predictors, the first step 2 |dlambda/ds / curvature| (at
    least `_NEAR_FOLD_DS_MIN`) and each later one twice the last, until
    dlambda/ds changes sign; the fold search then runs on that bracket.
    When `_NEAR_FOLD_STEPS` steps find no sign change, a step leaves
    (0, tau) or a solve fails, the trace is the one from `start` instead.
    """
    failed = fold_steps = mu1_iterations = mu1_fallbacks = 0
    trace, eig_seed = [], None
    if mu1 is not None:
        from .stability import nu1  # stability builds on _ClampedSolver

        eig_seed = (nu1(s.grid.N), None)

    def converge(x, lam):
        nonlocal eig_seed, mu1_iterations, mu1_fallbacks
        x, lam, it, b = _bordered_solve(s, x, lam)
        slope = 1.0 / b[1]
        mu = None
        if mu1 is not None and slope > 0:
            eig = mu1(s.field(x[1::2]), lam, _solver=s, _seed=eig_seed)
            mu, eig_seed = eig.value, (eig.value, eig.eigenfunction.values[:-1])
            mu1_iterations += eig.iterations
            mu1_fallbacks += eig.fallbacks
        trace.append(_TracePoint(x[1], lam, x, b * slope, slope, it, mu))
        return trace[-1]

    def predict(p, s_new, q=None):
        """The tangent line at p at s_new, or the cubic Hermite curve through p and q."""
        if q is None:
            x, lam = p.x + (s_new - p.s) * p.tangent, p.lam + (s_new - p.s) * p.slope
        else:
            h = q.s - p.s
            t = (s_new - p.s) / h
            x = _hermite(t, h, p.x, p.tangent, q.x, q.tangent)
            lam = _hermite(t, h, p.lam, p.slope, q.lam, q.slope)
        x[1] = s_new
        if np.max(x[1::2]) >= 1.0:
            raise NonConvergence("predictor crosses the ceiling")
        return x, lam

    def bracket_fold(x, lam, curvature):
        """(a, b) around the fold, stepped to from the start (x, lam); None if not found.

        None also when a step leaves (0, tau) or a solve fails."""
        try:
            p = converge(x, lam)
            ds = max(2.0 * abs(p.slope / curvature), _NEAR_FOLD_DS_MIN)
            for _ in range(_NEAR_FOLD_STEPS):
                s_new = p.s + (ds if p.slope > 0 else -ds)
                if not 0.0 < s_new < tau:
                    return None
                q = converge(*predict(p, s_new))
                if (q.slope > 0) != (p.slope > 0):
                    return (p, q) if p.slope > 0 else (q, p)
                p, ds = q, 2.0 * ds
        except NonConvergence:
            pass
        return None

    if near_fold is not None:
        ab = bracket_fold(*near_fold)
        if ab is None:
            return _trace(s, tau, mu1, start)
        a, b = ab
    else:
        if start is None:
            x = s.mixed_state(s.solve_rhs(np.zeros_like(s.phi)))
            if x[1] >= tau:
                raise InvalidArgument(f"the biharmonic lift already reaches the touchdown "
                                      f"threshold: u(0) = {x[1]:.6g} >= tau = {tau:.6g}")
            p = converge(x, 0.0)
        else:
            try:
                p = converge(*start) if start[0][1] < tau else None
            except NonConvergence:
                p = None
            if p is None or p.slope <= 0:
                return _trace(s, tau, mu1)
        prev, ds = None, _DS0
        while p.slope > 0 and p.s < tau:
            s_new = min(p.s + ds, tau)
            try:
                line, lam = predict(p, s_new)
                q = converge(*(predict(prev, s_new, p) if prev is not None else (line, lam)))
            except NonConvergence:
                failed += 1
                ds = 0.5 * (s_new - p.s)
                if ds < _DS_MIN:
                    raise NonConvergence(f"s-step fell below {_DS_MIN} at s = {p.s}") from None
                continue
            # the tangent line's miss, not the solve's start, sizes the step
            miss = float(np.max(np.abs(q.x[1::2] - line[1::2])))
            ds = (s_new - p.s) * min(2.0, max(0.5, math.sqrt(_PREDICTOR_TOL / max(miss, 1e-300))))
            prev, p = p, q
        if p.slope > 0:
            return _Trace(trace, False, p.lam, (p.lam, p.lam + (1.0 - p.s) * p.slope),
                          len(trace), 0, failed, mu1_iterations, mu1_fallbacks, p,
                          start is not None, None)
        a, b = trace[-2], trace[-1]

    # fold: dlambda/ds > 0 at a, <= 0 at b
    seed = a  # not a fold-search point: those can lie past a coarser grid's fold
    fa, fb, side, halved = a.slope, b.slope, 0, False
    while True:
        lo = max(a.lam, b.lam)
        s_meet = (b.lam - a.lam + a.slope * a.s - b.slope * b.s) / (a.slope - b.slope)
        meet = a.lam + a.slope * (s_meet - a.s)
        hi = max(meet, np.nextafter(lo, np.inf))
        # end tangents that meet below lo bound nothing (lambda is not concave
        # over [a, b]), so the search goes on
        if hi - lo <= _FOLD_RTOL * lo and meet >= lo - _FOLD_RTOL * lo:
            break
        if fold_steps == _FOLD_MAX_STEPS:
            raise NonConvergence(f"fold search stalled at lambda in ({lo}, {hi})")
        # the turning point of the Hermite model of lambda(s); the Illinois
        # step after two updates of one end, or when no turning point is inside
        t = None if halved else _hermite_root(b.s - a.s, a.lam, a.slope, b.lam, b.slope)
        s_new = (a.s * fb - b.s * fa) / (fb - fa) if t is None else a.s + t * (b.s - a.s)
        fold_steps += 1
        c = converge(*predict(a, s_new, b))
        if c.slope > 0:
            a, fa, halved = c, c.slope, side == 1
            if halved:
                fb *= 0.5
            side = 1
        else:
            b, fb, halved = c, c.slope, side == -1
            if halved:
                fa *= 0.5
            side = -1
    points = sorted((p for p in trace if p.slope > 0), key=lambda p: p.s)
    return _Trace(points, True, 0.5 * (lo + hi), (lo, hi), len(trace), fold_steps, failed,
                  mu1_iterations, mu1_fallbacks, seed, start is not None,
                  (b.slope - a.slope) / (b.s - a.s))


def _touchdown_fit(profile: RadialField):
    """Least-squares fit of log(1-u) ~ s log r + log C on the analysis window."""
    grid = profile.grid
    rlo = 2.0 * (1.0 / grid.M) ** (1.0 / grid.gamma)
    mask = (grid.r >= rlo) & (grid.r <= 0.3)
    w = 1.0 - profile.values[mask]
    r = grid.r[mask]
    good = w > 0
    if np.count_nonzero(good) < 2:
        raise InvalidArgument(f"M = {grid.M} leaves fewer than two nodes in the touchdown "
                              f"fit window [{rlo:.3g}, 0.3]")
    slope, intercept = np.polyfit(np.log(r[good]), np.log(w[good]), 1)
    return float(math.exp(intercept)), float(slope)


def sweep_branch(config: ContinuationConfig) -> BranchResult:
    """Trace the minimal branch in s = u(0) and locate the pull-in voltage.

    The trace (see `_trace`) runs on the grid of `config` and, as grid
    evidence for lambda*_h, on the grids with M/2 and M/4 cells.  The graded
    grids nest, so each coarse trace starts from the finer trace, restricted
    to the shared nodes (`_restrict`).  When the finer trace turned at a
    fold, the coarse trace steps to its own fold from the finer trace's
    largest-lambda point, with the finer trace's `curvature` sizing the
    steps (`_trace`'s `near_fold`).  Otherwise, or when that finds no fold
    bracket, it starts from the finer trace's last stepping point with
    dlambda/ds > 0; a fold-search point is not used there, as it can lie
    past the coarse fold.  When M is odd (or M/2 for the M/4 grid) the
    grids do not nest and the coarse trace starts from the lift, as it does
    when the start fails (see `_trace`).  The
    sweep is Singular when its trace reaches s = tau without a fold and the
    touchdown fit of the last profile has exponent within 0.15 of 4/3, else
    Regular.  A coarse grid that turns at a fold when the sweep's grid does
    not, or the reverse, is reported in `warnings`; so are a coarse trace
    that fails, an observed order that is None or below 1, and a trace that
    reaches tau without a fold or that exponent, whose lambda(tau) is then
    no pull-in voltage.  With
    `compute_mu1`, mu1 is evaluated at every point.  Boundary data whose
    lift already has u(0) >= tau raise InvalidArgument.
    """
    from .stability import mu1  # stability builds on _ClampedSolver

    solver = _ClampedSolver(build_grid(config.N, config.M, config.gamma), config.bc)
    main = _trace(solver, config.tau, mu1 if config.compute_mu1 else None)
    traces, solvers, warnings = [main], [solver], []
    try:
        for fine_M, M in ((config.M, config.M // 2), (config.M // 2, config.M // 4)):
            coarse = _ClampedSolver(build_grid(config.N, M, config.gamma), config.bc)
            solvers.append(coarse)
            fine, start, near_fold = traces[-1], None, None
            if fine_M == 2 * M:
                start = (_restrict(fine.seed.x), fine.seed.lam)
                if fine.fold:
                    top = max(fine.points, key=lambda p: p.lam)
                    near_fold = (_restrict(top.x), top.lam, fine.curvature)
            traces.append(_trace(coarse, config.tau, start=start, near_fold=near_fold))
    except (InvalidArgument, NonConvergence) as exc:
        warnings.append(f"no grid evidence for lambda*: {exc}")
    evidence = None
    if len(traces) == 3:
        l1, l2, l4 = (t.lam_star for t in traces)
        ratio = (l4 - l2) / (l2 - l1) if l2 != l1 else math.nan
        evidence = GridEvidence((config.M, config.M // 2, config.M // 4), (l1, l2, l4),
                                math.log2(ratio) if ratio > 0 else None,
                                tuple(t.converged for t in traces),
                                tuple(t.seeded for t in traces),
                                tuple(s.newton_steps for s in solvers))
        order = evidence.observed_order
        if order is None or order < 1:
            shown = "is undefined" if order is None else f"{order:.3g} is below 1"
            warnings.append(f"grid-evidence warning: observed order {shown}; "
                            "the grids are outside the asymptotic range")
    if any(t.fold != main.fold for t in traces):
        warnings.append("grid-resolution warning: classifications disagree between grids")

    last = max(main.points, key=lambda p: p.lam) if main.fold else main.points[-1]
    extremal = solver.field(last.x[1::2])
    C0_fit, exponent_fit = _touchdown_fit(extremal)
    singular = not main.fold and abs(exponent_fit - 4.0 / 3.0) <= 0.15
    if not main.fold and not singular:
        warnings.append(f"touchdown warning: the trace reached s = tau without a fold and "
                        f"its touchdown exponent {exponent_fit:.3g} is not within 0.15 of "
                        "4/3; lambda(tau) is not a pull-in voltage")
    points = []
    for p in main.points:
        profile = solver.field(p.x[1::2])
        points.append(BranchPoint(p.lam, profile, profile.sup_norm, p.mu1, p.iterations,
                                  p.s, p.slope))
    return BranchResult(
        points=tuple(points),
        lam_star_estimate=main.lam_star,
        lam_star_bracket=main.bracket,
        extremal_profile=extremal,
        classification="Singular" if singular else "Regular",
        fold=main.fold,
        C0_fit=C0_fit,
        exponent_fit=exponent_fit,
        solve_accuracy=solver.solve_accuracy,
        grid_evidence=evidence,
        factorizations=solver.factorizations,
        failed_solves=main.failed,
        trace_points=main.converged,
        newton_steps=solver.newton_steps,
        halvings=solver.halvings,
        refinements=solver.refinements,
        fold_secant_steps=main.fold_steps,
        mu1_iterations=main.mu1_iterations,
        mu1_fallbacks=main.mu1_fallbacks,
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


#: largest violation of either side of the sandwich that `sandwich_check` passes
SANDWICH_TOL = 5e-2


@dataclass(frozen=True)
class SandwichReport:
    """Violations of 1 - C0 r^(4/3) <= u <= 1 - r^(4/3) at the grid nodes;
    it passes when both are at most `tol`, the module constant `SANDWICH_TOL`."""

    C0: float
    lower_violation: float
    upper_violation: float
    tol = SANDWICH_TOL  # a class attribute, not a field

    @property
    def passed(self) -> bool:
        return self.lower_violation <= self.tol and self.upper_violation <= self.tol


def sandwich_check(profile: RadialField, lam_star_est: float) -> SandwichReport:
    """Check the singular-profile sandwich with C0 = (lam*/lambda_bar)^(1/3)
    to `SANDWICH_TOL`.  It holds for N >= 9 and u(1) = u'(1) = 0 only: with
    u(1) = alpha the upper side 1 - r^(4/3) would fail by alpha at r = 1."""
    N = profile.grid.N
    if N < 9:
        raise InvalidArgument("the sandwich bounds hold for N >= 9 only")
    if profile.boundary != BoundaryData():
        raise InvalidArgument("the sandwich bounds hold for zero clamped data only")
    r = profile.grid.r
    u = profile.values
    C0 = (lam_star_est / float(lambda_bar(N))) ** (1.0 / 3.0)
    lower = np.max((1.0 - C0 * r ** (4.0 / 3.0)) - u)
    upper = np.max(u - (1.0 - r ** (4.0 / 3.0)))
    return SandwichReport(C0=C0, lower_violation=float(max(0.0, lower)),
                          upper_violation=float(max(0.0, upper)))
