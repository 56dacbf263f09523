"""Stability eigenvalue mu1 of the linearized operator and the clamped-plate nu1.

`nu1(N)` is the exact clamped-ball eigenvalue: the first root of the
characteristic equation J_nu I_(nu+1) + I_nu J_(nu+1) = 0, nu = N/2 - 1,
summed as one power series in float64 (no grid, no scipy).  mu1, and its
lambda = 0 case `nu1_discrete`, are eigenvalues of the mixed pencil
J x = mu B x on the interleaved
unknown x = [v0, u0, v1, u1, ...] of the branch solver
(`branch._ClampedSolver`).  J is the mixed clamped bilaplacian of
`operators.mixed_bilaplacian` (rows v - Delta u and Delta v), held as the
solver's one float64 LAPACK band, minus 2 lambda/(1-u)^3 on the u
diagonal; B is the identity on the u rows and zero on the v rows.  So the
u entries of an eigenvector solve (Delta^2 - 2 lambda/(1-u)^3) phi = mu phi
with homogeneous clamped data.  Both come from inverse iteration
x <- (J - sigma B)^(-1) B x on LUs of that band, O(M) per step, and an
eigensolve uses two factors.  Unseeded, the first is J itself (sigma = 0);
it gives the eigenvalue nearest 0 and the sign of det J; `nu1_discrete`
takes it from the solver's own factorization, and mu1 factors it.  Once two
consecutive estimates agree to `_SETTLE_TOL`, the iteration factors
J - sigma B once at sigma = that estimate and goes on with the second
factor.  The unshifted iteration converges at the rate |mu1| / |mu2|, the
shifted one at |mu1 - sigma| / |mu2 - sigma|, which is far smaller once
the estimate has settled.  A `nu1_discrete` seed that has already settled
starts the solve on the shifted factor.  Along a branch trace each mu1
starts from the one before it: its first factor is shifted to the previous
mu1 (at the lift, to the exact `nu1(N)`), its start vector is the previous
eigenfunction, and the iteration settles once more at its own estimate.
A seeded result counts only when it is positive with a u part of one sign;
otherwise the unseeded solve runs.

The pencil is the operator the branch solver inverts.  The plate form
L^T diag(w r^(N-1)) L (`operators.bilaplacian_form`, which only the tests
build) is not: it breaks the discrete Rellich inequality near the origin,
which gave it a spurious low mode (5715 against nu1 = 19616 at N = 16,
M = 128) and a negative mu1 near touchdown.  The pencil is not symmetric,
and eigenvalues at the top of its spectrum can be complex; the smallest one
was real in every case measured.
Only radial test functions are used; minimal solutions are radial, so this
matches the certificates, but whether the unrestricted infimum coincides is
recorded as a limitation, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch import NonConvergence, _ClampedSolver
from .grid import BoundaryData, InvalidArgument, RadialField, RadialGrid, sphere_area


@dataclass(frozen=True)
class EigenResult:
    """One eigenpair of the mixed pencil J x = mu B x.

    The eigenfunction is the u part of x, normalized to unit L^2(B) norm
    (discrete, including the sphere-area factor).  `residual` is the
    row-scaled backward error max |J x - mu B x| / (|J||x| + |mu||B x|),
    the scale Newton measures its residual on; `iterations` is the number
    of inverse-iteration steps it took to converge, the refused seeded solve's
    included, `factorizations` the banded LU factorizations it made: the
    shifted factors, and the factor of J when none was passed in, and
    `fallbacks` is 1 when a seeded solve was refused and the unseeded one
    ran, else 0.

    A small `residual` does not make a small `value` accurate: the error of
    `value` is absolute, about 1e-12 nu1, since the backward error is scaled
    by |J||x| and J's scale is that of the operator, not of mu.  Near a fold,
    where mu1 goes to 0, mu1 keeps few relative digits.
    """

    value: float
    eigenfunction: RadialField
    residual: float
    method: str
    iterations: int
    factorizations: int
    fallbacks: int


#: inverse iteration stops once the eigenvalue estimate changes by at most
#: this much, relative to the eigenvalue, between two steps
_RQ_TOL = 1e-12
#: the estimate has settled, and the iteration shifts to it, once two
#: consecutive estimates agree to this much, relative
_SETTLE_TOL = 1e-3
#: cap on inverse-iteration steps; reaching it raises
_MAX_ITER = 500
#: float64 unit roundoff; `_clamped_series` drops terms below it, relative
_EPS = 2.0 ** -52


def _inverse_iteration(solver: _ClampedSolver, lu, weight: np.ndarray, shift: float = 0.0,
                       seed: float | None = None, start: np.ndarray | None = None):
    """Eigenvalue of the pencil nearest `shift`; returns (value, x, iterations).

    J is the mixed band minus diag(weight) on the u rows and `lu` factors
    J - shift B.  Each step solves y = (J - sigma B)^(-1) B x and estimates
    mu - sigma by the least-squares fit x_u ~ (mu - sigma) y_u on the u
    entries.  Once two consecutive estimates agree to `_SETTLE_TOL`, sigma
    moves to the estimate: J - sigma B is factored once and the iteration
    goes on with that factor.  A `seed` is an estimate that has already
    settled; sigma starts there.  If the shifted factor has a zero pivot
    (sigma is an eigenvalue to working precision), the iteration keeps the
    factor it has.  The start vector's u rows are `start`, by default ones,
    positive where the ground state has one sign; only they enter B x.
    Reaching `_MAX_ITER` raises RuntimeError.
    """

    def settle(lu, sigma, estimate):
        try:
            return solver.factor_shifted(weight + estimate), estimate
        except NonConvergence:
            return lu, sigma

    sigma, settled = shift, seed is not None
    if settled:
        lu, sigma = settle(lu, sigma, seed)
    x = np.zeros(solver.b0.size)
    x[1::2] = 1.0 if start is None else start
    theta_prev = np.inf
    for it in range(1, _MAX_ITER + 1):
        Bx = np.zeros_like(x)
        Bx[1::2] = x[1::2]
        y = solver._solve(lu, Bx)
        theta = (x[1::2] @ y[1::2]) / (y[1::2] @ y[1::2])
        x = y / np.linalg.norm(y[1::2])
        change = abs(theta - theta_prev)
        if change <= _RQ_TOL * abs(sigma + theta):
            return sigma + theta, x, it
        theta_prev = theta
        if not settled and change <= _SETTLE_TOL * abs(sigma + theta):
            settled = True
            lu, new = settle(lu, sigma, sigma + theta)
            theta_prev += sigma - new
            sigma = new
    raise RuntimeError(f"inverse iteration did not converge in {_MAX_ITER} steps "
                       f"(called with shift {shift}, ended on sigma {sigma})")


def _det_sign(solver: _ClampedSolver, lu) -> float:
    """Sign of the determinant of a `dgbtrf` factorization: U's diagonal and the row swaps."""
    ab, piv = lu
    swaps = np.count_nonzero(piv != np.arange(piv.size))
    return (-1.0) ** swaps * float(np.prod(np.sign(ab[solver.kl + solver.ku])))


def _pencil_eigen(solver: _ClampedSolver, weight: np.ndarray, method: str,
                  lu=None, seeded=None) -> EigenResult:
    """Smallest eigenvalue of the pencil with J = mixed band - diag(weight) on the u rows.

    `seeded`, when given, runs first: a function of no arguments that
    returns `_inverse_iteration`'s (value, x, iterations) from a seed.  Its
    result is kept when the value is positive and the u part of x has one
    sign: by Boggio's principle the clamped ball's ground state is positive,
    and every higher radial mode changes sign.  Any other result, a zero
    pivot on its first factor (NonConvergence) or no convergence
    (RuntimeError) is refused, counts in `fallbacks`, and the unseeded solve
    below runs as it would alone.

    Unseeded, the iteration runs unshifted first, on `lu` when given (the
    factored J), and finds the eigenvalue nearest 0.  That is the smallest
    one unless it is negative, or the determinant of J and of the mixed band
    (whose eigenvalues are nu_k > 0) differ in sign, which counts an odd
    number of negative eigenvalues.  Then it runs again with the shift
    -max(weight), which lies below mu1 >= nu1 - max(weight).  Both tests
    read the unshifted factor.
    """
    made = solver.factorizations
    found, iterations = None, 0
    if seeded is not None:
        try:
            found = seeded()
        except NonConvergence:
            pass
        except RuntimeError:
            iterations = _MAX_ITER
        if found is not None:
            value, x, iterations = found
            if not (value > 0 and (np.all(x[1::2] > 0) or np.all(x[1::2] < 0))):
                found = None
    fallbacks = int(seeded is not None and found is None)
    if found is None:
        if lu is None:
            lu = solver.factor_shifted(weight)
        value, x, more = _inverse_iteration(solver, lu, weight)
        iterations += more
        if value < 0 or _det_sign(solver, lu) != _det_sign(solver, solver.lu):
            shift = -float(np.max(weight))
            value, x, more = _inverse_iteration(solver, solver.factor_shifted(weight + shift),
                                                weight, shift)
            iterations += more
    grid, u = solver.grid, x[1::2]
    r, scale = solver.matvec_pair(x)
    r[1::2] -= (weight + value) * u
    scale[1::2] += (np.abs(weight) + abs(value)) * np.abs(u)
    residual = float(np.max(np.abs(r) / scale))
    # normalize to integral_B phi^2 = 1, including the sphere area
    mass = (grid.quad_weights() * grid.r ** (grid.N - 1))[:-1]
    u = u / np.sqrt(sphere_area(grid.N) * float(np.sum(mass * u ** 2)))
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
    return EigenResult(value=value, eigenfunction=RadialField(grid, np.concatenate([u, [0.0]])),
                       residual=residual, method=method, iterations=iterations,
                       factorizations=solver.factorizations - made, fallbacks=fallbacks)


def nu1_discrete(grid: RadialGrid, _seed: float | None = None) -> EigenResult:
    """Smallest clamped-plate eigenvalue of Delta^2 on the radial grid.

    The mixed pencil at lambda = 0, on the solver's own factorization of the
    mixed band; it converges at second order in 1/M at every N, to
    :func:`nu1`.  A `_seed` (a coarser grid's value) has settled already:
    the iteration starts shifted to it and does not settle again (see
    :func:`_pencil_eigen` for when its result is kept).
    """
    solver = _ClampedSolver(grid, BoundaryData(0.0, 0.0))
    weight = np.zeros(grid.M - 1)
    seeded = None if _seed is None else (
        lambda: _inverse_iteration(solver, solver.lu, weight, seed=_seed))
    return _pencil_eigen(solver, weight, "inverse iteration, mixed pencil", lu=solver.lu,
                         seeded=seeded)


def _clamped_series(x: float, nu: float) -> float:
    """g(x) = sum_m (-x)^m / (m! (nu+1)_m (nu+2)_(2m)) in float64.

    The terms follow t_(m+1) = -t_m x / ((m+1)(nu+1+m)(nu+2+2m)(nu+3+2m)),
    and the sum stops once a term falls below eps times the largest one.
    """
    t = total = largest = 1.0
    m = 0
    while abs(t) > _EPS * largest:
        t *= -x / ((m + 1) * (nu + 1 + m) * (nu + 2 + 2 * m) * (nu + 3 + 2 * m))
        total += t
        largest = max(largest, abs(t))
        m += 1
    return total


def nu1(N: int) -> float:
    """Clamped-plate eigenvalue nu1(N) of Delta^2 on the unit ball in R^N.

    With nu = N/2 - 1, the radial modes are r^(-nu) (A J_nu(kr) + B I_nu(kr)),
    and the clamped data u(1) = u'(1) = 0 leave a nonzero (A, B) exactly when
    J_nu(k) I_(nu+1)(k) + I_nu(k) J_(nu+1)(k) = 0; the eigenvalue is k^4.
    The Cauchy product of the Bessel series gives that combination as
    2 sum_m (-1)^m (k/2)^(4m+2nu+1) / (m! Gamma(m+nu+1) Gamma(2m+nu+2)), which
    is (k/2)^(2nu+1) g(x) / (Gamma(nu+1) Gamma(nu+2)) with x = (k/2)^4 and g
    of :func:`_clamped_series`.  So nu1 = 16 x at the first positive root x
    of g: by Boggio's principle the ground state of the clamped ball is
    radial and positive, so the first radial root is nu1.  Below
    k = j_(nu,1) both J's are positive, and j_(nu,1) > nu + 1, so g > 0 at
    k = max(1, nu + 1).  The search scans k from there in steps of 0.5, less
    than the spacing of the roots, until g changes sign, then closes the
    bracket in x by Illinois regula falsi to a few ulps.  N = 1 (nu = -1/2)
    is the clamped beam on (-1, 1), tan k + tanh k = 0.
    """
    if N < 1:
        raise InvalidArgument(f"nu1 needs a dimension N >= 1, got N={N}")
    nu = N / 2.0 - 1.0
    k = max(1.0, nu + 1.0)
    a = (k / 2.0) ** 4
    fa = _clamped_series(a, nu)
    while True:
        k += 0.5
        b = (k / 2.0) ** 4
        fb = _clamped_series(b, nu)
        if fb <= 0.0:
            break
        a, fa = b, fb
    side = 0
    while b - a > 4.0 * math.ulp(b):
        # kept two ulps inside the bracket, where rounding would put it on an end
        inside = 2.0 * math.ulp(b)
        c = min(max((a * fb - b * fa) / (fb - fa), a + inside), b - inside)
        fc = _clamped_series(c, nu)
        if fc > 0.0:
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
    return 8.0 * (a + b)


def mu1(profile: RadialField, lam: float, _solver: _ClampedSolver | None = None,
        _seed: tuple | None = None) -> EigenResult:
    """Smallest eigenvalue of the linearization at `profile` and voltage `lam`.

    That is the smallest mu of Delta^2 phi - 2 lam phi / (1-u)^3 = mu phi on
    radial phi with homogeneous clamped data, from the mixed pencil (see
    :func:`_pencil_eigen`), which factors J and then its shifted matrix.  A
    branch trace passes its solver, whose counters then include them, and
    as `_seed` the (value, interior eigenfunction values) of the mu1 solved
    before this one, or (nu1(N), None) at the lift.  The seeded solve factors
    J - value B, starts from that eigenfunction (from ones when None) and
    settles once at its own estimate, so it too makes two factorizations
    when it is kept.

    The result's error is absolute, about 1e-12 nu1 (see `EigenResult`), so
    near a fold mu1 keeps few relative digits: at N = 7, M = 4096 the last
    minimal-branch point's mu1 reads 1.074336e-6 unseeded and 1.073305e-6
    seeded, both converged.
    """
    u = profile.values
    if np.max(u) >= 1.0:
        raise InvalidArgument("profile touches the ceiling: the form is undefined")
    solver = _solver if _solver is not None else _ClampedSolver(profile.grid,
                                                                BoundaryData(0.0, 0.0))
    weight = 2.0 * lam / (1.0 - u[:-1]) ** 3
    seeded = None
    if _seed is not None:
        shift, start = _seed

        def seeded():
            return _inverse_iteration(solver, solver.factor_shifted(weight + shift), weight,
                                      shift, start=start)

    return _pencil_eigen(solver, weight, "inverse iteration, linearized mixed pencil",
                         seeded=seeded)


def _bisect_root(f, lo: float, hi: float) -> float:
    """Midpoint of the bracket of a sign change of f in [lo, hi] once its
    width is at most 1e-12 (plain bisection)."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def beam_eigenvalue_1d() -> float:
    """Oracle for nu1 at N=1: first even clamped-beam mode on (-1, 1).

    k solves tan(k) + tanh(k) = 0 in (pi/2, pi); nu1 = k^4.  Independent of
    the grid discretization (plain bisection on the characteristic equation).
    """
    k = _bisect_root(lambda k: math.tan(k) + math.tanh(k),
                     math.pi / 2 + 1e-9, math.pi - 1e-9)
    return k ** 4


def disk_eigenvalue_2d() -> float:
    """Oracle for nu1 at N=2: clamped unit disk, radially symmetric mode.

    k solves J0(k) I1(k) + I0(k) J1(k) = 0; nu1 = k^4.
    """
    from scipy.special import i0, i1, j0, j1

    k = _bisect_root(lambda k: j0(k) * i1(k) + i0(k) * j1(k), 2.0, 4.0)
    return k ** 4
