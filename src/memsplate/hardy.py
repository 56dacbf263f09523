"""Hardy-Rellich machinery: Bessel pairs, improved weights, and form checks.

A Bessel pair (V, W) on (0, 1) is a pair of radial weights for which the ODE

    y'' + ((N-1)/r + V'/V) y' + (W/V) y = 0

has a positive solution; it encodes the weighted Hardy inequality
int V |grad phi|^2 >= int W phi^2.  This module constructs the three
fourth-order weights used by the certificates module,

* HR1: H_N / r^4 with H_N = N^2 (N-4)^2 / 16,
* HR2: the two-term improvement with denominators (r^2 - r^(N/2+1)) and
  (r^2 - r^(N/2)),
* HR3 (N = 9 only): Q(r) (P(r) + (N-1)/r^2) built from explicit auxiliary
  functions phi and psi,

and provides ODE-level and discrete quadratic-form verification tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprs import Const, Power, Prod, Quot, RadialExpr, Sum
from .grid import InvalidArgument, RadialGrid, build_grid
from .operators import bilaplacian_form, hardy_rellich_constant
from .verify import prove_signomial_nonneg, sampled_min


def radial_laplacian(expr: RadialExpr, dim) -> RadialExpr:
    """expr'' + ((dim-1)/r) expr' as an expression tree (dim may be rational)."""
    d1 = expr.diff()
    return Sum((d1.diff(), Prod(Power(Fraction(dim) - 1, -1), d1)))


# --------------------------------------------------------------------------
# weights


def hr_weight(variant: str, N: int) -> RadialExpr:
    """The Hardy-Rellich weight W(r) such that int (Delta phi)^2 >= int W phi^2."""
    variant = variant.upper()
    if variant == "HR1":
        if N < 5:
            raise InvalidArgument("HR1 weight requires N >= 5")
        return Power(hardy_rellich_constant(N), -4)
    if variant == "HR2":
        if N < 5:
            raise InvalidArgument("HR2 weight requires N >= 5")
        A = Fraction((N - 2) ** 2 * (N - 4) ** 2, 16)
        B = Fraction((N - 1) * (N - 4) ** 2, 4)
        half = Fraction(N, 2)
        d1 = Power(1, 2) - Power(1, half + 1)  # r^2 - r^(N/2+1)
        d2 = Power(1, 2) - Power(1, half)      # r^2 - r^(N/2)
        return Quot(Const(A), Prod(d1, d2)) + Quot(Const(B), Prod(Power(1, 2), d2))
    if variant == "HR3":
        if N != 9:
            raise InvalidArgument("HR3 weight is defined for N = 9 only")
        P, Q = pq_functions(N)
        return Prod(Q, Sum((P, Power(N - 1, -2))))
    raise InvalidArgument(f"unknown weight variant {variant!r}")


def _phi_expr() -> RadialExpr:
    # r^(-7/2) + r - 19/10
    return Sum((Power(1, Fraction(-7, 2)), Power(1, 1), Const(Fraction(-19, 10))))


def _psi_expr() -> RadialExpr:
    # r^(-5/2) + 20 r^(-169/100) + 10/r + 10 r + 7 r^2 - 48
    return Sum((Power(1, Fraction(-5, 2)), Power(20, Fraction(-169, 100)),
                Power(10, -1), Power(10, 1), Power(7, 2), Const(-48)))


def pq_functions(N: int = 9) -> tuple[RadialExpr, RadialExpr]:
    """The auxiliary ratios P = -Delta_9 phi / phi and Q = -Delta_7 psi / psi.

    phi(r) = r^(-7/2) + r - 1.9 (positive on (0,1], phi(1) = 0.1) and
    psi(r) = r^(-5/2) + 20 r^(-1.69) + 10/r + 10r + 7r^2 - 48 (positive on
    (0,1), psi(1) = 0).  Both numerators are positive, making P, Q > 0.
    """
    if N != 9:
        raise InvalidArgument("the P, Q pair is defined for N = 9 only")
    phi = _phi_expr()
    psi = _psi_expr()
    P = Quot(-radial_laplacian(phi, N), phi)
    Q = Quot(-radial_laplacian(psi, N - 2), psi)
    return P, Q


# --------------------------------------------------------------------------
# Bessel-pair ODE


@dataclass(frozen=True)
class BesselPairSpec:
    """Weights (V, W) of a candidate Bessel pair on (0, R) in dimension N."""

    V: RadialExpr
    W: RadialExpr
    N: int
    R: float = 1.0


@dataclass
class PositivityReport:
    """Outcome of integrating the Bessel-pair ODE and tracking the sign of y."""

    positive_on_interval: bool
    first_zero: float | None
    start_radius: float
    start_description: str
    reached: float
    seed_residual: float | None = None
    notes: list = field(default_factory=list)


def _leading(expr: RadialExpr) -> tuple[Fraction, Fraction]:
    """(power, coefficient) of the leading term of expr as r -> 0+."""
    num, den = expr.as_ratio()
    if not num.terms:
        return Fraction(0), Fraction(0)
    pn, gn = num.factor_min_power()
    pd, gd = den.factor_min_power()
    return pn - pd, gn.terms[Fraction(0)] / gd.terms[Fraction(0)]


def bessel_ode_positive(spec: BesselPairSpec, y0_behavior: RadialExpr | None = None,
                        r0: float = 1e-6, rtol: float = 1e-10) -> PositivityReport:
    """Track sign changes of solutions of y'' + ((N-1)/r + V'/V) y' + (W/V) y = 0.

    Initial data at r0 comes from `y0_behavior` when given (a candidate
    solution as an expression tree); otherwise from the dominant root of the
    indicial equation of the regular singular point at 0.  When W/V decays
    faster than r^(-2), the origin is irregular and no Frobenius start
    exists; a flat start is used and noted.

    The integration uses the Pruefer phase theta (y = rho sin theta,
    y' = rho cos theta), whose equation
    theta' = cos^2 + p sin cos + q sin^2 is scalar and magnitude-free:
    direct (y, y') integration loses the sign of solutions that decay many
    orders of magnitude (e.g. r^(1-N/2) over (1e-6, 1)).  Zeros of y are
    upward crossings of theta through multiples of pi.
    """
    from scipy.integrate import solve_ivp

    V, W, N, R = spec.V, spec.W, spec.N, spec.R
    Vr = V.diff()
    notes = []

    def p_of(r):
        return (N - 1) / r + float(Vr(r)) / float(V(r))

    def q_of(r):
        return float(W(r)) / float(V(r))

    seed_residual = None
    if y0_behavior is not None:
        y = y0_behavior
        yp = y.diff()
        theta0 = math.atan2(float(y(r0)), float(yp(r0)))
        desc = "seeded from candidate solution"
        # residual of the candidate along the trajectory, relative to the
        # magnitude of the individual ODE terms
        rr = np.linspace(max(r0, 1e-4), R - 1e-4, 400)
        t1 = np.asarray(yp.diff()(rr), dtype=float)
        t2 = ((N - 1) / rr + np.asarray(Vr(rr), float) / np.asarray(V(rr), float)) * np.asarray(yp(rr), float)
        t3 = np.asarray(W(rr), float) / np.asarray(V(rr), float) * np.asarray(y(rr), float)
        seed_residual = float(np.max(np.abs(t1 + t2 + t3) / (np.abs(t1) + np.abs(t2) + np.abs(t3) + 1.0)))
    else:
        pv, _ = _leading(V)
        pq, w0 = _leading(Quot(W, V))
        a = N - 1 + pv
        if pq < -2:
            notes.append("irregular singular point at r=0 (W/V stronger than r^-2); flat start")
            theta0, desc = 0.5 * math.pi, "flat start y=1"
        else:
            c = w0 if pq == -2 else Fraction(0)
            # indicial equation s(s-1) + a s + c = 0
            disc = float((a - 1) ** 2) / 4.0 - float(c)
            if disc < 0:
                notes.append("complex indicial roots: oscillatory near r=0")
                theta0, desc = 0.5 * math.pi, "flat start y=1 (oscillatory indicial)"
            else:
                s = (1.0 - float(a)) / 2.0 + math.sqrt(disc)
                theta0 = math.atan2(r0 ** s, s * r0 ** (s - 1.0)) if s != 0 else 0.5 * math.pi
                desc = f"Frobenius branch r^{s:.6g}"

    def rhs(r, th):
        sn, cs = math.sin(th[0]), math.cos(th[0])
        return [cs * cs + p_of(r) * sn * cs + q_of(r) * sn * sn]

    # theta starts inside (k pi, (k+1) pi); y vanishes when theta reaches the
    # next multiple of pi (theta' = 1 there, so crossings are upward)
    k = math.floor(theta0 / math.pi)
    target = (k + 1) * math.pi

    crossing = lambda r, th: th[0] - target
    crossing.terminal = True
    crossing.direction = 1.0
    sol = solve_ivp(rhs, (r0, R), [theta0], method="LSODA", rtol=rtol, atol=1e-12,
                    events=crossing)
    zeros = sol.t_events[0]
    first_zero = float(zeros[0]) if len(zeros) else None
    if not sol.success and sol.status != 1:
        notes.append(f"integrator stopped at r={sol.t[-1]:.6g}: {sol.message}")
    positive = first_zero is None or first_zero >= R * (1 - 1e-9)
    return PositivityReport(
        positive_on_interval=bool(positive and (sol.success or sol.status == 1)),
        first_zero=first_zero,
        start_radius=r0,
        start_description=desc,
        reached=float(sol.t[-1]),
        seed_residual=seed_residual,
        notes=notes,
    )


# --------------------------------------------------------------------------
# symbolic sign checks


@dataclass
class RatioSignReport:
    """Sign verification of an expression given as a ratio of signomials."""

    proved: bool
    sampled_min: float
    sampled_argmin: float
    reason: str = ""
    counterexample: float | None = None


def _prove_expr_nonneg(expr: RadialExpr) -> RatioSignReport:
    """Prove expr >= 0 on (0,1): clear the denominator, fix its sign, prove."""
    num, den = expr.as_ratio()
    smin, amin = sampled_min(num, den)
    if prove_signomial_nonneg(den).proved:
        rep = prove_signomial_nonneg(num)
    elif prove_signomial_nonneg(-den).proved:
        rep = prove_signomial_nonneg(-num)
    else:
        return RatioSignReport(False, smin, amin, reason="denominator sign undetermined")
    return RatioSignReport(rep.proved, smin, amin, reason=rep.reason,
                           counterexample=rep.counterexample)


@dataclass
class SupersolutionReport:
    """y > 0 and L[y] <= 0 for the Bessel-pair operator L."""

    positivity: RatioSignReport
    inequality: RatioSignReport

    @property
    def confirmed(self) -> bool:
        return self.positivity.proved and self.inequality.proved


def supersolution_check(y: RadialExpr, spec: BesselPairSpec) -> SupersolutionReport:
    """Verify y is a positive supersolution: y > 0 and L[y] <= 0 on (0,1)."""
    V, W, N = spec.V, spec.W, spec.N
    yp = y.diff()
    L = Sum((yp.diff(),
             Prod(Sum((Power(N - 1, -1), Quot(V.diff(), V))), yp),
             Prod(Quot(W, V), y)))
    return SupersolutionReport(
        positivity=_prove_expr_nonneg(y),
        inequality=_prove_expr_nonneg(-L),
    )


@dataclass
class SideConditionsReport:
    """The integral and pointwise hypotheses on a candidate pair (V, W)."""

    inverse_integral_diverges: bool
    weight_integral_converges: bool
    leading_power: Fraction
    critical: bool
    pointwise: RatioSignReport

    @property
    def all_hold(self) -> bool:
        return (self.inverse_integral_diverges and self.weight_integral_converges
                and self.pointwise.proved)


def gm1_side_conditions(spec: BesselPairSpec) -> SideConditionsReport:
    """Check int_0 dr/(r^(N-1) V) = inf, int_0 r^(N-1) V dr < inf, and
    W - 2V/r^2 + 2V'/r - V'' >= 0 on (0,1).

    The integrals are decided exactly from the leading power p of V at 0:
    the first diverges iff N - 1 + p >= 1 and the second converges iff
    N - 1 + p > -1.  p making either integrand exactly r^(-1) is flagged as
    critical (the divergence is logarithmic).
    """
    V, W, N = spec.V, spec.W, spec.N
    p, c = _leading(V)
    if c <= 0:
        raise InvalidArgument("V must be positive near r = 0")
    s_inv = -(N - 1) - p   # integrand power of 1/(r^(N-1) V)
    s_fwd = (N - 1) + p    # integrand power of r^(N-1) V
    cond4 = Sum((W, Prod(Const(-2), Quot(V, Power(1, 2))),
                 Prod(Const(2), Quot(V.diff(), Power(1, 1))),
                 -V.diff().diff()))
    return SideConditionsReport(
        inverse_integral_diverges=s_inv <= -1,
        weight_integral_converges=s_fwd > -1,
        leading_power=p,
        critical=(s_inv == -1 or s_fwd == -1),
        pointwise=_prove_expr_nonneg(cond4),
    )


# --------------------------------------------------------------------------
# discrete quadratic-form checks


@dataclass
class FormCheckReport:
    """Discrete test of int (Delta phi)^2 >= int W phi^2 on random clamped phi."""

    variant: str
    N: int
    trials: int
    min_relative_gap: float
    violations: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_clamped(rng, r: np.ndarray) -> np.ndarray:
    """Smooth random radial function with phi(1) = phi'(1) = 0."""
    coeffs = rng.standard_normal(7)
    poly = sum(c * r ** k for k, c in enumerate(coeffs))
    return (1.0 - r) ** 2 * poly


def discrete_form_check(variant: str, N: int, grid: RadialGrid | None = None,
                        trials: int = 1000, seed: int = 0,
                        tol: float = 1e-8) -> FormCheckReport:
    """Check the discrete quadratic-form inequality on random clamped profiles.

    For each trial phi the gap int (Delta phi)^2 - int W phi^2 is formed with
    the grid's quadrature; a violation is a gap below -tol * int phi^2.  The
    node at r = 0 is excluded from the weight quadrature (the integrand
    r^(N-1) W phi^2 vanishes there for N > 5 and the first cell is tiny).
    """
    if grid is None:
        grid = build_grid(N, 512, 2.0)
    if grid.N != N:
        raise InvalidArgument("grid dimension does not match N")
    W = hr_weight(variant, N)
    A, m = bilaplacian_form(grid)
    A = A.astype(np.float64)
    r_int = grid.r[: len(m)]
    w_vals = np.zeros_like(r_int)
    w_vals[1:] = np.asarray(W(r_int[1:]), dtype=float)

    rng = np.random.default_rng(seed)
    min_gap, violations = math.inf, 0
    for _ in range(trials):
        phi = _random_clamped(rng, grid.r)[: len(m)]
        lhs = float(phi @ (A @ phi))
        rhs = float(np.sum(m * w_vals * phi ** 2))
        mass = float(np.sum(m * phi ** 2))
        gap = (lhs - rhs) / mass
        min_gap = min(min_gap, gap)
        if gap < -tol:
            violations += 1
    return FormCheckReport(variant=variant.upper(), N=N, trials=trials,
                           min_relative_gap=min_gap, violations=violations,
                           tol=tol)


def hr2_leading_identity(N: int) -> bool:
    """Exact identity: the r->0 coefficient of HR2 equals the HR1 constant."""
    A = Fraction((N - 2) ** 2 * (N - 4) ** 2, 16)
    B = Fraction((N - 1) * (N - 4) ** 2, 4)
    return A + B == hardy_rellich_constant(N)
