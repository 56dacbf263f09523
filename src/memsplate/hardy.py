"""Hardy-Rellich machinery: Bessel pairs, improved weights, and form checks.

A Bessel pair (V, W) on (0, 1) is a pair of radial weights for which the
weighted Hardy inequality int V |grad phi|^2 >= int W phi^2 holds; it does
exactly when the ODE

    y'' + ((N-1)/r + V'/V) y' + (W/V) y = 0

has a positive supersolution.  This module constructs the three
fourth-order weights used by the certificates module,

* HR1: H_N / r^4 with H_N = N^2 (N-4)^2 / 16,
* HR2: the two-term improvement with denominators (r^2 - r^(N/2+1)) and
  (r^2 - r^(N/2)),
* HR3 (N = 9 only): Q(r) (P(r) + (N-1)/r^2) built from explicit auxiliary
  functions phi and psi,

and provides proved supersolution and side-condition checks and a discrete
quadratic-form check.  The discrete check is the exact minimum of the form
gap over a 7-dimensional space of clamped polynomial profiles, a 7 x 7
symmetric eigensolve.

`_prove_expr_nonneg`, under the supersolution, side-condition and `hr` weight
checks, refutes a negative exact endpoint limit in no boxes or returns the
`intervals.ProofReport` of its numerator's proof, with the boxes of the
denominator's sign proof added; it does not sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exprs import Ratio
from .grid import BoundaryData, InvalidArgument, RadialGrid, build_grid
from .intervals import ProofReport
from .operators import _clamped_laplacians, hardy_rellich_constant
from .verify import prove_signomial_nonneg


def radial_laplacian(expr: Ratio, dim) -> Ratio:
    """expr'' + ((dim-1)/r) expr' (dim may be rational)."""
    d1 = expr.diff()
    return d1.diff() + Ratio.term(Fraction(dim) - 1, -1) * d1


# --------------------------------------------------------------------------
# weights


def hr_weight(variant: str, N: int) -> Ratio:
    """The Hardy-Rellich weight W(r) such that int (Delta phi)^2 >= int W phi^2."""
    variant = variant.upper()
    if variant == "HR1":
        if N < 5:
            raise InvalidArgument("HR1 weight requires N >= 5")
        return Ratio.term(hardy_rellich_constant(N), -4)
    if variant == "HR2":
        if N < 5:
            raise InvalidArgument("HR2 weight requires N >= 5")
        A = Fraction((N - 2) ** 2 * (N - 4) ** 2, 16)
        B = Fraction((N - 1) * (N - 4) ** 2, 4)
        half = Fraction(N, 2)
        d1 = Ratio.term(1, 2) - Ratio.term(1, half + 1)  # r^2 - r^(N/2+1)
        d2 = Ratio.term(1, 2) - Ratio.term(1, half)      # r^2 - r^(N/2)
        return Ratio(A) / (d1 * d2) + Ratio(B) / (Ratio.term(1, 2) * d2)
    if variant == "HR3":
        if N != 9:
            raise InvalidArgument("HR3 weight is defined for N = 9 only")
        P, Q = pq_functions()
        return Q * (P + Ratio.term(N - 1, -2))
    raise InvalidArgument(f"unknown weight variant {variant!r}")


def _phi_expr() -> Ratio:
    # r^(-7/2) + r - 19/10
    return Ratio.term(1, Fraction(-7, 2)) + Ratio.term(1, 1) + Fraction(-19, 10)


def _psi_expr() -> Ratio:
    # r^(-5/2) + 20 r^(-169/100) + 10/r + 10 r + 7 r^2 - 48
    return (Ratio.term(1, Fraction(-5, 2)) + Ratio.term(20, Fraction(-169, 100))
            + Ratio.term(10, -1) + Ratio.term(10, 1) + Ratio.term(7, 2) - 48)


def pq_functions() -> tuple[Ratio, Ratio]:
    """The N = 9 auxiliary ratios P = -Delta_9 phi / phi and Q = -Delta_7 psi / psi.

    phi(r) = r^(-7/2) + r - 1.9 (positive on (0,1], phi(1) = 0.1) and
    psi(r) = r^(-5/2) + 20 r^(-1.69) + 10/r + 10r + 7r^2 - 48 (positive on
    (0,1), psi(1) = 0).  Both numerators are positive, making P, Q > 0.
    """
    phi = _phi_expr()
    psi = _psi_expr()
    return -radial_laplacian(phi, 9) / phi, -radial_laplacian(psi, 7) / psi


# --------------------------------------------------------------------------
# Bessel pairs


@dataclass(frozen=True)
class BesselPairSpec:
    """Weights (V, W) of a candidate Bessel pair on (0, 1) in dimension N."""

    V: Ratio
    W: Ratio
    N: int


# --------------------------------------------------------------------------
# symbolic sign checks


def _prove_expr_nonneg(expr: Ratio) -> ProofReport:
    """Prove expr >= 0 on (0,1): exact end limits first, then the denominator's sign."""
    num, den = expr.num, expr.den
    if expr.leading()[1] < 0:
        return ProofReport(False, reason="negative limit at r=0")
    den1 = den.value_at_one()
    if den1 != 0 and num.value_at_one() / den1 < 0:
        return ProofReport(False, reason="negative limit at r=1")
    pos = prove_signomial_nonneg(den)
    if pos.proved:
        rep = prove_signomial_nonneg(num)
        rep.boxes += pos.boxes
        return rep
    neg = prove_signomial_nonneg(-den)
    if neg.proved:
        rep = prove_signomial_nonneg(-num)
        rep.boxes += pos.boxes + neg.boxes
        return rep
    return ProofReport(False, boxes=pos.boxes + neg.boxes,
                       reason="denominator sign undetermined")


@dataclass
class SupersolutionReport:
    """y > 0 and L[y] <= 0 for the Bessel-pair operator L."""

    positivity: ProofReport
    inequality: ProofReport

    @property
    def confirmed(self) -> bool:
        return self.positivity.proved and self.inequality.proved


def supersolution_check(y: Ratio, spec: BesselPairSpec) -> SupersolutionReport:
    """Verify y is a positive supersolution: y > 0 and L[y] <= 0 on (0,1).

    Positivity is proved as y >= 0 with y not identically zero (the strong
    maximum principle then makes y > 0 on (0,1)); y = 0 solves every L[y] = 0
    and decides nothing.
    """
    V, W, N = spec.V, spec.W, spec.N
    yp = y.diff()
    L = yp.diff() + (Ratio.term(N - 1, -1) + V.diff() / V) * yp + W / V * y
    return SupersolutionReport(
        positivity=(_prove_expr_nonneg(y) if y.num
                    else ProofReport(False, reason="identically zero")),
        inequality=_prove_expr_nonneg(-L),
    )


@dataclass
class SideConditionsReport:
    """The integral and pointwise hypotheses on a candidate pair (V, W)."""

    inverse_integral_diverges: bool
    weight_integral_converges: bool
    leading_power: Fraction
    critical: bool
    pointwise: ProofReport

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
    p, c = V.leading()
    if c <= 0:
        raise InvalidArgument("V must be positive near r = 0")
    s_inv = -(N - 1) - p   # integrand power of 1/(r^(N-1) V)
    s_fwd = (N - 1) + p    # integrand power of r^(N-1) V
    cond4 = (W - 2 * V / Ratio.term(1, 2) + 2 * V.diff() / Ratio.term(1, 1)
             - V.diff().diff())
    return SideConditionsReport(
        inverse_integral_diverges=s_inv <= -1,
        weight_integral_converges=s_fwd > -1,
        leading_power=p,
        critical=(s_inv == -1 or s_fwd == -1),
        pointwise=_prove_expr_nonneg(cond4),
    )


# --------------------------------------------------------------------------
# discrete quadratic-form checks


#: relative gap below which `discrete_form_check` counts a violation
FORM_CHECK_TOL = 1e-8


@dataclass
class FormCheckReport:
    """The minimum of int (Delta phi)^2 - int W phi^2 over int phi^2 on the
    discrete trial space of `discrete_form_check`, with its evidence.

    `coefficients` are the c_k of the minimizing phi = (1-r)^2 sum c_k r^k,
    scaled to int phi^2 = 1 in the grid's quadrature; `residual` is the
    relative difference between the gap evaluated directly on that phi and
    the eigenvalue `min_relative_gap`.  The check passes when the minimum is
    at least -`tol`, the module constant `FORM_CHECK_TOL`.
    """

    N: int
    min_relative_gap: float
    coefficients: np.ndarray
    residual: float
    tol = FORM_CHECK_TOL  # a class attribute, not a field

    @property
    def passed(self) -> bool:
        return self.min_relative_gap >= -self.tol


#: `discrete_form_check`'s trial space is spanned by (1 - r)^2 r^k, k < _FORM_TERMS
_FORM_TERMS = 7


def discrete_form_check(weight: Ratio, N: int,
                        grid: RadialGrid | None = None) -> FormCheckReport:
    """Exact minimum of the discrete form gap over clamped polynomial profiles.

    The trial space holds phi = (1 - r)^2 sum_k c_k r^k, k = 0..6, so
    phi(1) = phi'(1) = 0.  The gap int (Delta phi)^2 - int W phi^2, relative
    to int phi^2, is formed with the grid's quadrature, and its minimum over
    the space is the smallest eigenvalue of a 7 x 7 symmetric matrix.  The
    node at r = 0 is excluded from the weight quadrature (the integrand
    r^(N-1) W phi^2 vanishes there for N > 5 and the first cell is tiny).

    The monomial basis B is ill-conditioned (cond(B^T diag(m) B) is 1e11 to
    6e12), so it is orthonormalized in the mass m first: R from the QR of
    diag(sqrt m) B, C = B R^-1 and H = (LC)^T diag(q) LC - C^T diag(m W) C.
    C is formed from B, not as Q / sqrt(m): m ~ r^(N-1) is tiny at the origin
    nodes, and that division multiplies Q's rounding there, which moved the
    minimum by up to 6 %.

    The first term is a sum of squares, q the quadrature weights times
    r^(N-1) at all M nodes and LC = L C summed straight from the stencil
    triplets of L, the homogeneous clamped Laplacian, so the check loads no
    scipy module.  It avoids the cancellation of the plate form
    A = L^T diag(q) L, whose C^T A C moved the minima by 1e-10 to 4e-9
    relative to an exact solve of the same float64 data.  The report carries
    the minimizer and its `residual`, the eigensolve checked against the
    same form evaluated directly on it, not against that form's rounding.

    The plate form breaks the discrete Rellich inequality near the origin:
    with node 0 eliminated, the smallest theta of A phi = theta H_N
    diag(m/r^4) phi at M = 256 is 5.7e-8, 1.5e-11 and 5.2e-11 at N = 9, 12
    and 16 on gamma = 2 grids, where the continuum value is 1.  The check
    stays meaningful because its profiles are smooth polynomials and never
    excite the origin nodes; widen the trial space only with measured
    evidence.  The stability eigenvalues use the mixed pencil instead.
    """
    if grid is None:
        grid = build_grid(N, 512, 2.0)
    if grid.N != N:
        raise InvalidArgument("grid dimension does not match N")
    (w, (rows, cols)), _, _ = _clamped_laplacians(grid, BoundaryData(0.0, 0.0))
    q = grid.quad_weights() * grid.r ** (N - 1)
    m, r = q[:-1], grid.r[:-1]
    mw = np.zeros_like(r)
    mw[1:] = m[1:] * np.asarray(weight(r[1:]), dtype=float)

    B = ((1.0 - r) ** 2)[:, None] * r[:, None] ** np.arange(_FORM_TERMS)
    R = np.linalg.qr(np.sqrt(m)[:, None] * B, mode="r")
    C = np.linalg.solve(R.T, B.T).T
    LC = np.zeros((grid.M, _FORM_TERMS))
    np.add.at(LC, rows, w[:, None] * C[cols])
    H = LC.T @ (q[:, None] * LC) - C.T @ (mw[:, None] * C)
    values, vectors = np.linalg.eigh(0.5 * (H + H.T))
    value, v = float(values[0]), vectors[:, 0]
    phi = C @ v
    if phi[np.argmax(np.abs(phi))] < 0:
        v, phi = -v, -phi
    gap = (float(q @ (LC @ v) ** 2) - float(mw @ phi ** 2)) / float(m @ phi ** 2)
    return FormCheckReport(N=N, min_relative_gap=value,
                           coefficients=np.linalg.solve(R, v),
                           residual=abs(gap - value) / max(1.0, abs(value)))


def hr2_leading_identity(N: int) -> bool:
    """Exact identity: the r->0 coefficient of HR2 equals the HR1 constant."""
    A = Fraction((N - 2) ** 2 * (N - 4) ** 2, 16)
    B = Fraction((N - 1) * (N - 4) ** 2, 4)
    return A + B == hardy_rellich_constant(N)
