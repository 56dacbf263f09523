"""Subsolution certificates bounding the pull-in voltage from above.

The candidate family w_m = 1 - (3m/(3m-4)) r^(4/3) + (4/(3m-4)) r^m (m > 4/3)
satisfies w_m(1) = w_m'(1) = 0 exactly.  A dimension N is certified singular
by exhibiting lambda' and beta with

  (cond1)  Delta^2 w_m <= lambda' / (1 - w_m)^2        on (0,1),
  (cond2)  2 beta / (1 - w_m)^3 <= W(r)                on (0,1),

where W is a Hardy-Rellich weight (so cond2 implies the quadratic-form
inequality 2 beta int phi^2/(1-w)^3 <= int (Delta phi)^2), and beta >= lambda'.
Both conditions clear to signomial inequalities via
1 - w_m = r^(4/3) q(r) / (3m-4),  q(r) = 3m - 4 r^(m-4/3) >= 3m-4 > 0:

  cond1  <=>  lambda' (3m-4)^3 >= [3m lambda_bar + 4 c(m,N) r^(m-4/3)] q^2,
  cond2  <=>  W(r) r^4 q^3 / (3m-4)^3 >= 2 beta  (denominators cleared).

The sharpest admissible values are lambda' = sup of the cond1 ratio and
beta = inf of the cond2 ratio, enclosed rigorously on request.  One checker
serves both conditions on the infimum side: cond1 runs as the infimum of
-F = -F_num/F_den (sup F = -inf(-F)) and is negated back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprs import Prod, RadialExpr, Signomial, _frac, signomial_expr
from .grid import InvalidArgument
from .hardy import hr_weight
from .operators import hardy_rellich_constant, lambda_bar, power_bilaplacian_coeff
from .intervals import frac_bounds
from .verify import inf_enclosure, prove_signomial_nonneg, sampled_mins

_RIGOR_TIERS = ("sampled", "interval")


def _endpoint_limits(num: Signomial, den: Signomial):
    """Exact finite limits of num/den (den > 0 on (0,1)) at r -> 0+ and r -> 1-.

    The extrema of the ratios below are often attained only in these limits
    (the cond1 ratio at r -> 0, the cond2 ratio with the constant-over-r^4
    weight at r -> 1), so the sampled/point estimates alone systematically
    miss the sharp value; the limits are exact rationals and are folded in.
    Infinite or indeterminate limits are dropped.
    """
    lims = []
    pn, gn = num.factor_min_power()
    pd, gd = den.factor_min_power()
    if num and pn == pd:
        lims.append(gn.terms[Fraction(0)] / gd.terms[Fraction(0)])
    elif not num or pn > pd:
        lims.append(Fraction(0))
    n1, d1 = num.value_at_one(), den.value_at_one()
    if d1 != 0:
        lims.append(n1 / d1)
    return lims


def _check_m(m: Fraction) -> Fraction:
    m = _frac(m)
    if m <= Fraction(4, 3):
        raise InvalidArgument("the candidate requires m > 4/3 (3m - 4 > 0)")
    return m


def wm_signomial(m) -> Signomial:
    """w_m as an exact signomial."""
    m = _check_m(m)
    d = 3 * m - 4
    return Signomial({0: 1, Fraction(4, 3): Fraction(-3 * m, 1) / d, m: Fraction(4, 1) / d})


def q_signomial(m) -> Signomial:
    """q(r) = 3m - 4 r^(m - 4/3); 1 - w_m = r^(4/3) q / (3m - 4)."""
    m = _check_m(m)
    return Signomial({0: 3 * m, m - Fraction(4, 3): -4})


def wm_value(m, r):
    """w_m(r) for r in (0, 1]."""
    sig = wm_signomial(m)
    return float(sig(r)) if np.isscalar(r) else sig(r)


def wm_bilaplacian(m, N: int, r):
    """Delta^2 w_m = (3m/(3m-4)) lambda_bar r^(-8/3) + (4/(3m-4)) c(m,N) r^(m-4)."""
    m = _check_m(m)
    d = 3 * m - 4
    sig = Signomial({Fraction(-8, 3): 3 * m * lambda_bar(N) / d,
                     m - 4: 4 * power_bilaplacian_coeff(m, N) / d})
    return float(sig(r)) if np.isscalar(r) else sig(r)


@dataclass(frozen=True)
class CandidateW:
    """Certificate candidate: profile parameter m and the pair (lambda', beta)."""

    m: Fraction
    N: int
    lam_prime: Fraction
    beta: Fraction
    hr_variant: str

    def __post_init__(self):
        object.__setattr__(self, "m", _check_m(self.m))
        # keep lambda'/beta exact: rounding 27*lambda_bar down by one ulp
        # makes the cleared cond1 claim negative in the limit r -> 0
        object.__setattr__(self, "lam_prime", _frac(self.lam_prime))
        object.__setattr__(self, "beta", _frac(self.beta))
        v = self.hr_variant.upper()
        object.__setattr__(self, "hr_variant", v)
        if v not in ("HR1", "HR2", "HR3"):
            raise InvalidArgument(f"unknown weight variant {self.hr_variant!r}")
        if v == "HR3" and self.N != 9:
            raise InvalidArgument("the HR3 weight is defined for N = 9 only")
        if v in ("HR1", "HR2") and self.N < 5:
            raise InvalidArgument("HR1/HR2 weights require N >= 5")


@dataclass
class CondReport:
    """One certified pointwise condition on (0,1)."""

    margin: float          # sampled min of the condition's slack
    argmin: float
    sharpest: float        # sampled sup F (cond1) / inf G (cond2)
    sharpest_enclosure: tuple | None
    proved: bool | None    # interval tier only: the cleared claim holds on (0,1)
    rigor: str
    boxes: int | None = None  # interval tier: boxes the cleared-claim proof evaluated
    notes: list = field(default_factory=list)


def _cond1_parts(m: Fraction, N: int):
    """Signomials (F_num, F_den) with cond1 <=> lambda' >= F_num/F_den."""
    d = 3 * m - 4
    q = q_signomial(m)
    fnum = Signomial({0: 3 * m * lambda_bar(N),
                      m - Fraction(4, 3): 4 * power_bilaplacian_coeff(m, N)}) * q * q
    fden = Signomial.constant(d ** 3)
    return fnum, fden


def _check_inf(label: str, claim: Signomial, slack_den: Signomial,
               num: Signomial, den: Signomial, rigor: str) -> CondReport:
    """Shared body of the two checks, on the infimum side.

    The margin is the sampled minimum of claim/slack_den, and `sharpest` the
    sampled inf of num/den folded with its exact endpoint limits.  The
    interval tier proves den > 0 and then the cleared claim, and encloses
    the inf of num/den.  An exact endpoint limit caps the enclosure's upper
    bound, since the limit is approached from inside (0,1).  It raises the
    lower bound when num - limit * den >= 0 is proved.
    """
    if rigor not in _RIGOR_TIERS:
        raise InvalidArgument(f"unknown rigor tier {rigor!r}")
    (margin, argmin), (sharp, arg_sharp) = sampled_mins([(claim, slack_den),
                                                         (num, den)])
    lims = _endpoint_limits(num, den)
    end = min(lims) if lims else None
    if end is not None:
        sharp = min(sharp, float(end))
    notes = []
    proved, enc, boxes = None, None, None
    if rigor == "interval":
        dpos = prove_signomial_nonneg(den)
        if not dpos.proved:
            notes.append(f"{label} denominator sign not proved: {dpos.reason}")
            proved = False
        else:
            rep = prove_signomial_nonneg(claim)
            proved, boxes = rep.proved, rep.boxes
            if not rep.proved:
                notes.append(f"{label} claim not proved: {rep.reason}")
                if rep.counterexample is not None:
                    notes.append(f"counterexample near r={rep.counterexample}")
        lo, hi, _ = inf_enclosure(num, den, argmin=arg_sharp)
        if end is not None:
            cl, ch = frac_bounds(end)
            hi = min(hi, ch)
            if prove_signomial_nonneg(num - Signomial.constant(end) * den).proved:
                lo = max(lo, cl)
        enc = (lo, hi)
    return CondReport(margin=margin, argmin=argmin, sharpest=sharp,
                      sharpest_enclosure=enc, proved=proved, rigor=rigor, boxes=boxes,
                      notes=notes)


def check_cond1(candidate: CandidateW, rigor: str = "sampled") -> CondReport:
    """Verify Delta^2 w_m <= lambda'/(1-w_m)^2 and compute the sharpest lambda'.

    The slack lambda'/(1-w)^2 - Delta^2 w equals
    [lambda'(3m-4)^3 - F_num] / [(3m-4) r^(8/3) q^2] with a positive
    denominator, so its sign is that of the cleared numerator.  The reported
    margin is the sampled minimum of the slack itself; the interval tier
    proves the cleared numerator nonnegative.  The sharpest lambda' is
    sup F = -inf(-F), so the shared infimum check runs on -F_num / F_den
    and its value and enclosure are negated back.
    """
    m, N = candidate.m, candidate.N
    d = 3 * m - 4
    fnum, fden = _cond1_parts(m, N)
    claim = Signomial.constant(_frac(candidate.lam_prime) * d ** 3) - fnum
    slack_den = Signomial({Fraction(8, 3): d}) * q_signomial(m) ** 2
    rep = _check_inf("cond1", claim, slack_den, -fnum, fden, rigor)
    rep.sharpest = -rep.sharpest
    if rep.sharpest_enclosure is not None:
        lo, hi = rep.sharpest_enclosure
        rep.sharpest_enclosure = (-hi, -lo)
    if rep.argmin > 1 - 1e-4:
        rep.notes.insert(0, "boundary-limit: the slack minimizer sits at r -> 1")
    return rep


def _cond2_parts(candidate: CandidateW, weight: RadialExpr):
    """Signomials (G_num, G_den) with cond2 <=> beta <= G_num/G_den, G_den > 0."""
    m = candidate.m
    d = 3 * m - 4
    one_minus_w_cubed = Signomial({4: Fraction(1, 1) / d ** 3}) * q_signomial(m) ** 3
    half = Prod(weight, signomial_expr(one_minus_w_cubed))
    num, den = half.as_ratio()
    # G = W (1-w)^3 / 2
    return num, den * 2


def check_cond2(candidate: CandidateW, weight: RadialExpr | None = None,
                rigor: str = "sampled") -> CondReport:
    """Verify 2 beta/(1-w_m)^3 <= W(r) and compute the sharpest beta.

    The slack W(1-w)^3/2 - beta clears to G_num - beta G_den over the
    positive denominator G_den; the interval tier proves both the
    denominator sign and the cleared claim.
    """
    if weight is None:
        weight = hr_weight(candidate.hr_variant, candidate.N)
    num, den = _cond2_parts(candidate, weight)
    claim = num - Signomial.constant(_frac(candidate.beta)) * den
    return _check_inf("cond2", claim, den, num, den, rigor)


# --------------------------------------------------------------------------
# per-dimension selection (the summary table)

_TABLE_MIDDLE = {
    10: (450, 487),
    11: (560, 739),
    12: (680, 1071),
    13: (802, 1495),
    14: (940, 2026),
    15: (1100, 2678),
    16: (1260, 3469),
}

# For N = 9 the source data is inconsistent (366 / 366.5 / 368.5 and a
# "723 > 2 x 366" comparison that is arithmetically false); the computed
# sharpest beta for (m = 2.8, HR3) is ~366.9, which supports beta = 366.5
# and refutes 368.5.  Pass/Fail is always decided against computed values.
_N9_BETA_CLAIMS = (366.5, 368.5, 723 / 2)


def table_candidate(N: int) -> CandidateW:
    """The (m, lambda', beta, variant) selection for dimension N >= 9."""
    if N < 9:
        raise InvalidArgument("certificates are defined for N >= 9")
    if N == 9:
        return CandidateW(Fraction(14, 5), 9, Fraction(366), Fraction(733, 2), "HR3")
    if N <= 16:
        lamp, beta = _TABLE_MIDDLE[N]
        return CandidateW(Fraction(3), N, Fraction(lamp), Fraction(beta), "HR2")
    if N <= 30:
        h2 = hardy_rellich_constant(N) / 2
        return CandidateW(Fraction(3), N, h2, h2, "HR1")
    return CandidateW(Fraction(2), N, 27 * lambda_bar(N),
                      hardy_rellich_constant(N) / 2, "HR1")


@dataclass
class CertificateReport:
    """Certification outcome for one dimension."""

    candidate: CandidateW
    cond1: CondReport
    cond2: CondReport
    verdict: str            # "Pass" | "Fail"
    sharpest_lam_prime: float
    sharpest_beta: float
    rigor: str
    notes: list = field(default_factory=list)


_SAMPLED_TOL = 1e-9


def _margin_ok(rep: CondReport, scale: float) -> bool:
    if rep.rigor == "interval":
        return bool(rep.proved)
    return rep.margin >= -_SAMPLED_TOL * max(1.0, scale)


def certify_dimension(N: int, candidate: CandidateW | None = None,
                      rigor: str = "interval") -> CertificateReport:
    """Run both conditions for the dimension's candidate and decide Pass/Fail.

    Pass requires both margins nonnegative (interval tier: the cleared claims
    proved) and the ordering beta > lambda', with equality allowed only in
    the exact boundary case beta = lambda' = H_N/2.
    """
    if candidate is None:
        candidate = table_candidate(N)
    if candidate.N != N:
        raise InvalidArgument("candidate dimension does not match N")
    c1 = check_cond1(candidate, rigor=rigor)
    c2 = check_cond2(candidate, rigor=rigor)
    notes = []
    h2 = hardy_rellich_constant(N) / 2
    ordering = (candidate.beta > candidate.lam_prime
                or (candidate.beta == candidate.lam_prime == h2))
    if not ordering:
        notes.append("ordering beta >= lambda' fails")
    ok = (_margin_ok(c1, abs(float(candidate.lam_prime)))
          and _margin_ok(c2, abs(float(candidate.beta))) and ordering)
    if N == 9:
        supported = [b for b in _N9_BETA_CLAIMS if b <= c2.sharpest]
        notes.append(
            "inconsistent source data for N=9 (beta quoted as 366.5, 368.5, "
            f"and 723/2): computed sharpest beta {c2.sharpest:.4f} supports "
            f"{supported} and refutes the rest; verdict uses computed values")
    return CertificateReport(candidate=candidate, cond1=c1, cond2=c2,
                             verdict="Pass" if ok else "Fail",
                             sharpest_lam_prime=c1.sharpest,
                             sharpest_beta=c2.sharpest, rigor=rigor, notes=notes)


def threshold_relation(N: int):
    """Exact comparison 2 lambda_bar_N <= H_N; holds precisely for N >= 9."""
    if N < 5:
        raise InvalidArgument("the threshold relation is considered for N >= 5")
    two_lb = 2 * lambda_bar(N)
    hn = hardy_rellich_constant(N)
    return two_lb, hn, two_lb <= hn


def table1_rows(dims=None, rigor: str = "sampled") -> list[dict]:
    """Reproduce the per-dimension summary with computed sharpest values."""
    if dims is None:
        dims = list(range(9, 17)) + [17, 20, 30, 31, 40]
    rows = []
    for N in dims:
        rep = certify_dimension(N, rigor=rigor)
        cand = rep.candidate
        row = {
            "N": N,
            "m": float(cand.m),
            "variant": cand.hr_variant,
            "lam_prime_given": float(cand.lam_prime),
            "lam_prime_computed": rep.sharpest_lam_prime,
            "beta_given": float(cand.beta),
            "beta_computed": rep.sharpest_beta,
            "verdict": rep.verdict,
        }
        if N == 9:
            row["note"] = ("source values 366/366.5/368.5 are mutually "
                           "inconsistent; computed sharpest values decide")
        rows.append(row)
    return rows
