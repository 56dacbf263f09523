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
beta = inf of the cond2 ratio, each enclosed rigorously.  One checker
serves both conditions on the infimum side: cond1 runs as the infimum of
-F = -F_num/F_den (sup F = -inf(-F)) and is negated back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprs import Ratio, Signomial, _frac
from .grid import InvalidArgument
from .hardy import hr_weight
from .operators import hardy_rellich_constant, lambda_bar, power_bilaplacian_coeff
from .verify import inf_enclosure, prove_signomial_nonneg, sampled_mins


def _endpoint_limit(num: Signomial, den: Signomial):
    """The smaller exact finite limit of num/den (den > 0) at r -> 0+ and r -> 1-, or None.

    The extrema of the ratios below are often attained only in these limits
    (the cond1 ratio at r -> 0, the cond2 ratio with the constant-over-r^4
    weight at r -> 1), so the sampled estimates alone systematically miss
    the sharp value; the limits are exact rationals and are folded in.
    Infinite or indeterminate limits are dropped.
    """
    lims = []
    p, c = Ratio(num, den).leading()
    if p >= 0:
        lims.append(c if p == 0 else Fraction(0))
    n1, d1 = num.value_at_one(), den.value_at_one()
    if d1 != 0:
        lims.append(n1 / d1)
    return min(lims, default=None)


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
    sharpest_enclosure: tuple | None  # None when the denominator is not proved
    proved: bool           # the cleared claim is proved on (0,1)
    #: boxes the cleared-claim proof evaluated; 0 when a level the enclosure
    #: search proved implies the claim (a note says so), None when the
    #: denominator is not proved and no claim proof runs
    boxes: int | None
    levels: int            # level proofs of the enclosure search
    sampled_points: int    # grid points the sampling pass evaluated
    notes: list = field(default_factory=list)


def _cond1_parts(m: Fraction, N: int):
    """Signomials (F_num, F_den) with cond1 <=> lambda' >= F_num/F_den."""
    d = 3 * m - 4
    q = q_signomial(m)
    fnum = Signomial({0: 3 * m * lambda_bar(N),
                      m - Fraction(4, 3): 4 * power_bilaplacian_coeff(m, N)}) * q * q
    fden = Signomial.constant(d ** 3)
    return fnum, fden


def _require_floats(label: str, *sigs: Signomial) -> None:
    """Reject a condition whose signomials have a coefficient or exponent
    with no finite float: the sampling pass and the prover use floats."""
    for sig in sigs:
        for p, c in sig.terms.items():
            try:
                float(p), float(c)
            except OverflowError:
                raise InvalidArgument(
                    f"the {label} signomials of this candidate leave the float "
                    "range (a coefficient or exponent has no finite float)") from None


def _check_inf(label: str, claim: Signomial, slack_den: Signomial,
               num: Signomial, den: Signomial, level: Fraction) -> CondReport:
    """Shared body of the two checks, on the infimum side.

    `claim` is num - level*den, built by the caller in its own term order,
    which the sampled margin's float sums follow.
    The margin is the sampled minimum of claim/slack_den, and `sharpest` the
    sampled inf of num/den folded with its exact endpoint limits; one
    sampling pass gives both, and the report keeps its count of evaluated
    grid points.  The proof then shows den > 0, encloses the inf of num/den
    with one level search whose first level is the smaller endpoint limit
    (see `inf_enclosure`), and settles the cleared claim.  When
    den > 0 is not proved, no level proof runs: the report has no enclosure
    and no claim proof, and its notes say why.  When the search proved a
    level lo >= level (compared exactly), the claim follows from
    num - level*den = (num - lo*den) + (lo - level)*den: it is proved in no
    boxes of its own, and a note names lo and level.  Otherwise the claim
    gets its own proof.  An enclosure with no proved level has the lower
    bound -inf and says so in a note.
    """
    _require_floats(label, claim, slack_den, num, den)
    mins = sampled_mins([(claim, slack_den), (num, den)])
    (margin, argmin), (sharp, arg_sharp) = mins
    end = _endpoint_limit(num, den)
    if end is not None:
        sharp = min(sharp, float(end))
    notes = []
    enc, boxes, levels = None, None, 0
    dpos = prove_signomial_nonneg(den)
    if not dpos.proved:
        proved = False
        notes += [f"{label} denominator sign not proved: {dpos.reason}",
                  f"{label} sharpest value not enclosed: no level is proved "
                  "without the denominator sign"]
    else:
        lo, hi, _, levels = inf_enclosure(num, den, argmin=arg_sharp, limit=end)
        enc = (lo, hi)
        if lo > -np.inf and Fraction(lo) >= level:
            proved, boxes = True, 0
            notes.append(f"{label} claim implied by the proved level {lo!r} "
                         f">= the claim's level {level}")
        else:
            rep = prove_signomial_nonneg(claim)
            proved, boxes = rep.proved, rep.boxes
            if not rep.proved:
                notes.append(f"{label} claim not proved: {rep.reason}")
                if rep.counterexample is not None:
                    notes.append(f"counterexample near r={rep.counterexample}")
        if lo == -np.inf:
            notes.append(f"{label} sharpest value unbounded: no level was proved")
    return CondReport(margin=margin, argmin=argmin, sharpest=sharp,
                      sharpest_enclosure=enc, proved=proved, boxes=boxes,
                      levels=levels, sampled_points=mins.points, notes=notes)


def check_cond1(candidate: CandidateW) -> CondReport:
    """Verify Delta^2 w_m <= lambda'/(1-w_m)^2 and compute the sharpest lambda'.

    The slack lambda'/(1-w)^2 - Delta^2 w equals
    [lambda'(3m-4)^3 - F_num] / [(3m-4) r^(8/3) q^2] with a positive
    denominator, so its sign is that of the cleared numerator.  The reported
    margin is the sampled minimum of the slack itself; the proof is of the
    cleared numerator's nonnegativity.  The sharpest lambda' is
    sup F = -inf(-F), so the shared infimum check runs on -F_num / F_den
    and its value and enclosure are negated back.
    """
    m, N = candidate.m, candidate.N
    d = 3 * m - 4
    fnum, fden = _cond1_parts(m, N)
    claim = Signomial.constant(candidate.lam_prime * d ** 3) - fnum
    slack_den = Signomial({Fraction(8, 3): d}) * q_signomial(m) ** 2
    rep = _check_inf("cond1", claim, slack_den, -fnum, fden, -candidate.lam_prime)
    rep.sharpest = -rep.sharpest
    if rep.sharpest_enclosure is not None:
        lo, hi = rep.sharpest_enclosure
        rep.sharpest_enclosure = (-hi, -lo)
    if rep.argmin > 1 - 1e-4:
        rep.notes.insert(0, "boundary-limit: the slack minimizer sits at r -> 1")
    return rep


def _cond2_parts(candidate: CandidateW, weight: Ratio):
    """Signomials (G_num, G_den) with cond2 <=> beta <= G_num/G_den, G_den > 0."""
    m = candidate.m
    d = 3 * m - 4
    one_minus_w_cubed = Signomial({4: Fraction(1, 1) / d ** 3}) * q_signomial(m) ** 3
    half = weight * Ratio(one_minus_w_cubed)
    # G = W (1-w)^3 / 2
    return half.num, half.den * 2


def check_cond2(candidate: CandidateW) -> CondReport:
    """Verify 2 beta/(1-w_m)^3 <= W(r) and compute the sharpest beta.

    W is the candidate's Hardy-Rellich weight, `hr_weight(hr_variant, N)`.
    The slack W(1-w)^3/2 - beta clears to G_num - beta G_den over the
    positive denominator G_den; both the denominator sign and the cleared
    claim are proved.
    """
    weight = hr_weight(candidate.hr_variant, candidate.N)
    num, den = _cond2_parts(candidate, weight)
    claim = num - Signomial.constant(candidate.beta) * den
    return _check_inf("cond2", claim, den, num, den, candidate.beta)


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
    notes: list = field(default_factory=list)


def certify_dimension(N: int, candidate: CandidateW | None = None) -> CertificateReport:
    """Run both conditions for the dimension's candidate and decide Pass/Fail.

    Pass requires both cleared claims proved (a sampled margin decides
    nothing) and the ordering beta > lambda', with equality allowed only in
    the exact boundary case beta = lambda' = H_N/2.
    """
    if candidate is None:
        candidate = table_candidate(N)
    if candidate.N != N:
        raise InvalidArgument("candidate dimension does not match N")
    c1 = check_cond1(candidate)
    c2 = check_cond2(candidate)
    notes = []
    h2 = hardy_rellich_constant(N) / 2
    ordering = (candidate.beta > candidate.lam_prime
                or (candidate.beta == candidate.lam_prime == h2))
    if not ordering:
        notes.append("ordering beta >= lambda' fails")
    ok = c1.proved and c2.proved and ordering
    if N == 9:
        supported = [b for b in _N9_BETA_CLAIMS if b <= c2.sharpest]
        notes.append(
            "inconsistent source data for N=9 (beta quoted as 366.5, 368.5, "
            f"and 723/2): computed sharpest beta {c2.sharpest:.4f} supports "
            f"{supported} and refutes the rest; verdict uses computed values")
    return CertificateReport(candidate=candidate, cond1=c1, cond2=c2,
                             verdict="Pass" if ok else "Fail",
                             sharpest_lam_prime=c1.sharpest,
                             sharpest_beta=c2.sharpest, notes=notes)


def threshold_relation(N: int):
    """Exact comparison 2 lambda_bar_N <= H_N; holds precisely for N >= 9."""
    if N < 5:
        raise InvalidArgument("the threshold relation is considered for N >= 5")
    two_lb = 2 * lambda_bar(N)
    hn = hardy_rellich_constant(N)
    return two_lb, hn, two_lb <= hn


def table1_rows(dims=None) -> list[dict]:
    """Reproduce the per-dimension summary with computed sharpest values."""
    if dims is None:
        dims = list(range(9, 17)) + [17, 20, 30, 31, 40]
    rows = []
    for N in dims:
        rep = certify_dimension(N)
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
