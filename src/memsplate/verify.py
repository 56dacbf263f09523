"""Rigorous sign verification and extremum enclosures for signomials on (0,1).

This is the "interval" rigor tier.  Every analytic claim the package certifies
is reduced (by clearing denominators) to nonnegativity of a signomial
sum c_k r^(p_k) on the open interval (0,1), which is decided here by:

* exact leading-term analysis at r -> 0 (factor out the minimal power; the
  resulting constant term is the limit and must be positive);
* exact evaluation at r = 1 (rational sum of coefficients); when it vanishes,
  a monotonicity argument on a left neighborhood via the (exact) derivative,
  applied recursively;
* adaptive outward-rounded interval bisection on the remaining compact core.

The infimum of a ratio of signomials is enclosed by a certified point
evaluation (upper bound) plus a bisection over levels c of the claim
"num - c*den >= 0 on (0,1)" (lower bound).  A supremum is the negated
infimum of -num/den; the caller negates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exprs import Signomial, _frac
from .intervals import Interval, ProofReport, prove_nonneg


@dataclass
class SignReport:
    """Outcome of a nonnegativity proof on (0,1)."""

    proved: bool
    reason: str = ""
    counterexample: float | None = None
    boxes: int = 0
    inconclusive: list = field(default_factory=list)


def _prove_upper(sig: Signomial, a: float, depth: int, min_width: float,
                 max_boxes: int) -> SignReport:
    """Certify sig >= 0 on [a, 1], handling a possible zero of sig at r = 1.

    When sig(1) = 0 exactly, sig >= 0 on [a2, 1] follows from sig being
    non-increasing there (-sig' >= 0 on [a2, 1], recursively the same kind of
    claim); the window [a2, 1] is shrunk geometrically until the derivative
    claim is provable, and the remaining [a, a2] is handled by plain
    bisection.  This is essential when the slope at the root is orders of
    magnitude below the coefficient scale: no fixed-width collar enclosure is
    then sign-definite near 1, but the derivative claim is.
    """
    v1 = sig.value_at_one()
    if v1 < 0:
        return SignReport(False, reason="negative value at r=1", counterexample=1.0)
    if v1 > 0:
        rep: ProofReport = prove_nonneg(sig.enclosure, a, 1.0,
                                        min_width=min_width, max_boxes=max_boxes)
        return SignReport(rep.proved,
                          reason="interval bisection" if rep.proved else "not sign-definite",
                          counterexample=rep.counterexample, boxes=rep.boxes,
                          inconclusive=rep.inconclusive)
    if depth == 0:
        return SignReport(False, reason="derivative depth exhausted at r=1")
    d = -sig.diff()
    a2 = a
    attempt_boxes = max(max_boxes // 8, 10_000)
    boxes = 0  # every derivative-window attempt, failed ones included
    for _ in range(45):
        drep = _prove_upper(d, a2, depth - 1, min_width, attempt_boxes)
        boxes += drep.boxes
        if drep.proved:
            if a2 <= a:
                return SignReport(True, reason=f"non-increasing into zero ({drep.reason})",
                                  boxes=boxes)
            rep = prove_nonneg(sig.enclosure, a, a2,
                               min_width=min_width, max_boxes=max_boxes)
            return SignReport(rep.proved,
                              reason=("non-increasing collar + bisection" if rep.proved
                                      else "not sign-definite left of the collar"),
                              counterexample=rep.counterexample,
                              boxes=rep.boxes + boxes,
                              inconclusive=rep.inconclusive)
        if drep.counterexample == 1.0:
            # a genuinely negative derivative value at 1 cannot improve
            return SignReport(False, reason=f"zero at r=1; {drep.reason}", boxes=boxes)
        a2 = 1.0 - 0.5 * (1.0 - a2) if a2 > a else max(a, 1.0 - 1e-2)
    return SignReport(False, reason="no provable non-increasing window at r=1",
                      boxes=boxes)


#: nested derivative claims `_prove_upper` may try at a zero at r = 1
_DERIVATIVE_DEPTH = 4


def prove_signomial_nonneg(sig: Signomial, min_width: float = 1e-12,
                           max_boxes: int = 2_000_000) -> SignReport:
    """Prove sig(r) >= 0 for all r in the open interval (0, 1)."""
    if not sig.terms:
        return SignReport(True, reason="identically zero")
    _, g = sig.factor_min_power()
    c0 = g.terms.get(Fraction(0), Fraction(0))
    if c0 < 0:
        # the limit at r -> 0+ is negative; exhibit a concrete witness
        for boxes, k in enumerate(range(2, 300), start=1):
            r = 2.0 ** -k
            if g.enclosure(r, r).hi < 0:
                return SignReport(False, reason="negative limit at r=0",
                                  counterexample=r, boxes=boxes)
        return SignReport(False, reason="negative limit at r=0", boxes=boxes)
    if c0 == 0:
        # cannot happen after factoring unless sig == 0, handled above
        raise AssertionError("minimal-power coefficient vanished")

    # collar at r = 0: the enclosure converges to c0 > 0 as the width shrinks
    eps0 = 0.25
    for collar_boxes in range(1, 201):
        if g.enclosure(0.0, eps0).lo >= 0:
            break
        eps0 *= 0.5
    else:
        return SignReport(False, reason="no sign-definite collar at r=0",
                          boxes=collar_boxes, inconclusive=[(0.0, eps0)])

    rep = _prove_upper(g, eps0, _DERIVATIVE_DEPTH, min_width, max_boxes)
    rep.boxes += collar_boxes
    return rep


SAMPLES = 200_001  # points of the sampled tier's grid on (0, 1)
_CHUNK = 8192       # grid points per block of the sampling pass


@functools.lru_cache(maxsize=4)
def _log_uniform_points(n: int, lo: float = 1e-9) -> np.ndarray:
    """Deterministic sampling of (0,1): log-uniform plus uniform points.

    Built once per n and shared, so the array is read-only.
    """
    k = n // 2
    a = np.exp(np.linspace(math.log(lo), 0.0, k, endpoint=False))
    b = np.linspace(0.0, 1.0, n - k, endpoint=False)[1:]
    r = np.unique(np.concatenate([a, b]))
    r.flags.writeable = False
    return r


def sampled_mins(pairs, n: int = SAMPLES) -> list[tuple[float, float]]:
    """(min value, argmin) of each num/den over a dense deterministic sample of (0,1).

    `pairs` is a sequence of (num, den) with den None for a bare signomial.
    One pass over the grid in blocks of `_CHUNK` points computes each
    distinct power r**p once per block for all the pairs, then sums each
    signomial in its own term order, so every value equals
    `num(r) / den(r)` bit for bit.  The argmin is the first occurrence of
    the minimum, NaNs ignored, as `np.nanargmin` over the whole grid; an
    all-NaN ratio raises ValueError as it does.  Memory is one block per
    distinct exponent and per signomial, never a grid-length array per
    exponent.
    """
    r = _log_uniform_points(n)
    rows = {id(s): [(float(c), float(p)) for p, c in s.terms.items()]
            for pair in pairs for s in pair if s is not None}
    exps = {p for row in rows.values() for _, p in row}
    best = [None] * len(pairs)
    for start in range(0, len(r), _CHUNK):
        x = r[start:start + _CHUNK]
        pows = {p: x ** p for p in exps}
        vals = {}
        for key, row in rows.items():
            vals[key] = out = np.zeros_like(x)
            for c, p in row:
                out += c * pows[p]
        for k, (num, den) in enumerate(pairs):
            v = vals[id(num)] if den is None else vals[id(num)] / vals[id(den)]
            try:
                i = int(np.nanargmin(v))
            except ValueError:  # every ratio in this block is NaN
                continue
            if best[k] is None or v[i] < best[k][0]:
                best[k] = (float(v[i]), start + i)
    if None in best:
        raise ValueError("All-NaN slice encountered")
    return [(v, float(r[i])) for v, i in best]


def sampled_min(num: Signomial, den: Signomial | None, n: int = SAMPLES):
    """(min value, argmin) of num/den over a dense deterministic sample of (0,1)."""
    return sampled_mins([(num, den)], n)[0]


def _point_enclosure(num: Signomial, den: Signomial | None, r: float) -> Interval:
    e = num.enclosure(r, r)
    if den is not None:
        e = e / den.enclosure(r, r)
    return e


def inf_enclosure(num: Signomial, den: Signomial | None = None,
                  rel_tol: float = 1e-5, samples: int = SAMPLES,
                  min_width: float = 1e-10, max_boxes: int = 400_000,
                  argmin: float | None = None):
    """Certified enclosure (lo, hi, argmin) of inf over (0,1) of num/den.

    Requires den > 0 on (0,1) (the caller's responsibility).  The upper bound
    is a verified point evaluation at the sampled argmin (pass `argmin` when
    the caller has already sampled num/den); the lower bound is the largest
    level c for which "num - c*den >= 0 on (0,1)" is proved.  When the point
    evaluation is unbounded, or no level is provable, the lower bound is -inf.
    """
    r_hat = argmin if argmin is not None else sampled_min(num, den, samples)[1]
    hi = _point_enclosure(num, den, r_hat).hi
    if not math.isfinite(hi):
        return -math.inf, hi, r_hat

    scale = abs(hi) if hi != 0.0 else 1.0

    def provable(c: float) -> bool:
        claim = num - Signomial.constant(_frac(c)) * (den if den is not None
                                                      else Signomial.constant(1))
        return prove_signomial_nonneg(claim, min_width=min_width,
                                      max_boxes=max_boxes).proved

    # find a provable anchor below the sampled minimum
    step = max(rel_tol, 1e-6) * scale
    for _ in range(60):
        lo = hi - step
        if lo == -math.inf:  # hi is near -DBL_MAX: no float level is left below it
            return lo, hi, r_hat
        if provable(lo):
            break
        step *= 4.0
    else:
        return -math.inf, hi, r_hat

    # bisect the level between the provable anchor and the upper bound
    bad = hi
    while bad - lo > rel_tol * scale:
        mid = 0.5 * (lo + bad)
        if provable(mid):
            lo = mid
        else:
            bad = mid
    return lo, hi, r_hat
