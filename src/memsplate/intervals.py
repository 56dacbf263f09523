"""Outward-rounded interval arithmetic and adaptive positivity proving.

Every certificate and Hardy-Rellich weight verdict is proved on this engine.
Bounds are padded with `math.nextafter` after every operation; libm's pow/log
are assumed correct to a couple of ulps, and every use pads accordingly, so
enclosures are conservative up to that standard-library contract.

The padding of a power is defined in this module only.  `padded_pow` states
it for one power: a relative 5e-16 for libm `pow`, plus 1.1 |p - float(p)|
|ln x| when the exponent is not a float; with a float exponent the two pad
factors are the constants `_POW_DOWN`/`_POW_UP`.  `exponent_rounding` does the
exact-rational part of that rule, so a caller that evaluates the same
exponent on many boxes (the compiled `Signomial`) calls it once and then
works on floats only.  `mul_bounds` is the product rule of `Interval`.

`term_bounds` is the compiled path's kernel: one loop over the terms of a
signomial at one point that pads each power and multiplies it by the
coefficient bounds, with no call per term.  It gives the floats that
`mul_bounds(cl, ch, *padded_pow(...))` gives, term for term (the tests hold
it to that).  Where the padded power is positive and finite and the
coefficient has one sign, the sign picks the two extreme corner products;
`mul_bounds` still covers the rest: a power that underflowed to 0 or
overflowed to inf, and coefficient bounds on both sides of 0.  The point
x = 0 is not the kernel's: the caller multiplies the exact powers 0**p
(`pow_bounds`) with `mul_bounds`.  Python's `float ** float` (libm) is used
deliberately: numpy's SIMD `power` may differ from it by an ulp, which would
eat into the pad and change enclosures.

`prove_nonneg` is the bisection.  Its `ProofReport` is the one result of a
sign proof: the layers above return it with their own reason and boxes.  The
bisection sets its reason when it returns: "interval bisection" or "not
sign-definite".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

_INF = math.inf
_MAX = sys.float_info.max
_next = math.nextafter  # down/up inlined in the per-term helpers below


def down(x: float) -> float:
    return math.nextafter(x, -_INF)


def up(x: float) -> float:
    return math.nextafter(x, _INF)


def frac_bounds(c) -> tuple[float, float]:
    """Tight float bounds of an exact rational (or float) coefficient.

    The float f = float(c) is compared with c = n/d on integers: f is
    fn/fd exactly (`as_integer_ratio`), and both denominators are positive,
    so f - c has the sign of fn*d - n*fd.
    """
    f = float(c)
    if isinstance(c, float):
        return f, f
    fn, fd = f.as_integer_ratio()
    diff = fn * c.denominator - c.numerator * fd
    if not diff:
        return f, f
    return (down(f), f) if diff > 0 else (f, up(f))


_POW_REL = 5e-16   # libm pow: <= ~1 ulp, padded
_EXP_ROUND = 1.1   # x**p / x**float(p) = exp((p - float(p)) ln x), padded
# the pad factors of a power whose exponent is a float (k = 0)
_POW_DOWN = _next(1.0 - _POW_REL, -_INF)
_POW_UP = _next(1.0 + _POW_REL, _INF)


def exponent_rounding(p: Fraction | float) -> float:
    """k with x**p within relative k*|ln x| of x**float(p); 0 when float(p) == p.

    |p - float(p)| is the integer quotient |n*fd - fn*d| / (d*fd), for
    p = n/d and float(p) = fn/fd; Python's integer true division rounds it
    to the nearest float, as `float` of the `Fraction` does.
    """
    if isinstance(p, float):
        return 0.0
    n, d = p.numerator, p.denominator
    fn, fd = float(p).as_integer_ratio()
    err = abs(n * fd - fn * d)
    return _EXP_ROUND * (err / (d * fd)) if err else 0.0


def padded_pow(x: float, pf: float, k: float, abslog: float) -> tuple[float, float]:
    """Enclosure of x**p for x > 0, given pf = float(p), k = exponent_rounding(p)
    and abslog = |ln x| (read only when k != 0).  When x**pf overflows, the
    largest float, padded down like any other value, is the lower bound and
    the upper bound is inf."""
    if k:
        rel = _POW_REL + k * abslog
        pad_down, pad_up = _next(1.0 - rel, -_INF), _next(1.0 + rel, _INF)
    else:
        pad_down, pad_up = _POW_DOWN, _POW_UP
    try:
        v = x ** pf
    except OverflowError:
        v = _MAX  # the padded upper bound then overflows to inf
    return _next(v * pad_down, -_INF), _next(v * pad_up, _INF)


def pow_bounds(x: float, p: Fraction | float) -> tuple[float, float]:
    """Enclosure of x**p for x >= 0, including exponent-rounding error."""
    if x == 0.0:
        if p > 0:
            return 0.0, 0.0
        if p == 0:
            return 1.0, 1.0
        return _INF, _INF
    k = exponent_rounding(p)
    return padded_pow(x, float(p), k, abs(math.log(x)) if k else 0.0)


def mul_bounds(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    """Outward-rounded bounds of [al, ah] * [bl, bh], taking 0 * inf as 0."""
    c1, c2, c3, c4 = al * bl, al * bh, ah * bl, ah * bh
    if c1 != c1 or c2 != c2 or c3 != c3 or c4 != c4:  # NaN only from 0 * inf
        c1, c2, c3, c4 = (0.0 if c != c else c for c in (c1, c2, c3, c4))
    return _next(min(c1, c2, c3, c4), -_INF), _next(max(c1, c2, c3, c4), _INF)


def term_bounds(x: float, terms) -> tuple[list, list]:
    """Outward bounds (lows, highs) of c * x**p at x > 0 for each compiled term
    (cl, ch, pf, k): cl <= c <= ch, pf = float(p), k = exponent_rounding(p).

    Each pair is the pair `mul_bounds(cl, ch, *padded_pow(x, pf, k, |ln x|))`
    gives, computed in one loop with no call per term.  When the padded power
    [pl, ph] is positive and finite and the coefficient bounds do not straddle
    0, the coefficient's sign picks the two extreme corner products: cl*pl and
    ch*ph for cl >= 0, cl*ph and ch*pl for ch <= 0.  Rounding to nearest is
    monotone, so these are the floats `mul_bounds` takes as its min and max.
    Every other term (a power that underflowed to 0 or overflowed to inf, or
    coefficient bounds on both sides of 0) goes through `mul_bounds`.
    """
    # the loop's constants and methods bound to locals: this is the prover's
    # innermost loop
    nxt, inf, ninf, pow_rel = _next, _INF, -_INF, _POW_REL
    pow_down, pow_up = _POW_DOWN, _POW_UP
    lx = abs(math.log(x))
    los, his = [], []
    lo_add, hi_add = los.append, his.append
    for cl, ch, pf, k in terms:
        if k:
            rel = pow_rel + k * lx
            pad_down, pad_up = nxt(1.0 - rel, ninf), nxt(1.0 + rel, inf)
        else:
            pad_down, pad_up = pow_down, pow_up
        try:
            v = x ** pf
        except OverflowError:
            v = _MAX
        pl, ph = nxt(v * pad_down, ninf), nxt(v * pad_up, inf)
        if 0.0 < pl and ph < inf:
            if cl >= 0.0:
                lo_add(nxt(cl * pl, ninf))
                hi_add(nxt(ch * ph, inf))
                continue
            if ch <= 0.0:
                lo_add(nxt(cl * ph, ninf))
                hi_add(nxt(ch * pl, inf))
                continue
        lo, hi = mul_bounds(cl, ch, pl, ph)
        lo_add(lo)
        hi_add(hi)
    return los, his


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints may be +-inf; a number may be a right operand."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Interval":
        lo, hi = frac_bounds(x)
        return cls(lo, hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        other = _coerce(other)
        return Interval(down(self.lo + other.lo), up(self.hi + other.hi))

    def __sub__(self, other) -> "Interval":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Interval":
        other = _coerce(other)
        return Interval(*mul_bounds(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other) -> "Interval":
        other = _coerce(other)
        if other.lo < 0 < other.hi:
            return Interval(-_INF, _INF)
        if other.lo == 0 and other.hi == 0:
            raise ZeroDivisionError("division by the zero interval")
        inv_cands = []
        for e in (other.lo, other.hi):
            if e == 0:
                inv_cands.append(_INF if other.hi > 0 else -_INF)
            else:
                inv_cands.append(1.0 / e)
        inv = Interval(down(min(inv_cands)), up(max(inv_cands)))
        return self * inv


def _coerce(x) -> Interval:
    return x if isinstance(x, Interval) else Interval.point(x)


@dataclass
class ProofReport:
    """Outcome of a sign proof, at every layer of the prover."""

    proved: bool
    counterexample: float | None = None
    inconclusive: list[tuple[float, float]] = field(default_factory=list)
    boxes: int = 0
    reason: str = ""


def prove_nonneg(enclosure, a: float, b: float, min_width: float = 1e-12,
                 max_boxes: int = 2_000_000) -> ProofReport:
    """Adaptive bisection proof that f >= 0 on [a, b].

    `enclosure(lo, hi)` must return an Interval containing f([lo, hi]).
    Subintervals are split until their enclosure is sign-definite or their
    width drops below min_width (then reported as inconclusive).
    """
    stack = [(a, b)]
    report = ProofReport(proved=True)
    while stack:
        if report.boxes >= max_boxes:
            report.proved = False
            report.inconclusive.append(stack.pop())
            report.inconclusive.extend(stack)
            break
        lo, hi = stack.pop()
        report.boxes += 1
        enc = enclosure(lo, hi)
        if enc.lo >= 0:
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo < min_width or mid <= lo or mid >= hi:
            # try to disprove by a point evaluation
            pt = enclosure(mid, mid)
            report.boxes += 1
            if pt.hi < 0:
                report.proved = False
                report.counterexample = mid
                break
            report.proved = False
            report.inconclusive.append((lo, hi))
            continue
        if enc.hi < 0:
            report.proved = False
            report.counterexample = mid
            break
        stack.append((lo, mid))
        stack.append((mid, hi))
    report.reason = "interval bisection" if report.proved else "not sign-definite"
    return report
