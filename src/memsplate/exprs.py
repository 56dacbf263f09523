"""Exact expression trees over terms c * r^p and their signomial normal form.

All analytic certificate data (candidate profiles, Hardy-Rellich weights,
supersolutions) are finite combinations of real powers of r with rational
coefficients.  Two representations cooperate:

* :class:`RadialExpr` trees (constants, powers, sums, products, quotients,
  negation) with exact symbolic differentiation and direct float evaluation;
  a tree has no interval enclosure of its own, and reaches the prover only
  through `as_ratio`;
* :class:`Signomial`, the expanded normal form sum_k c_k r^(p_k) with exact
  rational coefficients and exponents, on which the interval positivity
  prover operates after denominators have been cleared.  It is the package's
  one interval evaluator.

Floats are converted to Fraction exactly (every float is a dyadic rational),
so tree manipulation and differentiation introduce no rounding at all;
rounding enters only in numeric/interval evaluation.

A Signomial does its exact-rational interval work once: on first use it
compiles its terms into a table of floats (coefficient bounds, float
exponent, exponent-rounding coefficient, value at r = 0), kept on the object.
Each box enclosure after that is floats only, and bit-identical to the
term-by-term `frac_bounds`/`pow_bounds`/`Interval` evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .intervals import (Interval, down, exponent_rounding, frac_bounds, mul_bounds,
                        padded_pow, pow_bounds, up)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"expected a real number, got {type(x).__name__}")


def _dirsum(values, direction: int) -> float:
    """Directed-rounded sum: fsum padded one ulp toward `direction` (+1/-1)."""
    if all(math.isfinite(v) for v in values):
        try:
            s = math.fsum(values)
        except OverflowError:  # the exact sum leaves the float range
            return direction * math.inf
        return up(s) if direction > 0 else down(s)
    if direction > 0:
        return math.inf if math.inf in values else -math.inf
    return -math.inf if -math.inf in values else math.inf


class Signomial:
    """sum of c * r^p terms with exact rational c, p; immutable by convention."""

    __slots__ = ("terms", "_diff", "_table")

    def __init__(self, terms=None):
        merged: dict[Fraction, Fraction] = {}
        for p, c in (terms or {}).items():
            p, c = _frac(p), _frac(c)
            merged[p] = merged.get(p, Fraction(0)) + c
        self.terms = {p: c for p, c in merged.items() if c != 0}
        self._diff = None
        self._table = None

    @classmethod
    def constant(cls, c) -> "Signomial":
        return cls({Fraction(0): c})

    @classmethod
    def term(cls, c, p) -> "Signomial":
        return cls({p: c})

    def __repr__(self):
        if not self.terms:
            return "Signomial(0)"
        parts = [f"{c}*r^{p}" for p, c in sorted(self.terms.items())]
        return "Signomial(" + " + ".join(parts) + ")"

    def __eq__(self, other):
        return isinstance(other, Signomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self) -> "Signomial":
        return Signomial({p: -c for p, c in self.terms.items()})

    def __add__(self, other) -> "Signomial":
        if not isinstance(other, Signomial):
            other = Signomial.constant(other)
        t = dict(self.terms)
        for p, c in other.terms.items():
            t[p] = t.get(p, Fraction(0)) + c
        return Signomial(t)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Signomial):
            other = Signomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Signomial":
        if not isinstance(other, Signomial):
            return Signomial({p: c * _frac(other) for p, c in self.terms.items()})
        out: dict[Fraction, Fraction] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = p1 + p2
                out[p] = out.get(p, Fraction(0)) + c1 * c2
        return Signomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Signomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers of a signomial")
        out = Signomial.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self) -> "Signomial":
        return Signomial({p - 1: c * p for p, c in self.terms.items() if p != 0})

    @property
    def min_power(self) -> Fraction:
        return min(self.terms) if self.terms else Fraction(0)

    def shift(self, dp) -> "Signomial":
        """Multiply by r^dp (exact exponent shift)."""
        dp = _frac(dp)
        return Signomial({p + dp: c for p, c in self.terms.items()})

    def factor_min_power(self) -> tuple[Fraction, "Signomial"]:
        """(pmin, g) with self = r^pmin * g and g having min power 0."""
        pmin = self.min_power
        return pmin, self.shift(-pmin)

    def value_at_one(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for p, c in self.terms.items():
            out += float(c) * r ** float(p)
        return out

    def _compile(self) -> tuple:
        """Per-term float data: the exact-rational work, done once per signomial.

        Each row is (coefficient lower/upper bound, float(p), the exponent
        rounding coefficient of `padded_pow`, the enclosure of 0**p).
        """
        self._table = tuple(
            (*frac_bounds(c), float(p), exponent_rounding(p), pow_bounds(0.0, p))
            for p, c in self.terms.items())
        return self._table

    def _termwise(self, a: float, b: float) -> Interval:
        """Natural enclosure on [a, b]: per term, coefficient bounds times the
        hull of the padded endpoint powers, then a directed sum.  Floats only."""
        table = self._table if self._table is not None else self._compile()
        la = abs(math.log(a)) if a != 0.0 else 0.0
        lb = abs(math.log(b)) if b != 0.0 else 0.0
        los, his = [], []
        for cl, ch, pf, k, at_zero in table:
            xl, xh = padded_pow(a, pf, k, la) if a != 0.0 else at_zero
            if b != a:
                bl, bh = padded_pow(b, pf, k, lb) if b != 0.0 else at_zero
                xl, xh = min(xl, bl), max(xh, bh)
            lo, hi = mul_bounds(cl, ch, xl, xh)
            los.append(lo)
            his.append(hi)
        return Interval(_dirsum(los, -1), _dirsum(his, +1))

    def enclosure(self, a: float, b: float) -> Interval:
        """Interval containing all values on [a, b] subset of [0, inf).

        Intersection of the termwise (natural) enclosure with the mean-value
        form f(c) + f'([a,b]) ([a,b] - c): the latter is far tighter where f
        sits on a small plateau whose value is below the coefficient scale
        (termwise width scales with sum |c_k p_k| (b-a); the centered width
        with the actual |f'| (b-a)/2).
        """
        if not self.terms:
            return Interval(0.0, 0.0)
        nat = self._termwise(a, b)
        if a == b or a <= 0.0:
            return nat
        if self._diff is None:
            self._diff = self.diff()
        c = 0.5 * (a + b)
        pv = self._termwise(c, c)
        dv = self._diff._termwise(a, b)
        h = up(max(c - a, b - c))
        cen = pv + dv * Interval(-h, h)
        lo = max(nat.lo, cen.lo)
        hi = min(nat.hi, cen.hi)
        return Interval(lo, hi) if lo <= hi else nat


# --------------------------------------------------------------------------
# expression trees


def _expr(x) -> "RadialExpr":
    if isinstance(x, RadialExpr):
        return x
    return Const(x)


class RadialExpr:
    """Base expression node.  Subclasses implement diff/__call__/as_ratio."""

    def diff(self) -> "RadialExpr":
        raise NotImplementedError

    def __call__(self, r):
        raise NotImplementedError

    def as_ratio(self) -> tuple[Signomial, Signomial]:
        """(num, den) signomials with self = num / den, exactly."""
        raise NotImplementedError

    def as_signomial(self) -> Signomial:
        num, den = self.as_ratio()
        if len(den.terms) != 1:
            raise ValueError("expression is a genuine quotient, not a signomial")
        (p, c), = den.terms.items()
        return Signomial({q - p: d / c for q, d in num.terms.items()})

    def __add__(self, o):
        return Sum((self, _expr(o)))

    def __radd__(self, o):
        return Sum((_expr(o), self))

    def __sub__(self, o):
        return Sum((self, Neg(_expr(o))))

    def __rsub__(self, o):
        return Sum((_expr(o), Neg(self)))

    def __mul__(self, o):
        return Prod(self, _expr(o))

    def __rmul__(self, o):
        return Prod(_expr(o), self)

    def __truediv__(self, o):
        return Quot(self, _expr(o))

    def __rtruediv__(self, o):
        return Quot(_expr(o), self)

    def __neg__(self):
        return Neg(self)


class Const(RadialExpr):
    def __init__(self, c):
        self.c = _frac(c)

    def __repr__(self):
        return f"Const({self.c})"

    def diff(self):
        return Const(0)

    def __call__(self, r):
        return np.full_like(np.asarray(r, dtype=float), float(self.c))

    def as_ratio(self):
        return Signomial.constant(self.c), Signomial.constant(1)


class Power(RadialExpr):
    """c * r^p with exact rational c and p."""

    def __init__(self, c, p):
        self.c = _frac(c)
        self.p = _frac(p)

    def __repr__(self):
        return f"Power({self.c}, {self.p})"

    def diff(self):
        if self.p == 0:
            return Const(0)
        return Power(self.c * self.p, self.p - 1)

    def __call__(self, r):
        return float(self.c) * np.asarray(r, dtype=float) ** float(self.p)

    def as_ratio(self):
        return Signomial.term(self.c, self.p), Signomial.constant(1)


class Sum(RadialExpr):
    def __init__(self, terms):
        self.terms = tuple(_expr(t) for t in terms)

    def __repr__(self):
        return "Sum" + repr(self.terms)

    def diff(self):
        return Sum(tuple(t.diff() for t in self.terms))

    def __call__(self, r):
        return sum(t(r) for t in self.terms)

    def as_ratio(self):
        num, den = Signomial.constant(0), Signomial.constant(1)
        for t in self.terms:
            n, d = t.as_ratio()
            num = num * d + n * den
            den = den * d
        return num, den


class Prod(RadialExpr):
    def __init__(self, a, b):
        self.a = _expr(a)
        self.b = _expr(b)

    def __repr__(self):
        return f"Prod({self.a!r}, {self.b!r})"

    def diff(self):
        return Sum((Prod(self.a.diff(), self.b), Prod(self.a, self.b.diff())))

    def __call__(self, r):
        return self.a(r) * self.b(r)

    def as_ratio(self):
        na, da = self.a.as_ratio()
        nb, db = self.b.as_ratio()
        return na * nb, da * db


class Quot(RadialExpr):
    def __init__(self, num, den):
        self.num = _expr(num)
        self.den = _expr(den)

    def __repr__(self):
        return f"Quot({self.num!r}, {self.den!r})"

    def diff(self):
        return Quot(
            Sum((Prod(self.num.diff(), self.den), Neg(Prod(self.num, self.den.diff())))),
            Prod(self.den, self.den),
        )

    def __call__(self, r):
        return self.num(r) / self.den(r)

    def as_ratio(self):
        nn, dn = self.num.as_ratio()
        nd, dd = self.den.as_ratio()
        return nn * dd, dn * nd


class Neg(RadialExpr):
    def __init__(self, a):
        self.a = _expr(a)

    def __repr__(self):
        return f"Neg({self.a!r})"

    def diff(self):
        return Neg(self.a.diff())

    def __call__(self, r):
        return -self.a(r)

    def as_ratio(self):
        n, d = self.a.as_ratio()
        return -n, d


def signomial_expr(sig: Signomial) -> RadialExpr:
    """Lift a signomial back to a (flat) expression tree."""
    if not sig.terms:
        return Const(0)
    return Sum(tuple(Power(c, p) for p, c in sorted(sig.terms.items())))
