"""Radial rational functions over terms c * r^p, in signomial normal form.

All analytic certificate data (candidate profiles, Hardy-Rellich weights,
supersolutions) are finite combinations of real powers of r with rational
coefficients.  Two classes hold them:

* :class:`Signomial`, the expanded sum_k c_k r^(p_k) with exact rational
  coefficients and exponents.  It is the package's one interval evaluator:
  the interval positivity prover operates on it.
* :class:`Ratio`, a quotient num / den of two signomials.  Its arithmetic
  and its derivative clear denominators eagerly, so every expression is
  already the (num, den) pair that the prover and the sampled checks read.

Floats are converted to Fraction exactly (every float is a dyadic rational),
so the algebra and differentiation introduce no rounding at all; rounding
enters only in numeric/interval evaluation.

A Signomial does its exact-rational interval work once: on first use it
compiles its terms into a table of floats (coefficient bounds, float
exponent, exponent-rounding coefficient), kept on the object.  Its float work
is done once per point: the outward bounds of every term at a point x (its
"row") come from one call of the kernel `intervals.term_bounds`, a single
loop over the table that owns the padding rule, and are kept on the object,
up to `_MAX_ROWS` points.  A bisection, whose boxes end where earlier boxes
ended or were centred, thus computes each power once.  The row at r = 0
multiplies the exact powers 0**p by the coefficient bounds instead.  A box
enclosure is the directed sum of the termwise hull of its two endpoint rows,
intersected with the centred form; where that leaves the sign undecided, it
is intersected with the second-order Taylor form as well.  It is computed on
float pairs, with the rounding of `Interval`'s operators, and one `Interval`
is built at the end.  The result is bit-identical to the same forms
evaluated term by term with `frac_bounds`, `pow_bounds` and `Interval`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .intervals import (Interval, down, exponent_rounding, frac_bounds, mul_bounds,
                        pow_bounds, term_bounds, up)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"expected a real number, got {type(x).__name__}")


def _dirsum(values, direction: int) -> float:
    """Directed-rounded sum: fsum padded one ulp toward `direction` (+1/-1)."""
    if all(map(math.isfinite, values)):
        try:
            s = math.fsum(values)
        except OverflowError:  # the exact sum leaves the float range
            return direction * math.inf
        return up(s) if direction > 0 else down(s)
    if direction > 0:
        return math.inf if math.inf in values else -math.inf
    return -math.inf if -math.inf in values else math.inf


#: rows a signomial keeps before it drops them all.  A bisection needs the
#: rows of O(depth) points at a time, so this bounds the memory of a long
#: proof (a row of n terms is about 64 n bytes) and costs it little.
_MAX_ROWS = 1024


class Signomial:
    """sum of c * r^p terms with exact rational c, p; immutable by convention, unhashable."""

    __slots__ = ("terms", "_diff", "_table", "_rows")

    def __init__(self, terms=None):
        merged: dict[Fraction, Fraction] = {}
        for p, c in (terms or {}).items():
            p, c = _frac(p), _frac(c)
            merged[p] = merged[p] + c if p in merged else c
        self.terms = {p: c for p, c in merged.items() if c != 0}
        self._diff = None
        self._table = None
        self._rows = {}

    @classmethod
    def _merged(cls, terms: dict) -> "Signomial":
        """The signomial of `terms`, already merged: Fraction exponents and
        coefficients, no exponent twice (a dict) and no zero coefficient."""
        sig = cls()
        sig.terms = terms
        return sig

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

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self) -> "Signomial":
        return Signomial._merged({p: -c for p, c in self.terms.items()})

    def __add__(self, other) -> "Signomial":
        if not isinstance(other, Signomial):
            other = Signomial.constant(other)
        t = dict(self.terms)
        for p, c in other.terms.items():
            t[p] = t[p] + c if p in t else c
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
                p, c = p1 + p2, c1 * c2
                out[p] = out[p] + c if p in out else c
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
        return Signomial._merged({p - 1: c * p for p, c in self.terms.items() if p != 0})

    @property
    def min_power(self) -> Fraction:
        return min(self.terms) if self.terms else Fraction(0)

    def shift(self, dp) -> "Signomial":
        """Multiply by r^dp (exact exponent shift)."""
        dp = _frac(dp)
        return Signomial._merged({p + dp: c for p, c in self.terms.items()})

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

        Each entry is (coefficient lower/upper bound, float(p), the exponent
        rounding coefficient of `padded_pow`), the term format of
        `term_bounds`.
        """
        self._table = tuple((*frac_bounds(c), float(p), exponent_rounding(p))
                            for p, c in self.terms.items())
        return self._table

    def _row(self, x: float) -> tuple[list, list]:
        """Per-term outward bounds (lows, highs) of c * x**p at the point x.

        Computed on the first request for x and kept on the object (up to
        `_MAX_ROWS` points), so each term's power is evaluated once per
        point.  Floats only, except at x = 0, where each term's exact power
        0**p is 0, 1 or inf.
        """
        row = self._rows.get(x)
        if row is None:
            if len(self._rows) >= _MAX_ROWS:
                self._rows.clear()
            table = self._table if self._table is not None else self._compile()
            if x == 0.0:
                bounds = [mul_bounds(cl, ch, *pow_bounds(0.0, p))
                          for (cl, ch, _, _), p in zip(table, self.terms)]
                row = [lo for lo, _ in bounds], [hi for _, hi in bounds]
            else:
                row = term_bounds(x, table)
            self._rows[x] = row
        return row

    def _termwise(self, a: float, b: float) -> tuple[float, float]:
        """Natural enclosure (lo, hi) on [a, b]: per term, the hull of the
        endpoint rows, then a directed sum.

        This equals coefficient bounds times the hull of the padded endpoint
        powers bit for bit: c * x is monotone in x for a fixed c, and so are
        its rounding, the `nextafter` pad and the 0 * inf = 0 rule, so each
        extreme product over the hull lies at an endpoint's corner.  The
        pair is always ordered: each term's low is at most its high, and
        `_dirsum` rounds both sums outward.
        """
        los, his = self._row(a)
        if b != a:
            lb, hb = self._row(b)
            # min and max of each pair, as the builtins pick them
            los = [y if y < x else x for x, y in zip(los, lb)]
            his = [y if y > x else x for x, y in zip(his, hb)]
        return _dirsum(los, -1), _dirsum(his, +1)

    def enclosure(self, a: float, b: float) -> Interval:
        """Interval containing all values on [a, b] subset of [0, inf).

        Intersection of the termwise (natural) enclosure with the mean-value
        form f(c) + f'([a,b]) ([a,b] - c): the latter is far tighter where f
        sits on a small plateau whose value is below the coefficient scale
        (termwise width scales with sum |c_k p_k| (b-a); the centered width
        with the actual |f'| (b-a)/2).  When that enclosure neither is
        nonnegative nor lies below 0, it is intersected with the Taylor form
        f(c) + f'(c) [-h, h] + f''([a,b]) [0, h^2/2] too, with h^2/2 rounded
        up: near a minimum the termwise hull of f' spans both signs by far
        more than |f'|, and f'(c) does not.  An enclosure that decides the
        sign is returned as it is, so the second derivative's rows are
        computed only on the boxes a bisection would split; no box's
        enclosure is wider than the first-order one.  The arithmetic runs on
        float pairs with the rounding of `Interval`'s operators, and one
        `Interval` is built at the end.  No pair can be unordered: a row's
        lows are below inf and its highs above -inf (`nextafter` steps an
        infinite product to the largest float), and each product with
        [-h, h] or [0, h^2/2] has a low at most 0 and a high at least 0, so
        no sum meets inf + -inf.  A NaN endpoint raises `ValueError`, as the
        `Interval` of the half-width did.
        """
        if not self.terms:
            return Interval(0.0, 0.0)
        lo, hi = self._termwise(a, b)
        if a == b or a <= 0.0:
            return Interval(lo, hi)
        if self._diff is None:
            self._diff = self.diff()
        c = 0.5 * (a + b)
        pl, ph = self._termwise(c, c)
        dl, dh = self._diff._termwise(a, b)
        h = up(max(c - a, b - c))
        if not -h <= h:  # a NaN endpoint
            raise ValueError(f"invalid interval [{-h}, {h}]")
        ml, mh = mul_bounds(dl, dh, -h, h)
        cen_lo, cen_hi = max(lo, down(pl + ml)), min(hi, up(ph + mh))
        if cen_lo <= cen_hi:
            lo, hi = cen_lo, cen_hi
        if lo >= 0.0 or hi < 0.0:  # the sign is decided
            return Interval(lo, hi)
        # undecided: the second-order Taylor form
        # f(c) + f'(c) [-h, h] + f''([a, b]) [0, h^2/2]
        d = self._diff
        if d._diff is None:
            d._diff = d.diff()
        sl, sh = d._termwise(c, c)
        ql, qh = d._diff._termwise(a, b)
        m1l, m1h = mul_bounds(sl, sh, -h, h)
        m2l, m2h = mul_bounds(ql, qh, 0.0, up(0.5 * up(h * h)))
        tay_lo = max(lo, down(down(pl + m1l) + m2l))
        tay_hi = min(hi, up(up(ph + m1h) + m2h))
        return Interval(tay_lo, tay_hi) if tay_lo <= tay_hi else Interval(lo, hi)


# --------------------------------------------------------------------------
# radial rational functions


def _ratio(x) -> "Ratio":
    return x if isinstance(x, Ratio) else Ratio(x)


class Ratio:
    """num / den, a quotient of two signomials; the algebra clears eagerly.

    Each operation returns its cleared (num, den) pair at once: a sum is
    (n1 d2 + n2 d1, d1 d2), a product (n1 n2, d1 d2), a quotient
    (n1 d2, d1 n2).  Nothing is cancelled, so a denominator is the product
    of its operands' denominators in operand order.  A number is allowed on
    either side of an operator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num = num if isinstance(num, Signomial) else Signomial.constant(num)
        self.den = den if isinstance(den, Signomial) else Signomial.constant(den)

    @classmethod
    def term(cls, c, p) -> "Ratio":
        """c * r^p."""
        return cls(Signomial.term(c, p))

    def __repr__(self):
        return f"Ratio({self.num!r}, {self.den!r})"

    def __add__(self, o) -> "Ratio":
        o = _ratio(o)
        return Ratio(self.num * o.den + o.num * self.den, self.den * o.den)

    def __radd__(self, o):
        return _ratio(o) + self

    def __sub__(self, o):
        return self + (-_ratio(o))

    def __rsub__(self, o):
        return _ratio(o) + (-self)

    def __mul__(self, o) -> "Ratio":
        o = _ratio(o)
        return Ratio(self.num * o.num, self.den * o.den)

    def __rmul__(self, o):
        return _ratio(o) * self

    def __truediv__(self, o) -> "Ratio":
        o = _ratio(o)
        return Ratio(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, o):
        return _ratio(o) / self

    def __neg__(self) -> "Ratio":
        return Ratio(-self.num, self.den)

    def leading(self) -> tuple[Fraction, Fraction]:
        """(power, coefficient) of the leading term of num/den as r -> 0+,
        exactly; (0, 0) when num is zero."""
        if not self.num:
            return Fraction(0), Fraction(0)
        pn, pd = self.num.min_power, self.den.min_power
        return pn - pd, self.num.terms[pn] / self.den.terms[pd]

    def diff(self) -> "Ratio":
        """(n' d - n d') / d^2, exactly."""
        n, d = self.num, self.den
        return Ratio(n.diff() * d - n * d.diff(), d * d)

    def __call__(self, r):
        return self.num(r) / self.den(r)
