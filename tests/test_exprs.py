import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memsplate.exprs import (Const, Neg, Power, Prod, Quot, RadialExpr,
                             Signomial, Sum, _dirsum, signomial_expr)
from memsplate.intervals import Interval, frac_bounds, pow_bounds, up


def test_signomial_merge_and_zero():
    s = Signomial({1: 2, 2: 1}) + Signomial({1: -2})
    assert s.terms == {Fraction(2): Fraction(1)}
    assert not (Signomial({0: 1}) - Signomial({0: 1}))


def test_signomial_arithmetic():
    a = Signomial({0: 1, 1: 2})
    b = Signomial({1: -2, Fraction(1, 2): 3})
    assert (a + b).terms == {Fraction(0): 1, Fraction(1, 2): 3}
    assert (a * b).terms[Fraction(2)] == Fraction(-4)
    assert (a ** 2).terms == {Fraction(0): 1, Fraction(1): 4, Fraction(2): 4}
    assert (-a).terms[Fraction(0)] == Fraction(-1)


def test_signomial_diff_and_eval():
    s = Signomial({Fraction(4, 3): 1, 0: -2})
    d = s.diff()
    assert d.terms == {Fraction(1, 3): Fraction(4, 3)}
    r = np.array([0.25, 0.5, 1.0])
    assert np.allclose(s(r), r ** (4 / 3) - 2.0)


def test_factor_min_power():
    s = Signomial({Fraction(-8, 3): 2, 1: -1})
    p, g = s.factor_min_power()
    assert p == Fraction(-8, 3)
    assert g.min_power == 0
    assert g.terms[Fraction(0)] == 2


def test_value_at_one_exact():
    s = Signomial({Fraction(1, 3): Fraction(1, 3), 2: Fraction(2, 3)})
    assert s.value_at_one() == 1


def test_enclosure_contains_samples():
    s = Signomial({Fraction(-1, 2): 1, 2: -3, 0: 1})
    for a, b in [(0.1, 0.2), (0.5, 0.9), (1e-6, 1e-5), (0.3, 0.3)]:
        enc = s.enclosure(a, b)
        for r in np.linspace(a, b, 7):
            v = float(s(r))
            assert enc.lo <= v <= enc.hi


def test_centered_enclosure_tightness():
    # a near-constant plateau: termwise width scales with the coefficients,
    # the centered form with the actual derivative
    s = Signomial({0: 1000, 1: -2000, 2: 1000})  # 1000 (1-r)^2
    a, b = 0.4999, 0.5001
    enc = s.enclosure(a, b)
    assert enc.hi - enc.lo < 1.0  # termwise alone would be ~0.8 wide too; interior
    a, b = 0.89999, 0.90001
    enc = s.enclosure(a, b)
    vals = [float(s(r)) for r in np.linspace(a, b, 5)]
    assert enc.lo <= min(vals) and enc.hi >= max(vals)
    assert enc.hi - enc.lo < 0.1


def test_expr_tree_eval_and_ratio():
    # (2 r^2 + 1) / (1 - r/2)
    e = Quot(Sum((Power(2, 2), Const(1))), Sum((Const(1), Power(Fraction(-1, 2), 1))))
    r = np.array([0.2, 0.7])
    expected = (2 * r ** 2 + 1) / (1 - r / 2)
    assert np.allclose(e(r), expected)
    num, den = e.as_ratio()
    assert np.allclose(num(r) / den(r), expected)


def test_expr_operators_build_trees():
    e = Power(1, 2) * 3 + 1 - Power(2, 1) / 4
    r = np.array([0.5])
    assert np.allclose(e(r), 3 * 0.25 + 1 - 0.25)
    assert isinstance(-e, Neg)


def test_as_signomial():
    e = Quot(Sum((Power(1, 3), Power(2, 2))), Power(1, 2))
    s = e.as_signomial()
    assert s.terms == {Fraction(1): Fraction(1), Fraction(0): Fraction(2)}
    with pytest.raises(ValueError):
        Quot(Const(1), Sum((Const(1), Power(1, 1)))).as_signomial()


@st.composite
def simple_exprs(draw):
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3).filter(lambda c: c != 0),
                  st.fractions(min_value=-3, max_value=4, max_denominator=6)),
        min_size=1, max_size=4))
    return Sum(tuple(Power(c, p) for c, p in terms))


@settings(max_examples=60, deadline=None)
@given(simple_exprs(), st.floats(min_value=0.1, max_value=0.9))
def test_symbolic_derivative_matches_central_difference(expr, r):
    h = 1e-6
    num = (float(expr(r + h)) - float(expr(r - h))) / (2 * h)
    sym = float(expr.diff()(r))
    scale = max(1.0, abs(sym), abs(float(expr(r))))
    assert abs(num - sym) <= 1e-5 * scale


def test_signomial_expr_roundtrip():
    s = Signomial({Fraction(-8, 3): 2, Fraction(4, 3): -1, 0: 5})
    e = signomial_expr(s)
    num, den = e.as_ratio()
    assert den.terms == {Fraction(0): Fraction(1)}
    assert num.terms == s.terms


# --------------------------------------------------------------------------
# the compiled float path of Signomial against its term-by-term definition


def _reference_termwise(sig, a, b):
    los, his = [], []
    for p, c in sig.terms.items():
        la, ha = pow_bounds(a, p)
        lb, hb = pow_bounds(b, p)
        iv = Interval(*frac_bounds(c)) * Interval(min(la, lb), max(ha, hb))
        los.append(iv.lo)
        his.append(iv.hi)
    return Interval(_dirsum(los, -1), _dirsum(his, +1))


def _reference_enclosure(sig, a, b):
    nat = _reference_termwise(sig, a, b)
    if a == b or a <= 0.0:
        return nat
    c = 0.5 * (a + b)
    h = up(max(c - a, b - c))
    cen = (_reference_termwise(sig, c, c)
           + _reference_termwise(sig.diff(), a, b) * Interval(-h, h))
    lo, hi = max(nat.lo, cen.lo), min(nat.hi, cen.hi)
    return Interval(lo, hi) if lo <= hi else nat


_EXPONENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(4, 3), Fraction(8, 3),
                     Fraction(-1, 3), Fraction(-8, 3), Fraction(22, 15)]),
    st.fractions(min_value=-3, max_value=6, max_denominator=15))
_COEFFS = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(3661, 10), Fraction(-2, 7),
                     Fraction(3, 4), Fraction(-5)]),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=99)
    .filter(lambda c: c != 0))


@st.composite
def _boxes(draw):
    a = draw(st.one_of(st.just(0.0),
                       st.floats(min_value=1e-9, max_value=1.0),
                       st.integers(1, 30).map(lambda k: 2.0 ** -k)))
    if draw(st.booleans()):
        return a, a
    width = draw(st.floats(min_value=1e-14, max_value=1.0))
    return a, min(1.0, a + width)


def _bits(enclose, *args):
    """Enclosure endpoints as exact hex strings, or the exception it raised."""
    try:
        iv = enclose(*args)
    except (OverflowError, ValueError) as exc:  # e.g. r = 0 with negative powers
        return type(exc).__name__
    return iv.lo.hex(), iv.hi.hex()


def test_enclosure_with_overflowing_sum_is_unbounded():
    # at r = 0 each negative power's lower bound is the largest float, so the
    # exact sum leaves the float range and the directed sums go infinite
    iv = Signomial({Fraction(-1, 3): Fraction(1, 3), -1: Fraction(1, 3)}).enclosure(0.0, 0.0)
    assert isinstance(iv, Interval)
    assert iv.hi == math.inf
    assert _dirsum([1.7e308, 1.7e308], -1) == -math.inf
    assert _dirsum([-1.7e308, -1.7e308], +1) == math.inf


def test_enclosure_of_an_overflowing_power_is_unbounded_above():
    # 1e-9 ** -400 overflows a float: the enclosure is [a huge lower bound, inf]
    # instead of an OverflowError
    sig = Signomial({-400: 1})
    point = sig.enclosure(1e-9, 1e-9)
    assert point.hi == math.inf and point.lo > 1e308
    box = sig.enclosure(1e-9, 0.5)  # the minimum 0.5^-400 sits at b
    assert box.hi == math.inf and 1e120 < box.lo <= 0.5 ** -400


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_EXPONENTS, _COEFFS, min_size=1, max_size=6), _boxes())
def test_compiled_enclosure_is_bit_identical_to_termwise_definition(terms, box):
    sig = Signomial(terms)
    assert _bits(sig._termwise, *box) == _bits(_reference_termwise, sig, *box)
    assert _bits(sig.enclosure, *box) == _bits(_reference_enclosure, sig, *box)
