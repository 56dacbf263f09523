import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import memsplate.exprs as exprs
from memsplate.exprs import Ratio, Signomial, _dirsum
from memsplate.intervals import (Interval, exponent_rounding, frac_bounds,
                                 pow_bounds, up)


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


def test_ratio_eval_and_parts():
    # (2 r^2 + 1) / (1 - r/2)
    e = (Ratio.term(2, 2) + 1) / (1 + Ratio.term(Fraction(-1, 2), 1))
    r = np.array([0.2, 0.7])
    expected = (2 * r ** 2 + 1) / (1 - r / 2)
    assert np.allclose(e(r), expected)
    assert e.num == Signomial({2: 2, 0: 1})
    assert e.den == Signomial({0: 1, 1: Fraction(-1, 2)})


def test_ratio_leading_term_at_zero():
    # (power, coefficient) of num/den as r -> 0+, exactly; (0, 0) for num = 0
    r = Ratio.term(1, 1)
    assert Ratio(Signomial({2: 1, 3: 1}), Signomial.term(2, -1)).leading() == \
        (Fraction(3), Fraction(1, 2))
    assert (Fraction(3, 4) / (r - r * r)).leading() == (Fraction(-1), Fraction(3, 4))
    assert Ratio(0, Signomial.term(5, 2)).leading() == (Fraction(0), Fraction(0))


def test_ratio_operators_take_numbers_on_either_side():
    e = Ratio.term(1, 2) * 3 + 1 - Ratio.term(2, 1) / 4
    r = np.array([0.5])
    assert np.allclose(e(r), 3 * 0.25 + 1 - 0.25)
    x = Ratio.term(1, 1)
    assert np.allclose((2 - x)(r), 1.5)
    assert np.allclose((2 / x)(r), 4.0)
    assert np.allclose((2 * x + 1)(r), 2.0)
    assert np.allclose((-x)(r), -0.5)
    # the cleared pair keeps every factor: nothing cancels
    q = x / x
    assert q.num == Signomial({1: 1}) and q.den == Signomial({1: 1})


@st.composite
def simple_ratios(draw):
    def signomial():
        terms = draw(st.lists(
            st.tuples(st.integers(-3, 3).filter(lambda c: c != 0),
                      st.fractions(min_value=-3, max_value=4, max_denominator=6)),
            min_size=1, max_size=4))
        return Signomial({p: c for c, p in terms})
    num = signomial()
    # a denominator bounded away from 0: 4 plus at most three terms +-r^p
    # with p >= 1 stays above 1 on (0, 1)
    den_terms = draw(st.lists(
        st.tuples(st.integers(-1, 1).filter(lambda c: c != 0),
                  st.fractions(min_value=1, max_value=3, max_denominator=4)),
        min_size=1, max_size=3))
    den = Signomial({0: 4}) + Signomial({p: c for c, p in den_terms})
    return Ratio(num, den)


@settings(max_examples=60, deadline=None)
@given(simple_ratios(), st.floats(min_value=0.1, max_value=0.9))
def test_symbolic_derivative_matches_central_difference(expr, r):
    h = 1e-6
    num = (float(expr(r + h)) - float(expr(r - h))) / (2 * h)
    sym = float(expr.diff()(r))
    scale = max(1.0, abs(sym), abs(float(expr(r))))
    assert abs(num - sym) <= 1e-5 * scale


def test_derivative_of_a_product_squares_the_product_of_denominators():
    a = Ratio(Signomial({0: 1, 1: 2}), Signomial({0: 3, 2: -1}))
    b = Ratio(Signomial({Fraction(1, 2): 1}), Signomial({0: 1, 1: 1}))
    d = (a * b).diff()
    assert d.den == (a.den * b.den) ** 2
    r = np.array([0.3, 0.6])
    expected = a.diff()(r) * b(r) + a(r) * b.diff()(r)
    assert np.allclose(d(r), expected, rtol=1e-12)


def test_signomial_expr_roundtrip():
    s = Signomial({Fraction(-8, 3): 2, Fraction(4, 3): -1, 0: 5})
    e = Ratio(s)
    assert e.den.terms == {Fraction(0): Fraction(1)}
    assert e.num.terms == s.terms
    assert list(e.num.terms) == list(s.terms)  # insertion order is kept


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


# +-400: x ** pf underflows to 0 (lower bound -5e-324) or overflows on (0, 1)
_EXPONENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(4, 3), Fraction(8, 3),
                     Fraction(-1, 3), Fraction(-8, 3), Fraction(22, 15),
                     Fraction(400), Fraction(-400)]),
    st.fractions(min_value=-3, max_value=6, max_denominator=15))
# 10**-330 has the float bounds (0, 5e-324): its lower bound cl is 0
_COEFFS = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(3661, 10), Fraction(-2, 7),
                     Fraction(3, 4), Fraction(-5), Fraction(1, 10 ** 330),
                     Fraction(-1, 10 ** 330)]),
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
    """Enclosure endpoints (an Interval or a (lo, hi) pair) as exact hex
    strings, or the exception it raised."""
    try:
        iv = enclose(*args)
    except (OverflowError, ValueError) as exc:  # e.g. r = 0 with negative powers
        return type(exc).__name__
    lo, hi = (iv.lo, iv.hi) if isinstance(iv, Interval) else iv
    return lo.hex(), hi.hex()


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


def _bisection_walk(a, b):
    """A box, its two children and the children's midpoints, in proof order."""
    if a == b:
        return [(a, b)]
    c = 0.5 * (a + b)
    left, right = 0.5 * (a + c), 0.5 * (c + b)
    return [(a, b), (a, c), (c, b), (left, left), (right, right)]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_EXPONENTS, _COEFFS, min_size=1, max_size=6), _boxes())
def test_compiled_enclosure_is_bit_identical_to_termwise_definition(terms, box):
    # one signomial walks the whole tree, so later boxes read the endpoint
    # rows that earlier boxes (and their centred forms) left on it
    sig = Signomial(terms)
    for sub in _bisection_walk(*box):
        assert _bits(sig._termwise, *sub) == _bits(_reference_termwise, sig, *sub)
        assert _bits(sig.enclosure, *sub) == _bits(_reference_enclosure, sig, *sub)


_TINY = Fraction(1, 10 ** 330)


@pytest.mark.parametrize("terms, box, precondition", [
    pytest.param({Fraction(4, 3): Fraction(-2, 7), Fraction(22, 15): Fraction(1, 3)},
                 (0.3, 0.7), exponent_rounding(Fraction(4, 3)) > 0
                 and exponent_rounding(Fraction(22, 15)) > 0, id="k-nonzero"),
    # a lone term with a coefficient of 1e300/3: its products with the padded
    # 0 are normal floats, so each corner product is a different float
    pytest.param({400: Fraction(10 ** 300, 3)}, (1e-9, 2.0 ** -4),
                 pow_bounds(1e-9, Fraction(400))[0] < 0, id="underflowed-power"),
    pytest.param({-400: Fraction(-2, 7), 1: 1}, (1e-9, 0.5),
                 pow_bounds(1e-9, Fraction(-400))[1] == math.inf, id="overflowed-power"),
    pytest.param({Fraction(1, 3): _TINY, 2: 1}, (0.25, 0.75),
                 frac_bounds(_TINY) == (0.0, 5e-324), id="coefficient-0-to-tiny"),
    pytest.param({Fraction(-1, 3): -_TINY, 1: -1}, (0.25, 0.75),
                 frac_bounds(-_TINY) == (-5e-324, -0.0)
                 and math.copysign(1.0, frac_bounds(-_TINY)[1]) < 0,
                 id="coefficient-minus-tiny-to-minus-0"),
    pytest.param({Fraction(-1, 3): Fraction(1, 3), Fraction(4, 3): -2, 0: 1}, (0.0, 0.25),
                 pow_bounds(0.0, Fraction(-1, 3)) == (math.inf, math.inf), id="x-zero"),
    pytest.param({0: Fraction(1, 3)}, (0.25, 0.5),
                 not Signomial({0: Fraction(1, 3)}).diff(), id="constant"),
])
def test_each_kernel_branch_is_bit_identical_to_termwise_definition(terms, box,
                                                                     precondition):
    # the precondition checks that the case reaches its branch of the row
    # kernel (`term_bounds`) or of the enclosure
    assert precondition
    sig = Signomial(terms)
    for sub in _bisection_walk(*box) + [(box[0], box[0])]:
        assert _bits(sig._termwise, *sub) == _bits(_reference_termwise, sig, *sub)
        assert _bits(sig.enclosure, *sub) == _bits(_reference_enclosure, sig, *sub)


def test_a_nan_endpoint_is_rejected():
    sig = Signomial({Fraction(4, 3): 2, 0: 1})
    for box in ((0.25, math.nan), (math.nan, 0.5), (math.nan, math.nan)):
        with pytest.raises(ValueError):
            sig.enclosure(*box)


def test_a_long_walk_keeps_a_bounded_memo_with_the_same_bits(monkeypatch):
    # past _MAX_ROWS new points a signomial drops its rows; the enclosures
    # after each drop recompute them and give the same bits
    monkeypatch.setattr(exprs, "_MAX_ROWS", 5)
    sig = Signomial({Fraction(-1, 3): 2, Fraction(4, 3): -3, Fraction(22, 15): 1, 0: 1})
    for k in range(40):
        a, b = k / 40, (k + 1) / 40
        for sub in _bisection_walk(a, b):
            assert _bits(sig.enclosure, *sub) == _bits(_reference_enclosure, sig, *sub)
            assert len(sig._rows) <= 5
