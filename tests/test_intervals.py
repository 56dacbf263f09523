import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from memsplate.intervals import (Interval, down, exponent_rounding, frac_bounds,
                                 mul_bounds, padded_pow, pow_bounds, ProofReport,
                                 prove_nonneg, term_bounds, up)


def test_directed_rounding():
    x = 1.0
    assert down(x) < x < up(x)
    assert up(down(x)) == x


def test_frac_bounds_encloses():
    for c in (Fraction(1, 3), Fraction(-22, 7), Fraction(5, 8), 0.1):
        lo, hi = frac_bounds(c)
        assert lo <= float(Fraction(c)) <= hi
        assert Fraction(lo) <= Fraction(c) <= Fraction(hi)
    # exact dyadics are tight
    assert frac_bounds(Fraction(3, 4)) == (0.75, 0.75)


def _frac_bounds_by_fraction(c):
    """`frac_bounds` as a comparison of `Fraction`s, its earlier formula."""
    f = float(c)
    exact = Fraction(f)
    if exact == c:
        return f, f
    return (down(f), f) if exact > c else (f, up(f))


def _exponent_rounding_by_fraction(p):
    """`exponent_rounding` as a `Fraction` difference, its earlier formula."""
    err = abs(p - Fraction(float(p)))
    return 1.1 * float(err) if err else 0.0


def _outcome(f, x):
    """The float hex of f(x), sign of zero included, or the error it raises."""
    try:
        out = f(x)
    except OverflowError as exc:
        return "OverflowError", str(exc)
    return tuple(v.hex() for v in out) if isinstance(out, tuple) else out.hex()


_BIG = 2 ** 1100
# rationals the integer formulas must round as the Fraction ones do: ints of
# either sign, exact dyadics, numerators or denominators above 2**1100
# (whose floats overflow, or whose quotient is a normal float), and values
# whose float is subnormal or a zero of either sign
_RATIONALS = st.one_of(
    st.integers(),
    st.integers(-2 ** 80, 2 ** 80).map(Fraction),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    st.builds(Fraction, st.integers(-2 ** 60, 2 ** 60), st.integers(1, 10 ** 6)),
    st.builds(lambda n, d: Fraction(n * _BIG, d),
              st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)),
    st.builds(lambda n, d: Fraction(n, d * _BIG),
              st.integers(-2 ** 1200, 2 ** 1200), st.integers(1, 10 ** 6)),
    st.builds(lambda n, e, d: Fraction(n, d << e),
              st.integers(-10 ** 6, 10 ** 6), st.integers(1000, 1200),
              st.integers(1, 10 ** 6)),
)


@settings(max_examples=400, deadline=None)
@given(_RATIONALS)
def test_integer_formulas_round_as_the_fraction_formulas(c):
    assert _outcome(frac_bounds, c) == _outcome(_frac_bounds_by_fraction, c)
    assert _outcome(exponent_rounding, c) == _outcome(_exponent_rounding_by_fraction, c)


def test_integer_formulas_round_the_edge_cases_as_the_fraction_formulas():
    # a subnormal and a signed zero float of c, an overflow, and exponent
    # errors that round to subnormals
    tiny = Fraction(1, 3 * 2 ** 1074)
    for c in (tiny, -tiny, Fraction(1, 2 ** 1080), Fraction(-1, 2 ** 1080),
              Fraction(3, 2 ** 1074), Fraction(5 * _BIG, 3), -Fraction(5 * _BIG, 3),
              Fraction(2 ** 1024 - 1), 0, Fraction(0), -7, Fraction(1, 3),
              Fraction(1, 3 * 2 ** 1000)):
        assert _outcome(frac_bounds, c) == _outcome(_frac_bounds_by_fraction, c), c
        assert (_outcome(exponent_rounding, c)
                == _outcome(_exponent_rounding_by_fraction, c)), c
    assert frac_bounds(-tiny)[1].hex() == "-0x0.0p+0"
    assert _outcome(frac_bounds, Fraction(5 * _BIG, 3))[0] == "OverflowError"
    assert 0.0 < exponent_rounding(Fraction(1, 3 * 2 ** 1000)) < sys.float_info.min


def test_pow_bounds_encloses():
    rnd = random.Random(1)
    for _ in range(200):
        x = rnd.uniform(1e-8, 1.0)
        p = Fraction(rnd.randint(-12, 12), rnd.randint(1, 9))
        lo, hi = pow_bounds(x, p)
        v = x ** float(p)
        assert lo <= v <= hi
        assert (hi - lo) <= 1e-9 * max(abs(v), 1e-300) + 1e-300 or hi - lo < abs(v) * 1e-6


def test_pow_bounds_padding_contract():
    # relative pad 5e-16 (libm pow) plus 1.1 |p - float(p)| |ln x| (exponent
    # rounding), applied with nextafter outward on both the factor and product
    for x, p in ((0.3, Fraction(3, 4)), (0.3, Fraction(1, 3)), (1e-7, Fraction(-8, 3))):
        pf = float(p)
        v = x ** pf
        rel = 5e-16
        if Fraction(pf) != p:
            rel += 1.1 * float(abs(p - Fraction(pf))) * abs(math.log(x))
        assert pow_bounds(x, p) == (down(v * down(1.0 - rel)), up(v * up(1.0 + rel)))


def test_pow_bounds_covers_exponent_rounding():
    # exact powers of two: x**float(p) misses x**p by far more than libm's
    # ulp, so only the exponent-rounding term keeps the true value enclosed
    for x, p, exact in ((2.0 ** -996, Fraction(1, 3), 2.0 ** -332),
                        (2.0 ** -300, Fraction(8, 3), 2.0 ** -800),
                        (2.0 ** -600, Fraction(-1, 3), 2.0 ** 200)):
        assert abs(x ** float(p) / exact - 1.0) > 1e-15  # pad is 5e-16
        lo, hi = pow_bounds(x, p)
        assert lo <= exact <= hi


def _exact_pow(x: float, p: Fraction) -> Decimal:
    """x**p as exp(p ln x) in 50-digit decimal: x is taken exactly, and the
    result is good to about 1e-45 relative, far inside any pad."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(p.numerator) / Decimal(p.denominator) * Decimal(x).ln()).exp()


def test_pow_bounds_contains_the_exact_power():
    # an oracle outside the float contract: random rational exponents,
    # including denominators whose float rounding matters (3, 7, 10, 100,
    # 3**20), powers that overflow or underflow the float range, and bases
    # from 1e-9 up to the float just below 1
    rnd = random.Random(20)
    below_one = math.nextafter(1.0, 0.0)
    for i in range(2000):
        q = rnd.choice((1, 3, 7, 10, 100, 3 ** 20))
        p = Fraction(rnd.randint(-400 * q, 600 * q), q)
        if i % 2:
            x = math.exp(rnd.uniform(math.log(1e-9), 0.0))  # log-uniform
        else:
            x = 1.0 - 10.0 ** -rnd.uniform(0.0, 16.0)  # close to 1
        x = min(max(x, 1e-9), below_one)
        lo, hi = pow_bounds(x, p)
        assert Decimal(lo) <= _exact_pow(x, p) <= Decimal(hi), (x, p)


def test_pow_bounds_zero_edge():
    assert pow_bounds(0.0, Fraction(2)) == (0.0, 0.0)
    assert pow_bounds(0.0, Fraction(0)) == (1.0, 1.0)
    assert pow_bounds(0.0, Fraction(-1)) == (math.inf, math.inf)


@pytest.mark.parametrize("x", [1e-9, 0.3, 0.75, 1.0])
def test_term_bounds_is_mul_bounds_of_padded_pow(x):
    # every branch of the row kernel, term by term and bit for bit: positive,
    # negative, straddling, tiny and zero coefficient bounds, exponents with
    # k = 0 and k != 0, and powers that underflow (x = 1e-9, p = 400) or
    # overflow (x = 1e-9, p = -400).  The bounds of +-1e300/3 keep the
    # products with an underflowed power normal, so the corners differ.
    coeffs = [frac_bounds(Fraction(1, 3)), (-2.0, -2.0), (-1.0, 2.0),
              frac_bounds(Fraction(10 ** 300, 3)), frac_bounds(Fraction(-10 ** 300, 3)),
              (0.0, 5e-324), (-5e-324, -0.0), (0.0, 0.0)]
    exponents = [Fraction(3, 2), Fraction(4, 3), Fraction(-8, 3),
                 Fraction(400), Fraction(-400)]
    terms = [(cl, ch, float(p), exponent_rounding(p))
             for cl, ch in coeffs for p in exponents]
    lx = abs(math.log(x))
    want = [mul_bounds(cl, ch, *padded_pow(x, pf, k, lx)) for cl, ch, pf, k in terms]
    los, his = term_bounds(x, terms)
    assert [(lo.hex(), hi.hex()) for lo, hi in zip(los, his)] == \
        [(lo.hex(), hi.hex()) for lo, hi in want]


def test_interval_arithmetic_encloses():
    a = Interval(1.0, 2.0)
    b = Interval(-3.0, 0.5)
    s = a + b
    assert s.lo <= -2.0 and s.hi >= 2.5
    p = a * b
    assert p.lo <= -6.0 and p.hi >= 1.0
    d = a / Interval(2.0, 4.0)
    assert d.lo <= 0.25 and d.hi >= 1.0


def test_interval_division_through_zero():
    d = Interval(1.0, 1.0) / Interval(-1.0, 1.0)
    assert d.lo == -math.inf and d.hi == math.inf
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 1.0) / Interval(0.0, 0.0)


def test_interval_invalid():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_prove_nonneg_simple():
    # x*(1-x) + 1/100 is strictly positive on [0, 1]
    g = lambda a, b: Interval(a, b) * (Interval(1.0, 1.0) - Interval(a, b)) + Interval(0.01, 0.01)
    rep = prove_nonneg(g, 0.0, 1.0)
    assert rep.proved


def test_prove_nonneg_counterexample():
    g = lambda a, b: Interval(a, b) - 0.5  # x - 0.5 < 0 on [0, 0.5)
    rep = prove_nonneg(g, 0.0, 1.0)
    assert not rep.proved
    assert rep.counterexample is not None and rep.counterexample < 0.5


def test_prove_nonneg_box_budget():
    # a claim that is true but needs many boxes near the root
    g = lambda a, b: Interval(a, b) * Interval(a, b)  # x^2 >= 0 but enclosure loose
    rep = prove_nonneg(g, -1.0, 1.0, max_boxes=10_000)
    assert rep.boxes <= 10_001


def test_prove_nonneg_counts_exactly_the_enclosure_evaluations():
    # the loose x^2 enclosure never proves a box around 0, so the proof runs
    # into the box budget or into min_width with point evaluations
    calls = []

    def square(a, b):
        calls.append((a, b))
        return Interval(a, b) * Interval(a, b)

    rep = prove_nonneg(square, -1.0, 1.0, max_boxes=50)
    assert not rep.proved and rep.boxes == len(calls) == 50
    calls.clear()
    rep = prove_nonneg(square, -1.0, 1.0, min_width=1e-3)
    assert not rep.proved and rep.inconclusive
    assert rep.boxes == len(calls) == 45



def _square(a, b):  # x^2 >= 0, but the enclosure never proves a box around 0
    return Interval(a, b) * Interval(a, b)


@pytest.mark.parametrize("enclosure,a,kwargs,reason", [
    (lambda a, b: Interval(a, b) + 1.0, 0.0, {}, "interval bisection"),
    (lambda a, b: Interval(a, b) - 0.5, 0.0, {}, "not sign-definite"),  # counterexample
    (_square, -1.0, {"min_width": 1e-3}, "not sign-definite"),  # inconclusive cells
    (_square, -1.0, {"max_boxes": 50}, "not sign-definite"),    # box budget spent
])
def test_prove_nonneg_sets_its_reason_when_it_returns(enclosure, a, kwargs, reason):
    rep = prove_nonneg(enclosure, a, 1.0, **kwargs)
    assert isinstance(rep, ProofReport) and rep.reason == reason
    assert rep.proved is (reason == "interval bisection")
    if enclosure is _square:
        assert rep.counterexample is None and rep.inconclusive
    else:
        assert (rep.counterexample is None) is rep.proved
