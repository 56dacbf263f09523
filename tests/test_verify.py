from fractions import Fraction

import numpy as np
import pytest

import memsplate.verify as verify
from memsplate.exprs import Signomial
from memsplate.verify import (SAMPLES, _log_uniform_points, inf_enclosure,
                              prove_signomial_nonneg, sampled_min, sampled_mins)

# q(r) = 9 - 4 r^(5/3) appears in the m = 3 candidate profile; q >= 5 on [0, 1]
# with equality only at r = 1, so q^3 >= 125 is tight at the endpoint.
Q3 = Signomial({0: 9, Fraction(5, 3): -4}) ** 3


def test_prove_tight_endpoint_bound():
    rep = prove_signomial_nonneg(Q3 - Signomial.constant(125))
    assert rep.proved


def test_refute_just_above_endpoint_value():
    rep = prove_signomial_nonneg(Q3 - Signomial.constant(126))
    assert not rep.proved
    assert rep.counterexample == pytest.approx(1.0, abs=1e-6)


def test_prove_cleared_quadratic_claim():
    # 27*(3m-4)^3 * lambda' >= [3m*lbar + 4c r^(m-4/3)] q^2 at the m=2 level:
    # the cleared inequality vanishes in the limit r -> 0 but stays provable
    lbar = Fraction(3800, 81)      # value for the nine-dimensional problem
    c = Fraction(2 * 0 * 9 * 7)    # c(2, 9) = 0: middle factor (m-2) kills it
    q = Signomial({0: 2, Fraction(2, 3): -4})   # 3m - 4 r^(m-4/3), m = 2
    claim = Signomial.constant(27 * lbar * 8) - (
        Signomial.constant(6 * lbar) + Signomial({Fraction(-2): 4 * c})) * q ** 2
    rep = prove_signomial_nonneg(claim)
    assert rep.proved


def test_prove_boundary_degenerate_product():
    # (1 - r^3)(1 - a r^4)^3 with a = 99/100: positive inside, simple zero at 1
    f = Signomial({0: 1, 3: -1}) * Signomial({0: 1, 4: Fraction(-99, 100)}) ** 3
    rep = prove_signomial_nonneg(f)
    assert rep.proved


def test_refute_interior_dip():
    # 1 - 5r + 5r^2: positive at both endpoints, dips to -1/4 at r = 1/2
    g = Signomial({0: 1, 1: -5, 2: 5})
    rep = prove_signomial_nonneg(g)
    assert not rep.proved
    assert rep.counterexample is not None
    assert 0.2 < rep.counterexample < 0.8
    assert float(g(rep.counterexample)) < 0


def test_sampled_min_matches_calculus():
    # min of 1 - 3 r^2 + 2 r^3 on (0,1) is 0 at r = 1
    g = Signomial({0: 1, 2: -3, 3: 2})
    v, arg = sampled_min(g, None, n=200_001)
    assert v == pytest.approx(0.0, abs=1e-9)
    assert arg == pytest.approx(1.0, abs=1e-4)


def test_sampled_min_of_ratio():
    # (1 + r^2) / (2 - r) has min 1/2 at r -> 0
    num = Signomial({0: 1, 2: 1})
    den = Signomial({0: 2, 1: -1})
    v, arg = sampled_min(num, den, n=100_001)
    assert v == pytest.approx(0.5, rel=1e-6)
    assert arg < 1e-6


def test_inf_enclosure_brackets_true_min():
    # num/den = (1 + r)/(1 + r^2): minimum on (0,1) is 1 (limit r -> 0)
    num = Signomial({0: 1, 1: 1})
    den = Signomial({0: 1, 2: 1})
    lo, hi, arg = inf_enclosure(num, den, rel_tol=1e-6, samples=50_001)
    assert lo <= 1.0 <= hi + 1e-9
    assert hi - lo < 1e-4


def test_inf_enclosure_of_the_negation_brackets_true_max():
    # sup of r(1-r)*4 on (0,1) is 1 at r = 1/2, so inf of its negation is -1
    num = Signomial({1: 4, 2: -4})
    lo, hi, arg = inf_enclosure(-num, None, rel_tol=1e-6, samples=50_001)
    assert lo <= -1.0 <= hi
    assert hi - lo < 1e-4
    assert arg == pytest.approx(0.5, abs=1e-3)


def test_enclosure_orders():
    num = Signomial({0: 2, 1: 1})
    lo, hi, _ = inf_enclosure(num, None, rel_tol=1e-6, samples=20_001)
    assert lo <= hi
    assert lo <= 2.0 <= hi + 1e-6


def _whole_grid_min(num, den, r):
    v = num(r) if den is None else num(r) / den(r)
    i = int(np.nanargmin(v))
    return float(v[i]).hex(), float(r[i])


def test_shared_pass_equals_termwise_evaluation_bit_for_bit():
    n = 20_001
    r = _log_uniform_points(n)
    assert len(r) % verify._CHUNK != 0 and len(r) > 2 * verify._CHUNK
    a = Signomial({0: 3, Fraction(5, 3): -4, Fraction(10, 3): Fraction(7, 9)})
    b = Signomial({Fraction(5, 3): 2, 4: 1, Fraction(1, 7): Fraction(1, 3)})
    c = Signomial({Fraction(-1, 3): 1, Fraction(11, 5): -2})
    pairs = [(a, b), (b, a), (c, None), (-a, None), (a - b, c * c)]
    got = sampled_mins(pairs, n)
    assert [(v.hex(), arg) for v, arg in got] == [
        _whole_grid_min(num, den, r) for num, den in pairs]


@pytest.mark.parametrize("shift", [0, 1])
def test_tie_across_a_block_boundary_keeps_the_first_occurrence(monkeypatch, shift):
    # r^400 / r^400 is 0/0 = NaN where r^400 underflows and exactly 1 after;
    # with shift 0 every block before the first 1 is all NaN, with shift 1
    # the first 1 ends a block and the next block starts with a tie
    n = 20_001
    r = _log_uniform_points(n)
    sig = Signomial({400: 1})
    i0 = int(np.flatnonzero(sig(r) > 0)[0])
    monkeypatch.setattr(verify, "_CHUNK", i0 + shift)
    with np.errstate(invalid="ignore"):
        v, arg = sampled_min(sig, sig, n)
        expected = _whole_grid_min(sig, sig, r)
    assert (v, arg) == (1.0, float(r[i0]))
    assert (v.hex(), arg) == expected


def test_all_nan_ratio_raises_like_nanargmin():
    zero = Signomial()  # 0/0 at every point
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            _whole_grid_min(zero, zero, _log_uniform_points(SAMPLES))
        with pytest.raises(ValueError):
            sampled_min(zero, zero)


def test_grid_is_cached_and_read_only():
    r = _log_uniform_points(SAMPLES)
    assert _log_uniform_points(SAMPLES) is r
    with pytest.raises(ValueError):
        r[0] = 0.5


def test_unbounded_point_enclosure_gives_an_uninformative_bound():
    # the ratio is 1 on (0, 1), but r^400 underflows at the sampled argmin,
    # so the verified point enclosure there is unbounded
    p400 = Signomial({400: 1})
    with np.errstate(all="ignore"):
        lo, hi, _ = inf_enclosure(p400, p400)
        assert lo == -np.inf and hi >= 1.0
        lo, hi, _ = inf_enclosure(-Signomial({0: 1, 400: 1}), p400)
        assert lo == -np.inf


def test_overflowing_point_enclosure_gives_an_infinite_lower_bound():
    # -r^-400 has inf -inf on (0, 1); at the sampled argmin 1e-9 the power
    # overflows, so the verified upper bound is about -DBL_MAX and no finite
    # level lies below it
    with np.errstate(over="ignore"):
        lo, hi, arg = inf_enclosure(-Signomial({-400: 1}))
    assert lo == -np.inf
    assert hi <= -1e308 and arg == pytest.approx(1e-9)
