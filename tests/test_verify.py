import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import memsplate.certificates as certificates
import memsplate.verify as verify
from memsplate.certificates import certify_dimension
from memsplate.exprs import Ratio, Signomial
from memsplate.hardy import hr_weight, pq_functions
from memsplate.verify import (SAMPLES, _log_uniform_points, inf_enclosure,
                              prove_signomial_nonneg, sampled_min, sampled_mins)

TABLE_DIMS = (9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 30, 31, 40)

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
    lo, hi, arg, _, _ = inf_enclosure(num, den)
    assert lo <= 1.0 <= hi + 1e-9
    assert hi - lo < 1e-4


def test_inf_enclosure_of_the_negation_brackets_true_max():
    # sup of r(1-r)*4 on (0,1) is 1 at r = 1/2, so inf of its negation is -1
    num = Signomial({1: 4, 2: -4})
    lo, hi, arg, _, _ = inf_enclosure(-num, None)
    assert lo <= -1.0 <= hi
    assert hi - lo < 1e-4
    assert arg == pytest.approx(0.5, abs=1e-3)


def _level_spy(monkeypatch):
    claims = []
    real = verify.prove_signomial_nonneg

    def spy(sig, **kw):
        claims.append(sig)
        return real(sig, **kw)

    monkeypatch.setattr(verify, "prove_signomial_nonneg", spy)
    return claims


def test_a_proved_limit_is_the_only_level(monkeypatch):
    # (1 + r)/(1 + r^2) tends to its inf 1 at r -> 0, and (1 + r) - (1 + r^2)
    # = r (1 - r) >= 0 is provable, so no other level is tried
    claims = _level_spy(monkeypatch)
    num, den = Signomial({0: 1, 1: 1}), Signomial({0: 1, 2: 1})
    lo, hi, _, levels, _ = inf_enclosure(num, den, limit=Fraction(1))
    assert lo == 1.0 and hi == 1.0
    assert claims == [num - Signomial.constant(1) * den] and levels == 1


def test_an_unprovable_limit_falls_back_to_the_level_search(monkeypatch):
    # 4r^2 - 4r + 2 tends to 2 at both ends but dips to 1 at r = 1/2: the
    # limit level fails, and the level search brackets the interior minimum
    claims = _level_spy(monkeypatch)
    g = Signomial({0: 2, 1: -4, 2: 4})
    lo, hi, arg, levels, _ = inf_enclosure(g, limit=Fraction(2))
    assert claims[0] == g - Signomial.constant(2) * Signomial.constant(1)
    assert levels == len(claims) > 1
    assert lo <= 1.0 <= hi and hi - lo < 1e-4
    assert arg == pytest.approx(0.5, abs=1e-3)


def test_a_window_search_stops_on_an_unresolved_cell_at_one(monkeypatch):
    # 1 - r^(10^30) vanishes at r = 1, and every enclosure of its derivative
    # on a cell ending at 1 has a tiny negative lower bound from the
    # underflowed power: no narrower window resolves it
    attempts = []
    real = verify._prove_upper

    def spy(sig, a, depth, max_boxes):
        attempts.append(depth)
        return real(sig, a, depth, max_boxes)

    monkeypatch.setattr(verify, "_prove_upper", spy)
    rep = verify._prove_upper(Signomial({0: 1, 10**30: -1}), 0.5, 4, 10_000)
    assert not rep.proved
    assert attempts == [4, 3]
    assert rep.reason == "zero at r=1; not sign-definite"
    assert rep.boxes <= 10_001


def test_a_window_search_shrinks_the_collar_until_it_proves(monkeypatch):
    # f = (1 - r)((r - 993/1000)^2 + 10^-6) vanishes at r = 1 and is
    # non-increasing only right of its dip near 0.993, so the first windows
    # [1 - 1e-2, 1], [0.995, 1] and [0.9975, 1] fail and [0.99875, 1] proves
    windows = []
    real = verify._prove_upper

    def spy(sig, a, depth, max_boxes):
        rep = real(sig, a, depth, max_boxes)
        if depth < verify._DERIVATIVE_DEPTH:
            windows.append((a, rep.proved))
        return rep

    monkeypatch.setattr(verify, "_prove_upper", spy)
    dip = Signomial({1: 1, 0: Fraction(-993, 1000)}) ** 2 + Signomial.constant(
        Fraction(1, 10**6))
    rep = prove_signomial_nonneg(Signomial({0: 1, 1: -1}) * dip)
    assert windows == [(0.99, False), (0.995, False), (0.9975, False), (0.99875, True)]
    assert rep.proved and rep.boxes == 226
    assert rep.reason == "non-increasing collar + bisection"


def test_a_proof_stops_when_its_whole_budget_is_spent():
    # the denominator of GM1's pointwise condition for the N = 9 pair
    # (V, W) = (P, PQ): its first derivative window at r = 1 fails slowly,
    # so only a budget for the whole proof bounds it
    P, Q = pq_functions()
    V, W = P, P * Q
    cond4 = (W - 2 * V / Ratio.term(1, 2) + 2 * V.diff() / Ratio.term(1, 1)
             - V.diff().diff())
    t0 = time.process_time()
    rep = prove_signomial_nonneg(cond4.den, max_boxes=2000)
    assert time.process_time() - t0 < 1.0
    assert not rep.proved and rep.counterexample is None
    assert 2000 <= rep.boxes <= 2001
    assert rep.reason.startswith("box budget of 2000 spent")


@pytest.mark.parametrize("sig,reason", [
    # no witness of the negative limit above r = 1e-30
    (Signomial({0: Fraction(-1, 10**30), 1: 1}), "negative limit at r=0"),
    # no sign-definite collar wider than 1e-30
    (Signomial({0: Fraction(1, 10**30), 1: -1}),
     "box budget of 5 spent: no sign-definite collar at r=0"),
])
def test_the_point_evaluations_at_zero_count_against_the_budget(sig, reason):
    rep = prove_signomial_nonneg(sig, max_boxes=5)
    assert not rep.proved and rep.boxes == 5 and rep.reason == reason


def _budget_spy(monkeypatch):
    """Record (max_boxes, claim, report) of every level proof."""
    calls = []
    real = verify.prove_signomial_nonneg

    def spy(sig, max_boxes):
        rep = real(sig, max_boxes=max_boxes)
        calls.append((max_boxes, sig, rep))
        return rep

    monkeypatch.setattr(verify, "prove_signomial_nonneg", spy)
    return calls


@pytest.mark.parametrize("budget", [300, 800])
def test_a_spent_level_budget_starts_no_further_level_proof(monkeypatch, budget):
    # 4r^2 - 4r + 2 has its inf 1 at r = 1/2; from the point value 1.04 at
    # r = 0.6 the search takes 19 level proofs and 1,110 boxes, its first
    # proved level being the seventh, after 416 boxes
    monkeypatch.setattr(verify, "_LEVEL_MAX_BOXES", budget)
    calls = _budget_spy(monkeypatch)
    g = Signomial({0: 2, 1: -4, 2: 4})
    lo, hi, _, _, _ = inf_enclosure(g, argmin=0.6)
    spent, proved = 0, []  # the proved levels c, from their claims g - c
    for max_boxes, claim, rep in calls:
        assert spent < budget and max_boxes == budget - spent
        spent += rep.boxes
        if rep.proved:
            proved.append(float(2 - claim.terms[0]))
    assert spent >= budget and len(calls) < 19
    assert lo <= 1.0 <= hi
    if budget == 300:
        assert proved == [] and lo == -np.inf
    else:
        assert proved and lo == proved[-1]


def test_enclosure_orders():
    num = Signomial({0: 2, 1: 1})
    lo, hi, _, _, _ = inf_enclosure(num, None)
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


def test_grid_is_strictly_increasing():
    # the pruned pass bounds a run of consecutive indices by its end points
    for n in (SAMPLES, 20_001):
        assert np.all(np.diff(_log_uniform_points(n)) > 0)


def _assert_whole_grid(pairs, n=SAMPLES):
    """sampled_mins equals the whole-grid evaluation bit for bit; returns it."""
    r = _log_uniform_points(n)
    got = sampled_mins(pairs, n)
    assert [(v.hex(), arg) for v, arg in got] == [
        _whole_grid_min(num, den, r) for num, den in pairs]
    return got


def test_pruned_pass_is_exact_on_every_certificate_pass(monkeypatch):
    # every pass that certify_dimension makes for the 13 table dimensions,
    # each against the whole grid; each pass evaluates only part of the grid
    passes = []
    real = verify.sampled_mins

    def spy(pairs, n=SAMPLES):
        passes.append(pairs)
        return real(pairs, n)

    monkeypatch.setattr(certificates, "sampled_mins", spy)
    for N in TABLE_DIMS:
        certify_dimension(N)
    assert len(passes) == 2 * len(TABLE_DIMS)
    for pairs in passes:
        assert _assert_whole_grid(pairs).points < len(_log_uniform_points(SAMPLES))


@pytest.mark.parametrize("variant,N", [("HR3", 9)] + [
    (v, N) for v in ("HR1", "HR2") for N in (5, 9, 12, 16, 31)])
def test_pruned_pass_is_exact_on_the_weight_pairs(variant, N):
    # the (num, den) pair of each weight, as `hr` samples it
    w = hr_weight(variant, N)
    _assert_whole_grid([(w.num, w.den)])


def _dip(i):
    """K (r - c)^2 - 1 with c = r[i]: above 10 at every seed point when i is
    halfway between two of them in the grid's uniform part, -1 only near c."""
    c = Fraction(float(_log_uniform_points(SAMPLES)[i]))
    K = 10 ** 8
    return Signomial({0: K * c * c - 1, 1: -2 * K * c, 2: K})


def test_a_dip_between_seed_points_is_found():
    r = _log_uniform_points(SAMPLES)
    i = 150_000 + verify._SEED_STRIDE // 2
    assert i % verify._SEED_STRIDE != 0 and r[i] > 0.5
    f = _dip(i)
    q = Signomial({0: 2, 1: 1})  # 2 + r > 0
    assert f(r[::verify._SEED_STRIDE]).min() > 10
    (v, arg), (w, warg) = got = _assert_whole_grid([(f, None), (f * q, q)])
    assert arg == warg == r[i]
    assert v == pytest.approx(-1.0, abs=1e-6) and w == pytest.approx(-1.0, abs=1e-6)
    assert got.points < len(r)


def test_a_denominator_that_changes_sign():
    # 1/(r - 1/2) falls to -inf at 1/2 from below; r^2/(r - 1/2) too, and
    # (r - 1/2)/(r - 1/2) is 1 but NaN-free only off 1/2
    den = Signomial({0: Fraction(-1, 2), 1: 1})
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_whole_grid([(Signomial.constant(1), den),
                            (Signomial({2: 1}), den), (den, den)])


def test_a_term_that_overflows_at_the_grid_start():
    # r^-40 overflows at r = 1e-9: 1 + r^-40 is inf there and -r^-40 is -inf,
    # a minimum no cell bound can undercut
    p = Signomial({-40: 1})
    with np.errstate(over="ignore", invalid="ignore"):
        (v, _), (w, warg), _ = _assert_whole_grid(
            [(1 + p, None), (-p, None), (1 + p, 1 + Signomial({-39: 1}))])
    assert v == pytest.approx(2.0, rel=1e-3)
    assert w == -np.inf and warg == _log_uniform_points(SAMPLES)[0]


def test_nothing_prunable_evaluates_the_whole_grid():
    # a constant ratio has no cell above its minimum
    sig = Signomial({0: 3, Fraction(5, 3): -1})
    assert _assert_whole_grid([(3 * sig, sig)]).points == len(
        _log_uniform_points(SAMPLES))


_EXPS = st.one_of(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(4, 3),
                                   Fraction(-8, 3), Fraction(400), Fraction(-400)]),
                  st.fractions(min_value=-3, max_value=6, max_denominator=15))
_COEFS = st.fractions(min_value=-1000, max_value=1000, max_denominator=99).filter(bool)
_SIGNOMIALS = st.dictionaries(_EXPS, _COEFS, min_size=1, max_size=5).map(Signomial)


@settings(max_examples=150, deadline=None)
@given(_SIGNOMIALS,
       st.one_of(st.none(), _SIGNOMIALS,
                 _SIGNOMIALS.map(lambda s: s + Signomial.constant(10 ** 4))))
@np.errstate(all="ignore")
def test_pruned_pass_matches_the_whole_grid_on_random_ratios(num, den):
    n = 20_001
    r = _log_uniform_points(n)
    try:
        want = _whole_grid_min(num, den, r)
    except ValueError:  # all NaN
        with pytest.raises(ValueError):
            sampled_mins([(num, den)], n)
        return
    # a second pair shares a signomial with the first
    got = sampled_mins([(num, den), (den or num, None)], n)
    assert [(v.hex(), arg) for v, arg in got] == [
        want, _whole_grid_min(den or num, None, r)]
    # stronger than the minimum: every point at or below the seed minimum,
    # a tie with it included, is a seed or a candidate
    pairs = [(num, den)]
    rows = {id(s): [(float(c), float(p)) for p, c in s.terms.items()]
            for s in (num, den) if s is not None}
    seed_at = np.arange(0, len(r), verify._SEED_STRIDE)
    seeds = verify._grid_pass(pairs, rows, r, seed_at)
    if seeds[0] is not None:  # else no cell is dropped
        kept = verify._candidate_points(pairs, rows, r, seeds)
        v = num(r) if den is None else num(r) / den(r)
        low = np.flatnonzero(v <= seeds[0][0])
        assert np.isin(low, np.union1d(kept, seed_at)).all()


def test_unbounded_point_enclosure_gives_an_uninformative_bound():
    # the ratio is 1 on (0, 1), but r^400 underflows at the sampled argmin,
    # so the verified point enclosure there is unbounded
    p400 = Signomial({400: 1})
    with np.errstate(all="ignore"):
        lo, hi, _, _, _ = inf_enclosure(p400, p400)
        assert lo == -np.inf and hi >= 1.0
        lo, hi, _, _, _ = inf_enclosure(-Signomial({0: 1, 400: 1}), p400)
        assert lo == -np.inf


def test_overflowing_point_enclosure_gives_an_infinite_lower_bound():
    # -r^-400 has inf -inf on (0, 1); at the sampled argmin 1e-9 the power
    # overflows, so the verified upper bound is about -DBL_MAX and no finite
    # level lies below it
    with np.errstate(over="ignore"):
        lo, hi, arg, _, _ = inf_enclosure(-Signomial({-400: 1}))
    assert lo == -np.inf
    assert hi <= -1e308 and arg == pytest.approx(1e-9)
