import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import memsplate.certificates as certificates
import memsplate.exprs as exprs
import memsplate.verify as verify
from memsplate.certificates import (CandidateW, _cond1_parts, _cond2_parts,
                                    certify_dimension, check_cond1, check_cond2,
                                    table1_rows, table_candidate,
                                    threshold_relation, wm_signomial)
from memsplate.exprs import Ratio, Signomial
from memsplate.grid import InvalidArgument
from memsplate.hardy import hr_weight, radial_laplacian
from memsplate.operators import (hardy_rellich_constant, lambda_bar,
                                 power_bilaplacian_coeff)
from memsplate.verify import (SAMPLES, _log_uniform_points, prove_signomial_nonneg,
                              sampled_min)
from test_intervals import _exact_pow


def test_wm_domain():
    with pytest.raises(InvalidArgument):
        wm_signomial(Fraction(4, 3))
    with pytest.raises(InvalidArgument):
        wm_signomial(1)


def test_wm_profile_values():
    # m = 3: 1 - w = r^(4/3) (9 - 4 r^(5/3)) / 5, exactly; w(1) = w'(1) = 0
    w = wm_signomial(3)
    assert 1 - w == Signomial({Fraction(4, 3): Fraction(9, 5), 3: Fraction(-4, 5)})
    assert w.value_at_one() == 0 and w.diff().value_at_one() == 0


def test_wm_bilaplacian_matches_coefficients():
    # Delta^2 w_m = [3m*lbar r^(-8/3) + 4c(m,N) r^(m-4)] / (3m-4), exactly
    for m, N in ((3, 12), (Fraction(14, 5), 9), (2, 31)):
        bilap = radial_laplacian(radial_laplacian(Ratio(wm_signomial(m)), N), N)
        expect = Signomial({Fraction(-8, 3): 3 * m * lambda_bar(N),
                            m - 4: 4 * power_bilaplacian_coeff(m, N)}) * Fraction(1, 3 * m - 4)
        assert bilap.den == Signomial.constant(1)
        assert bilap.num == expect, (m, N)


def test_m2_sharpest_level_is_exact():
    # for m = 2 the sharpest admissible multiplier is exactly 27 * lbar
    N = 31
    cand = table_candidate(N)
    assert cand.m == 2
    rep = check_cond1(cand)
    exact = 27.0 * float(lambda_bar(N))
    lo, hi = rep.sharpest_enclosure
    assert lo <= exact <= hi
    assert hi - lo < 1e-10 * exact
    assert rep.proved


def test_m3_normalization_identity():
    # sup over (0,1) of 125 / (9 - 4 r^(5/3))^3 equals 1 (at r = 1)
    q = 9.0 - 4.0 * np.linspace(1e-9, 1.0, 100_001) ** (5.0 / 3.0)
    assert np.max(125.0 / q ** 3) == pytest.approx(1.0, abs=1e-12)


def test_candidate_validation():
    with pytest.raises(InvalidArgument):
        CandidateW(m=3, N=10, lam_prime=1, beta=1, hr_variant="HR3")  # HR3 is N=9 only
    with pytest.raises(InvalidArgument):
        CandidateW(m=3, N=4, lam_prime=1, beta=1, hr_variant="HR1")
    with pytest.raises(InvalidArgument):
        CandidateW(m=1, N=12, lam_prime=1, beta=1, hr_variant="HR1")


def test_table_candidate_regimes():
    c9 = table_candidate(9)
    assert (c9.m, c9.lam_prime, c9.beta, c9.hr_variant) == (
        Fraction(14, 5), 366, Fraction(733, 2), "HR3")
    c12 = table_candidate(12)
    assert (c12.m, c12.lam_prime, c12.beta) == (3, 680, 1071)
    assert c12.hr_variant == "HR2"
    c20 = table_candidate(20)
    assert c20.m == 3 and c20.hr_variant == "HR1"
    assert c20.lam_prime == c20.beta == hardy_rellich_constant(20) / 2
    c40 = table_candidate(40)
    assert c40.m == 2 and c40.lam_prime == 27 * lambda_bar(40)
    with pytest.raises(InvalidArgument):
        table_candidate(8)


def test_threshold_relation():
    for N in range(5, 30):
        two_lbar, hn, holds = threshold_relation(N)
        assert two_lbar == 2 * lambda_bar(N)
        assert hn == hardy_rellich_constant(N)
        assert holds == (N >= 9)
    with pytest.raises(InvalidArgument):
        threshold_relation(4)


@pytest.mark.parametrize("N", [9, 12, 17, 31])
def test_certify_dimensions_interval(N):
    rep = certify_dimension(N)
    assert rep.verdict == "Pass"
    assert rep.cond1.proved and rep.cond2.proved


@pytest.fixture
def claims(monkeypatch):
    """The (label, claim, num, den, level) of each `_check_inf` call, in order."""
    seen = []
    real = certificates._check_inf

    def spy(label, claim, slack_den, num, den, level):
        seen.append((label, claim, num, den, level))
        return real(label, claim, slack_den, num, den, level)

    monkeypatch.setattr(certificates, "_check_inf", spy)
    return seen


def test_n9_cleared_claim_box_counts(claims):
    # frozen: every box a proof evaluates is counted, the r = 0 collar search,
    # every derivative window at r = 1 and the point evaluations of
    # boxes narrower than min_width included; the same counts show that the
    # enclosures walk the same bisection tree.  The enclosure searches'
    # proved levels imply both cleared claims, so the reports count no boxes
    # for them; proved by themselves they take 12 and 78
    cand = table_candidate(9)
    assert check_cond1(cand).boxes == 0
    assert check_cond2(cand).boxes == 0
    assert [prove_signomial_nonneg(claim).boxes for _, claim, *_ in claims] == [12, 78]
    _, den = _cond2_parts(cand, hr_weight(cand.hr_variant, 9))
    rep = prove_signomial_nonneg(den)
    assert rep.proved and rep.reason.startswith("non-increasing collar")
    assert rep.boxes == 22


def test_each_point_evaluates_each_term_power_once(monkeypatch):
    # one proof of the N = 9 cleared cond2 claim: a signomial (the factored
    # claim or its derivative) evaluates its term powers at a point in one
    # call of the row kernel, only at a nonzero endpoint or centre that its
    # enclosures met, and never twice for that point
    cand = table_candidate(9)
    num, den = _cond2_parts(cand, hr_weight(cand.hr_variant, 9))
    claim = num - Signomial.constant(cand.beta) * den
    real_kernel, real_termwise = exprs.term_bounds, Signomial._termwise
    rows = []  # (id of the signomial's compiled table, point) per kernel call

    def kernel_spy(x, terms):
        rows.append((id(terms), x))
        return real_kernel(x, terms)

    met = {}  # id -> (signomial, points met); holding it keeps the id unique

    def termwise_spy(sig, a, b):
        met.setdefault(id(sig), (sig, set()))[1].update((a, b))
        return real_termwise(sig, a, b)

    monkeypatch.setattr(exprs, "term_bounds", kernel_spy)
    monkeypatch.setattr(Signomial, "_termwise", termwise_spy)
    rep = prove_signomial_nonneg(claim)
    assert rep.proved and rep.boxes == 78
    assert len(rows) == len(set(rows))
    assert set(rows) == {(id(sig._table), x) for sig, points in met.values()
                         for x in points if x != 0.0}
    # the centred forms' derivative rows are counted too
    derivatives = [sig._diff for sig, _ in met.values() if sig._diff is not None]
    assert derivatives and all(id(d) in met for d in derivatives)


_FROZEN_INTERVAL_ANSWERS = [
    # boxes: the report's, then those of the cleared claim's own proof; the
    # table dimensions keep the ids they had before `sampled` was pinned
    pytest.param(9, check_cond1, ("0x1.95964c255f3ccp+1", "0x1.da402877d3c8cp-2"),
                 "0x1.6cf48f8423893p+8",
                 ("0x1.6cf48f8423880p+8", "0x1.6cf57eb17af35p+8"), (0, 12),
                 id="9-check_cond1-0x1.6cf48f8423893p+8-enclosure0-24"),
    pytest.param(9, check_cond2, ("0x1.9e867d575c487p-2", "0x1.01ffd4bf25ee6p-1"),
                 "0x1.6ee7a19f55d76p+8",
                 ("0x1.6ee6b12aec436p+8", "0x1.6ee7a19f55db4p+8"), (0, 78),
                 id="9-check_cond2-0x1.6ee7a19f55d76p+8-enclosure1-366"),
    pytest.param(12, check_cond1, ("0x1.e3f07e93f7936p+3", "0x1.3892a7e363c52p-1"),
                 "0x1.4fd7b2551d848p+9",
                 ("0x1.4fd7b2551d835p+9", "0x1.4fd88e6e25d74p+9"), (0, 8),
                 id="12-check_cond1-0x1.4fd7b2551d848p+9-enclosure2-18"),
    pytest.param(12, check_cond2, ("0x1.56125916adadap-1", "0x1.5022876843e40p-1"),
                 "0x1.0beac24b22d5bp+10",
                 ("0x1.0bea12b61e25fp+10", "0x1.0beac24b22d8ap+10"), (0, 31),
                 id="12-check_cond2-0x1.0beac24b22d5bp+10-enclosure3-155"),
    # off-table candidates; cond2 refutes beta = 737/2 at N = 9
    pytest.param(CandidateW(Fraction(14, 5), 9, 366, Fraction(737, 2), "HR3"),
                 check_cond1, ("0x1.95964c255f3ccp+1", "0x1.da402877d3c8cp-2"),
                 "0x1.6cf48f8423893p+8",
                 ("0x1.6cf48f8423880p+8", "0x1.6cf57eb17af35p+8"), (0, 12),
                 id="9-beta737/2-check_cond1"),
    pytest.param(CandidateW(Fraction(14, 5), 9, 366, Fraction(737, 2), "HR3"),
                 check_cond2, ("-0x1.985e60aa28b29p+0", "0x1.01ffd4bf25ee6p-1"),
                 "0x1.6ee7a19f55d76p+8",
                 ("0x1.6ee6b12aec436p+8", "0x1.6ee7a19f55db4p+8"), (112, 112),
                 id="9-beta737/2-check_cond2"),
    pytest.param(CandidateW(3, 12, 1071, 680, "HR2"), check_cond1,
                 ("0x1.f60f60f2e982fp+8", "0x1.b522d80408d65p-1"),
                 "0x1.4fd7b2551d848p+9",
                 ("0x1.4fd7b2551d835p+9", "0x1.4fd88e6e25d74p+9"), (0, 2),
                 id="12-lam1071-beta680-check_cond1"),
    pytest.param(CandidateW(3, 12, 1071, 680, "HR2"), check_cond2,
                 ("0x1.87ab092c8b569p+8", "0x1.5022876843e40p-1"),
                 "0x1.0beac24b22d5bp+10",
                 ("0x1.0bea12b61e25fp+10", "0x1.0beac24b22d8ap+10"), (0, 17),
                 id="12-lam1071-beta680-check_cond2"),
    pytest.param(CandidateW(3, 10, 600, 487, "HR2"), check_cond1,
                 ("0x1.94c32e7c3895bp+7", "0x1.9b380ba72b3c5p-1"),
                 "0x1.c0d033496300bp+8",
                 ("0x1.c0d0334962ff4p+8", "0x1.c0d1596bc2b42p+8"), (0, 4),
                 id="10-lam600-beta487-check_cond1"),
    pytest.param(CandidateW(3, 10, 600, 487, "HR2"), check_cond2,
                 ("0x1.74f179074619ap-2", "0x1.2c50d2d1aac21p-1"),
                 "0x1.e75d3c5e41d16p+8",
                 ("0x1.e75bfcf81cbb8p+8", "0x1.e75d3c5e41d67p+8"), (0, 31),
                 id="10-lam600-beta487-check_cond2"),
]


@pytest.mark.parametrize("N,check,sampled,sharpest,enclosure,boxes",
                         _FROZEN_INTERVAL_ANSWERS)
def test_interval_tier_answers_are_frozen(N, check, sampled, sharpest, enclosure,
                                         boxes, claims):
    # frozen as float hex: the sampled (margin, argmin) and the prover's
    # enclosures must not move by one ulp; N is a table dimension or an
    # off-table candidate.  A report with no boxes of its own names the
    # proved level that implies its claim: the enclosure's lower end on the
    # infimum side, where cond1 runs on -F
    cand = N if isinstance(N, CandidateW) else table_candidate(N)
    rep = check(cand)
    assert (rep.margin.hex(), rep.argmin.hex()) == sampled
    assert rep.sharpest.hex() == sharpest
    assert tuple(x.hex() for x in rep.sharpest_enclosure) == enclosure
    [(label, claim, _, _, level)] = claims
    own = prove_signomial_nonneg(claim)
    assert (rep.boxes, own.boxes) == boxes
    assert rep.proved == own.proved
    lo = (float.fromhex(enclosure[0]) if check is check_cond2
          else -float.fromhex(enclosure[1]))
    implied = f"{label} claim implied by the proved level {lo!r} >= the claim's level {level}"
    assert (implied in rep.notes) == (rep.boxes == 0)


def _exact_value(sig: Signomial, x: float) -> Decimal:
    """sig(x) in 50-digit decimal, each power as exp(p ln x); at x = 0, the
    constant term of a signomial with no negative power."""
    with localcontext() as ctx:
        ctx.prec = 50
        if x == 0.0:
            assert sig.min_power >= 0
            c = sig.terms.get(Fraction(0), Fraction(0))
            return Decimal(c.numerator) / Decimal(c.denominator)
        return sum((Decimal(c.numerator) / Decimal(c.denominator) * _exact_pow(x, p)
                    for p, c in sig.terms.items()), Decimal(0))


@pytest.mark.parametrize("N,check,sampled,sharpest,enclosure,boxes",
                         _FROZEN_INTERVAL_ANSWERS)
def test_frozen_enclosures_hold_at_exact_values(N, check, sampled, sharpest, enclosure,
                                               boxes):
    # an oracle outside the prover: the ratio's exact value at its sampled
    # extremum and at 20 fixed points lies above the enclosed inf of cond2,
    # and below the enclosed sup of cond1
    cand = N if isinstance(N, CandidateW) else table_candidate(N)
    if check is check_cond1:
        num, den = _cond1_parts(cand.m, cand.N)
        _, arg = sampled_min(-num, den)
    else:
        num, den = _cond2_parts(cand, hr_weight(cand.hr_variant, cand.N))
        _, arg = sampled_min(num, den)
    lo, hi = (Decimal(float.fromhex(x)) for x in enclosure)
    rnd = random.Random(5)
    for x in [arg] + [rnd.random() for _ in range(20)]:
        with localcontext() as ctx:
            ctx.prec = 50
            value = _exact_value(num, x) / _exact_value(den, x)
        if check is check_cond1:
            assert value <= hi, x
        else:
            assert lo <= value, x


def test_sampled_enclosures_of_a_frozen_proof_hold_at_exact_values(monkeypatch):
    # an oracle outside the prover: a fixed-seed sample of the box
    # enclosures that the N = 9 cond2 claim proof evaluates (frozen at 78
    # boxes, one enclosure each), and the collar boxes at r = 0, contain the
    # exact values at each box's ends and midpoint
    cand = table_candidate(9)
    num, den = _cond2_parts(cand, hr_weight(cand.hr_variant, 9))
    claim = num - Signomial.constant(cand.beta) * den
    real = Signomial.enclosure
    seen = []  # (signomial, a, b, enclosure) per call

    def spy(sig, a, b):
        enc = real(sig, a, b)
        seen.append((sig, a, b, enc))
        return enc

    monkeypatch.setattr(Signomial, "enclosure", spy)
    assert prove_signomial_nonneg(claim).boxes == len(seen) == 78
    monkeypatch.undo()
    collar = [call for call in seen if call[1] == 0.0]
    assert len(collar) == 3
    for sig, a, b, enc in collar + random.Random(23).sample(seen, 40):
        for x in (a, 0.5 * (a + b), b):
            assert Decimal(enc.lo) <= _exact_value(sig, x) <= Decimal(enc.hi), (a, b, x)


def test_enclosure_searches_stop_at_their_tolerance():
    # a level search ends once its proved level lies within _LEVEL_REL_TOL
    # times the scale below the lowest unproved one, so a proved first anchor
    # ends it: N = 9 cond2 runs its endpoint limit and that anchor, and the
    # 26 searches of a table pass run 45 level proofs
    levels = {}
    for N in [*range(9, 18), 20, 30, 31, 40]:
        rep = certify_dimension(N)
        levels[N] = (rep.cond1.levels, rep.cond2.levels)
    assert levels[9][1] == 2
    assert sum(map(sum, levels.values())) == 45


@pytest.mark.parametrize("check", [check_cond1, check_cond2])
def test_each_check_samples_the_grid_once(monkeypatch, check):
    # the margin and sharpest ratios share one pass; the sharpest-value
    # enclosure reuses that pass's argmin instead of resampling
    passes = []
    real = verify.sampled_mins

    def spy(pairs, n=verify.SAMPLES):
        passes.append(len(pairs))
        return real(pairs, n)

    monkeypatch.setattr(certificates, "sampled_mins", spy)
    monkeypatch.setattr(verify, "sampled_mins", spy)
    rep = check(table_candidate(17))
    assert passes == [2]
    assert rep.sharpest_enclosure is not None and rep.proved


def test_implied_claims_are_the_cleared_claims_and_hold(claims):
    # an oracle for the implication: every check's claim is num - level*den
    # term for term, so a proved level lo >= level implies it; lo is the
    # enclosure's lower end on the infimum side (cond1 runs on -F), and each
    # implied claim also holds by its own proof.  24 of the 26 conditions of
    # a table pass are implied
    reports = []
    for N in [*range(9, 18), 20, 30, 31, 40]:
        cand = table_candidate(N)
        reports += [check_cond1(cand), check_cond2(cand)]
    assert len(claims) == len(reports) == 26
    implied = 0
    for rep, (label, claim, num, den, level) in zip(reports, claims):
        assert claim == num - Signomial.constant(level) * den
        if any("implied" in note for note in rep.notes):
            implied += 1
            lo = (rep.sharpest_enclosure[0] if label == "cond2"
                  else -rep.sharpest_enclosure[1])
            assert Fraction(lo) >= level
            assert rep.proved and rep.boxes == 0
            assert prove_signomial_nonneg(claim).proved
        else:
            assert rep.proved and rep.boxes > 0
    assert implied == 24


def test_a_condition_counts_every_box_it_spends_and_repeats_them():
    # N = 9 cond2: the denominator's sign proof, the level search and the
    # claim's own proof (none: a proved level implies it) are counted apart,
    # and a second run gives the same counters
    def counters(rep):
        return rep.den_boxes, rep.level_boxes, rep.boxes, rep.levels, rep.sampled_points

    cand = table_candidate(9)
    first = counters(check_cond2(cand))
    assert first == counters(check_cond2(cand))
    assert first[:4] == (22, 99, 0, 2)


def test_a_claim_below_the_proved_level_gets_its_own_proof():
    # N = 31 cond1: lambda' = 27 lbar is the exact limit of F at r -> 0, and
    # the search proves that limit; but its lower bound on -F is the limit's
    # float lower bound, which lies below -lambda', so it implies nothing and
    # the claim is proved by its own bisection
    cand = table_candidate(31)
    rep = check_cond1(cand)
    assert rep.levels == 1
    assert Fraction(-rep.sharpest_enclosure[1]) < -cand.lam_prime
    assert rep.proved and rep.boxes == 2
    assert not any("implied" in note for note in rep.notes)


def test_a_claim_with_no_proved_level_gets_its_own_proof(monkeypatch):
    # with no box for the level search no level is proved, and the N = 9
    # cond2 claim is proved by its own bisection, in its frozen 78 boxes
    monkeypatch.setattr(verify, "_LEVEL_MAX_BOXES", 0)
    rep = check_cond2(table_candidate(9))
    assert rep.sharpest_enclosure[0] == -np.inf
    assert rep.proved and rep.boxes == 78
    assert rep.notes == ["cond2 sharpest value unbounded: no level was proved"]


def test_certify_rejects_subcritical_dim():
    with pytest.raises(InvalidArgument):
        certify_dimension(8)


def test_certify_refutes_bad_multiplier():
    # beta far above the certified range cannot be cleared
    cand = CandidateW(m=Fraction(14, 5), N=9, lam_prime=366, beta=500,
                      hr_variant="HR3")
    rep = check_cond2(cand)
    assert rep.margin < 0 and rep.proved is False
    assert certify_dimension(9, cand).verdict == "Fail"


def test_a_beta_just_above_the_enclosure_fails_by_proof():
    # beta = 366.90481 lies above the proved enclosure of inf G (N = 9, HR3),
    # yet its sampled margin is only -8.8e-8, below 1e-9 * beta in modulus:
    # no margin tolerance tells it from a valid beta.  The proof refutes the
    # claim at an interior counterexample, and the certificate fails
    cand = CandidateW(Fraction(14, 5), 9, 366, Fraction(36690481, 100000), "HR3")
    rep = check_cond2(cand)
    lo, hi = rep.sharpest_enclosure
    assert hi < cand.beta and -1e-9 * float(cand.beta) < rep.margin < 0
    assert rep.proved is False
    assert rep.notes[0] == "cond2 claim not proved: not sign-definite"
    assert rep.notes[1].startswith("counterexample near r=0.50")
    rep = certify_dimension(9, cand)
    assert rep.verdict == "Fail" and rep.cond1.proved


@pytest.mark.parametrize("check,label", [(check_cond1, "cond1"), (check_cond2, "cond2")])
def test_interval_tier_refutes_a_negative_limit_at_the_origin(check, label):
    # lambda' = 300 and beta = 500 both leave a cleared claim that is
    # negative as r -> 0, so the proof stops at its first witness
    cand = CandidateW(Fraction(14, 5), 9, 300, 500, "HR3")
    rep = check(cand)
    assert rep.proved is False and rep.boxes == 1
    assert rep.notes == [f"{label} claim not proved: negative limit at r=0",
                         "counterexample near r=0.25"]


def test_interval_tier_refutes_an_interior_dip():
    # lambda' = 600 lies below the sharpest lambda' ~ 671.69 for (m = 3,
    # N = 12), and the cleared cond1 claim goes negative inside (0, 1)
    rep = check_cond1(CandidateW(3, 12, 600, 2000, "HR2"))
    assert rep.proved is False
    assert rep.notes[0] == "cond1 claim not proved: not sign-definite"
    assert rep.notes[1].startswith("counterexample near r=")
    lo, hi = rep.sharpest_enclosure
    assert 600 < lo <= rep.sharpest <= hi


def test_interval_tier_refuses_an_unproved_denominator(monkeypatch):
    # W = (-1)/(-1) is the constant 1, but its cleared denominator is
    # negative, so neither the cond2 claim nor any level of the sharpest
    # value is attempted (the level proofs go through the verify module's
    # name, the denominator proof through the certificates module's), and
    # the report carries no enclosure
    level_proofs = []
    real = verify.prove_signomial_nonneg

    def spy(sig, **kw):
        level_proofs.append(sig)
        return real(sig, **kw)

    monkeypatch.setattr(verify, "prove_signomial_nonneg", spy)
    cand = table_candidate(12)
    monkeypatch.setattr(certificates, "hr_weight", lambda variant, N: Ratio(-1, -1))
    rep = check_cond2(cand)
    assert level_proofs == []
    assert rep.proved is False and rep.boxes is None
    assert rep.sharpest_enclosure is None and rep.levels == 0
    assert rep.notes == ["cond2 denominator sign not proved: negative limit at r=0",
                         "cond2 sharpest value not enclosed: no level is proved "
                         "without the denominator sign"]


def test_n9_computed_sharpest_values():
    rep = certify_dimension(9)
    assert rep.verdict == "Pass"
    # frozen one-percent checks of the computed sharpest levels
    assert rep.sharpest_lam_prime == pytest.approx(364.957, abs=0.5)
    assert rep.sharpest_beta == pytest.approx(366.904, abs=0.5)
    assert any("366.5" in n or "733/2" in n for n in rep.notes)


def test_table1_rows_sampled():
    rows = table1_rows(dims=[9, 12, 31])
    byN = {r["N"]: r for r in rows}
    assert byN[9]["verdict"] == "Pass" and byN[9]["note"]
    assert byN[12]["verdict"] == "Pass"
    assert byN[12]["lam_prime_given"] == 680.0
    assert byN[12]["beta_given"] == 1071.0
    assert byN[31]["m"] == 2


def test_table1_interval_pass_fails_no_derivative_window(monkeypatch):
    # frozen counts of one `table1 --rigor interval` pass: each zero at r = 1
    # tries the narrow collar first, so no derivative window at any depth
    # fails, and the 73 sign proofs (the denominators, the enclosures' level
    # proofs and the claims) take 940 boxes
    failed_windows, proof_boxes = [], []
    real_upper, real_proof = verify._prove_upper, verify.prove_signomial_nonneg

    def upper_spy(sig, a, depth, max_boxes):
        rep = real_upper(sig, a, depth, max_boxes)
        if depth < verify._DERIVATIVE_DEPTH and not rep.proved:
            failed_windows.append((a, depth))
        return rep

    def proof_spy(sig, max_boxes=2_000_000):
        rep = real_proof(sig, max_boxes=max_boxes)
        proof_boxes.append(rep.boxes)
        return rep

    monkeypatch.setattr(verify, "_prove_upper", upper_spy)
    monkeypatch.setattr(verify, "prove_signomial_nonneg", proof_spy)
    monkeypatch.setattr(certificates, "prove_signomial_nonneg", proof_spy)
    rows = table1_rows()
    assert [r["verdict"] for r in rows] == ["Pass"] * 13
    assert failed_windows == []
    assert (len(proof_boxes), sum(proof_boxes)) == (73, 940)


def test_table1_sampled_values_are_frozen():
    # frozen as float hex for all 13 table dimensions: the sharpest values
    # come from the sampling pass and the exact endpoint limits
    frozen = {
        9: ("0x1.6cf48f8423893p+8", "0x1.6ee7a19f55d76p+8"),
        10: ("0x1.c0d033496300bp+8", "0x1.e75d3c5e41d16p+8"),
        11: ("0x1.154e87dda5fa1p+9", "0x1.71fc7ce42716cp+9"),
        12: ("0x1.4fd7b2551d848p+9", "0x1.0beac24b22d5bp+10"),
        13: ("0x1.900428b983b6dp+9", "0x1.75f5d3aed9afbp+10"),
        14: ("0x1.d5d455070be9ap+9", "0x1.faadfcf10bc77p+10"),
        15: ("0x1.10a4438fa2357p+10", "0x1.4eebb01131bdfp+11"),
        16: ("0x1.39307e2df306dp+10", "0x1.b1b5c43df67d1p+11"),
        17: ("0x1.648ef25095edbp+10", "0x1.7d92000000000p+10"),
        20: ("0x1.f79853a170366p+10", "0x1.9000000000000p+11"),
        30: ("0x1.264a83185f241p+12", "0x1.2912000000000p+14"),
        31: ("0x1.424aaaaaaaaabp+14", "0x1.5613200000000p+14"),
        40: ("0x1.1355555555555p+15", "0x1.fa40000000000p+15"),
    }
    rows = table1_rows()
    assert {r["N"]: (r["lam_prime_computed"].hex(), r["beta_computed"].hex())
            for r in rows} == frozen
    assert all(r["verdict"] == "Pass" for r in rows)


def test_condition_reports_count_the_sampled_points():
    # the sampling pass of a table dimension evaluates a small part of the
    # grid, the same part on every run; at m = 10^6 no cell of cond1 can be
    # dropped, and the whole grid is evaluated
    grid = len(_log_uniform_points(SAMPLES))
    cand = table_candidate(12)
    counts = [check_cond2(cand).sampled_points for _ in range(2)]
    assert counts[0] == counts[1] < grid // 10
    assert 0 < check_cond1(cand).sampled_points < grid // 10
    wide = CandidateW(10 ** 6, 9, 366, Fraction(733, 2), "HR3")
    assert check_cond1(wide).sampled_points == grid
