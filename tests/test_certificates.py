from fractions import Fraction

import numpy as np
import pytest

import memsplate.certificates as certificates
import memsplate.verify as verify
from memsplate.certificates import (CandidateW, _cond2_parts, certify_dimension,
                                    check_cond1, check_cond2, table1_rows,
                                    table_candidate, threshold_relation,
                                    wm_bilaplacian, wm_value)
from memsplate.exprs import Const, Quot
from memsplate.grid import InvalidArgument
from memsplate.hardy import hr_weight
from memsplate.operators import hardy_rellich_constant, lambda_bar
from memsplate.verify import prove_signomial_nonneg


def test_wm_domain():
    with pytest.raises(InvalidArgument):
        wm_value(Fraction(4, 3), 0.5)
    with pytest.raises(InvalidArgument):
        wm_value(1, 0.5)


def test_wm_profile_values():
    # m = 3: 1 - w = r^(4/3) (9 - 4 r^(5/3)) / 5
    r = np.array([0.3, 0.8, 1.0])
    w = wm_value(3, r)
    assert np.allclose(1.0 - w, r ** (4 / 3) * (9.0 - 4.0 * r ** (5 / 3)) / 5.0)
    assert w[-1] == pytest.approx(0.0, abs=1e-14)


def test_wm_bilaplacian_matches_coefficients():
    # Delta^2 w_m = [3m*lbar r^(-8/3) + 4c(m,N) r^(m-4)] / (3m-4)
    m, N = 3, 12
    r = np.array([0.4, 0.9])
    lb = float(lambda_bar(N))
    c = float(Fraction(3) * (3 - 2) * (3 + N - 2) * (3 + N - 4))
    expect = (9.0 * lb * r ** (-8.0 / 3.0) + 4.0 * c * r ** (m - 4.0)) / 5.0
    assert np.allclose(wm_bilaplacian(m, N, r), expect)


def test_m2_sharpest_level_is_exact():
    # for m = 2 the sharpest admissible multiplier is exactly 27 * lbar
    N = 31
    cand = table_candidate(N)
    assert cand.m == 2
    rep = check_cond1(cand, rigor="interval")
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
    rep = certify_dimension(N, rigor="interval")
    assert rep.verdict == "Pass"
    assert rep.cond1.proved and rep.cond2.proved


def test_n9_cleared_claim_box_counts():
    # frozen: every box a proof evaluates is counted, the r = 0 collar search,
    # the failed derivative windows at r = 1 and the point evaluations of
    # boxes narrower than min_width included; the same counts show that the
    # enclosures walk the same bisection tree
    cand = table_candidate(9)
    assert check_cond1(cand, rigor="interval").boxes == 24
    assert check_cond2(cand, rigor="interval").boxes == 366
    assert check_cond1(cand, rigor="sampled").boxes is None
    _, den = _cond2_parts(cand, hr_weight(cand.hr_variant, 9))
    rep = prove_signomial_nonneg(den)
    assert rep.proved and rep.reason.startswith("non-increasing collar")
    assert rep.boxes == 144


@pytest.mark.parametrize("rigor", ["sampled", "interval"])
@pytest.mark.parametrize("check", [check_cond1, check_cond2])
def test_each_check_samples_the_grid_once(monkeypatch, check, rigor):
    # the margin and sharpest ratios share one pass; the interval tier's
    # sharpest-value enclosure reuses that pass's argmin instead of resampling
    passes = []
    real = verify.sampled_mins

    def spy(pairs, n=verify.SAMPLES):
        passes.append(len(pairs))
        return real(pairs, n)

    monkeypatch.setattr(certificates, "sampled_mins", spy)
    monkeypatch.setattr(verify, "sampled_mins", spy)
    rep = check(table_candidate(17), rigor=rigor)
    assert passes == [2]
    assert (rep.sharpest_enclosure is not None) == (rigor == "interval")


def test_certify_rejects_subcritical_dim():
    with pytest.raises(InvalidArgument):
        certify_dimension(8)


def test_certify_refutes_bad_multiplier():
    # beta far above the certified range cannot be cleared
    cand = CandidateW(m=Fraction(14, 5), N=9, lam_prime=366, beta=500,
                      hr_variant="HR3")
    rep = check_cond2(cand, rigor="sampled")
    assert rep.margin < 0


@pytest.mark.parametrize("check,label", [(check_cond1, "cond1"), (check_cond2, "cond2")])
def test_interval_tier_refutes_a_negative_limit_at_the_origin(check, label):
    # lambda' = 300 and beta = 500 both leave a cleared claim that is
    # negative as r -> 0, so the proof stops at its first witness
    cand = CandidateW(Fraction(14, 5), 9, 300, 500, "HR3")
    rep = check(cand, rigor="interval")
    assert rep.proved is False and rep.boxes == 1
    assert rep.notes == [f"{label} claim not proved: negative limit at r=0",
                         "counterexample near r=0.25"]


def test_interval_tier_refutes_an_interior_dip():
    # lambda' = 600 lies below the sharpest lambda' ~ 671.69 for (m = 3,
    # N = 12), and the cleared cond1 claim goes negative inside (0, 1)
    rep = check_cond1(CandidateW(3, 12, 600, 2000, "HR2"), rigor="interval")
    assert rep.proved is False
    assert rep.notes[0] == "cond1 claim not proved: not sign-definite"
    assert rep.notes[1].startswith("counterexample near r=")
    lo, hi = rep.sharpest_enclosure
    assert 600 < lo <= rep.sharpest <= hi


def test_interval_tier_refuses_an_unproved_denominator():
    # W = (-1)/(-1) is the constant 1, but its cleared denominator is
    # negative, so the cond2 claim is never attempted
    cand = table_candidate(12)
    rep = check_cond2(cand, weight=Quot(Const(-1), Const(-1)), rigor="interval")
    assert rep.proved is False and rep.boxes is None
    assert rep.notes == ["cond2 denominator sign not proved: negative limit at r=0"]


def test_n9_computed_sharpest_values():
    rep = certify_dimension(9, rigor="sampled")
    assert rep.verdict == "Pass"
    # frozen one-percent checks of the computed sharpest levels
    assert rep.sharpest_lam_prime == pytest.approx(364.957, abs=0.5)
    assert rep.sharpest_beta == pytest.approx(366.904, abs=0.5)
    assert any("366.5" in n or "733/2" in n for n in rep.notes)


def test_table1_rows_sampled():
    rows = table1_rows(dims=[9, 12, 31], rigor="sampled")
    byN = {r["N"]: r for r in rows}
    assert byN[9]["verdict"] == "Pass" and byN[9]["note"]
    assert byN[12]["verdict"] == "Pass"
    assert byN[12]["lam_prime_given"] == 680.0
    assert byN[12]["beta_given"] == 1071.0
    assert byN[31]["m"] == 2
