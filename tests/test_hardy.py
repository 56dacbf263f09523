from fractions import Fraction

import numpy as np
import pytest

import memsplate.verify as verify
from memsplate.exprs import Ratio, Signomial
from memsplate.grid import BoundaryData, InvalidArgument, build_grid
from memsplate.hardy import (BesselPairSpec, _prove_expr_nonneg,
                             discrete_form_check, gm1_side_conditions,
                             hr2_leading_identity, hr_weight, pq_functions,
                             radial_laplacian, supersolution_check, _phi_expr,
                             _psi_expr)
from memsplate.intervals import ProofReport
from memsplate.operators import (_clamped_laplacians, bilaplacian_form,
                                 hardy_rellich_constant)


def test_radial_laplacian_of_quadratic():
    e = radial_laplacian(Ratio.term(1, 2), 5)
    r = np.array([0.2, 0.7])
    assert np.allclose(e(r), 10.0)


@pytest.mark.parametrize("N", [3, 9])
@pytest.mark.parametrize("p", [2, Fraction(4, 3), Fraction(-1, 2)])
def test_radial_laplacian_of_a_power_is_exact(p, N):
    # Delta_N r^p = p (p + N - 2) r^(p-2)
    e = radial_laplacian(Ratio.term(1, p), N)
    assert e.num == Signomial.term(p * (p + N - 2), p - 2)
    assert e.den == Signomial.constant(1)


def test_hr_weight_values_and_validation():
    # first variant is the sharp constant over r^4
    w = hr_weight("HR1", 9)
    assert float(w(np.array([0.5]))[0]) == pytest.approx(float(hardy_rellich_constant(9)) * 16.0)
    with pytest.raises(InvalidArgument):
        hr_weight("HR1", 4)
    with pytest.raises(InvalidArgument):
        hr_weight("HR3", 10)
    with pytest.raises(InvalidArgument):
        hr_weight("XX", 9)


def test_hr2_leading_identity_many_dims():
    for N in range(5, 51):
        assert hr2_leading_identity(N)


def test_pq_positive_and_dominating():
    P, Q = pq_functions()
    assert _prove_expr_nonneg(Q).proved
    # P dominates 2/r^2 (needed for the weight to be a valid pair)
    assert _prove_expr_nonneg(P - Ratio.term(2, -2)).proved
    # P_r / P >= -2/r, cleared: r P' + 2 P >= 0
    claim = Ratio.term(1, 1) * P.diff() + 2 * P
    assert _prove_expr_nonneg(claim).proved


def test_phi_psi_sign_structure():
    phi, psi = _phi_expr(), _psi_expr()
    assert _prove_expr_nonneg(phi).proved
    assert _prove_expr_nonneg(psi).proved
    # psi vanishes exactly at r = 1
    assert psi.num.value_at_one() == 0


def test_a_negative_denominator_is_proved_through_its_negation():
    # (-1)/(-r): the denominator -r is not provably positive, so the numerator
    # and the denominator are both negated; 1/(-r) has the exact leading term
    # -1/r, so it is refuted at r = 0 before any box
    expr = Ratio(-1) / Ratio.term(-1, 1)
    assert expr.den == Signomial.term(-1, 1)
    assert not verify.prove_signomial_nonneg(expr.den).proved
    rep = _prove_expr_nonneg(expr)
    assert isinstance(rep, ProofReport)
    assert rep.proved and rep.reason == "interval bisection"
    rep = _prove_expr_nonneg(Ratio(1) / Ratio.term(-1, 1))
    assert not rep.proved and rep.reason == "negative limit at r=0"
    assert rep.boxes == 0


def test_a_denominator_that_changes_sign_is_undetermined():
    # 1/((r - 1/4)(r - 3/4)) is positive at both ends, so no endpoint limit
    # refutes it; its denominator is negative on (1/4, 3/4) and its negation
    # near r = 0, and the report carries the boxes of both denominator proofs
    den = (Ratio.term(1, 1) - Fraction(1, 4)) * (Ratio.term(1, 1) - Fraction(3, 4))
    rep = _prove_expr_nonneg(Ratio(1) / den)
    assert not rep.proved
    assert rep.reason == "denominator sign undetermined"
    assert rep.counterexample is None and rep.boxes == 63


def test_a_negative_limit_at_one_is_refuted_in_no_boxes():
    # (1/2 - r)/(1 + r) is positive near r = 0 and tends to -1/4 at r = 1;
    # num(1)/den(1) decides before the denominator's sign is sought
    rep = _prove_expr_nonneg((Fraction(1, 2) - Ratio.term(1, 1)) / (Ratio.term(1, 1) + 1))
    assert not rep.proved and rep.reason == "negative limit at r=1" and rep.boxes == 0


def test_sign_checks_do_not_sample(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "sampled_mins",
                        lambda *args, **kwargs: calls.append(args))
    P, _ = pq_functions()
    for expr in (hr_weight("HR2", 12), P - Ratio.term(2, -2)):
        rep = _prove_expr_nonneg(expr)
        assert isinstance(rep, ProofReport) and rep.proved
    assert calls == []


def test_gm1_side_conditions_for_pq():
    P, _ = pq_functions()
    rep = gm1_side_conditions(BesselPairSpec(V=Ratio(1), W=P, N=9))
    assert rep.inverse_integral_diverges
    assert rep.weight_integral_converges
    assert rep.pointwise.proved
    assert rep.all_hold
    with pytest.raises(InvalidArgument):
        gm1_side_conditions(BesselPairSpec(V=Ratio(-1), W=P, N=9))


def test_gm3_side_conditions_refute_the_pointwise_claim_at_the_origin():
    # on the GM3 pair (V = P, W = PQ) the pointwise claim
    # W - 2V/r^2 + 2V'/r - V'' has the exact leading term -(1127/16) r^-4,
    # so it is refuted in no boxes; its cleared denominator vanishes at
    # r = 1, and no proof of that denominator's sign is attempted
    P, Q = pq_functions()
    rep = gm1_side_conditions(BesselPairSpec(V=P, W=P * Q, N=9))
    assert rep.pointwise.proved is False and rep.pointwise.boxes == 0
    assert rep.pointwise.reason == "negative limit at r=0"
    assert not rep.all_hold


def _gm2_pair(N, a):
    V = 1 / (Ratio.term(1, 2) - Ratio.term(a, Fraction(N, 2) + 1))
    W1 = Fraction((N - 4) ** 2, 4) / ((Ratio.term(1, 2) - Ratio.term(1, Fraction(N, 2)))
                                      * (Ratio.term(1, 2) - Ratio.term(a, Fraction(N, 2) + 1)))
    return V, W1


def _exact_pair(N, a):
    # y = r^(1-N/2) - a solves the pair (1, ((N-2)^2/4)/(r^2 - a r^(N/2+1)))
    W = Fraction((N - 2) ** 2, 4) / (Ratio.term(1, 2) - Ratio.term(a, Fraction(N, 2) + 1))
    return Ratio.term(1, Fraction(2 - N, 2)) - a, BesselPairSpec(V=Ratio(1), W=W, N=N)


def _gm2_case(N, a):
    V, W1 = _gm2_pair(N, a)
    return Ratio.term(1, Fraction(4 - N, 2)) - 1, BesselPairSpec(V=V, W=W1, N=N)


@pytest.mark.parametrize("y,spec,boxes", [
    pytest.param(*_gm2_case(10, Fraction(99, 100)), None, id="gm2-N10"),
    # V = W = 1 in dimension 3: y = 1 - r^2/6 > 0 with L[y] = -r^2/6
    pytest.param(1 - Ratio.term(Fraction(1, 6), 2),
                 BesselPairSpec(V=Ratio(1), W=Ratio(1), N=3), (2, 2), id="one-one-N3"),
    # an exact solution: L[y] is identically zero, decided in no boxes
    pytest.param(*_exact_pair(10, Fraction(99, 100)), (2, 0), id="exact-N10"),
])
def test_gm2_supersolution(y, spec, boxes):
    rep = supersolution_check(y, spec)
    assert rep.confirmed
    if boxes is not None:
        assert (rep.positivity.boxes, rep.inequality.boxes) == boxes


def test_gm3_psi_supersolution():
    P, Q = pq_functions()
    rep = supersolution_check(_psi_expr(), BesselPairSpec(V=P, W=P * Q, N=9))
    assert rep.confirmed


def _integral(sig: Signomial) -> Fraction:
    """int_0^1 sig dr, exactly: every power is above -1."""
    assert all(p > -1 for p in sig.terms)
    return sum((c / (p + 1) for p, c in sig.terms.items()), Fraction(0))


@pytest.mark.parametrize("spec,dirichlet,weighted", [
    (BesselPairSpec(V=Ratio(1), W=Ratio(60), N=3), Fraction(4, 5), Fraction(32, 7)),
    (BesselPairSpec(V=Ratio(1), W=Ratio.term(hardy_rellich_constant(9), -4), N=9),
     Fraction(4, 11), Fraction(45, 14)),
], ids=["W60-N3", "H9-N9"])
def test_a_rayleigh_quotient_below_one_refutes_a_pair(spec, dirichlet, weighted):
    # a Bessel pair gives int V |grad u|^2 >= int W u^2 for every admissible
    # u; u = 1 - r^2 breaks it exactly, with both radial integrals over
    # (0, 1) summed term by term in rationals
    u = Signomial.constant(1) - Signomial.term(1, 2)
    rn = Signomial.term(1, spec.N - 1)
    assert spec.V.den == spec.W.den == Signomial.constant(1)
    lhs = _integral(rn * spec.V.num * u.diff() ** 2)
    rhs = _integral(rn * spec.W.num * u ** 2)
    assert (lhs, rhs) == (dirichlet, weighted) and lhs < rhs
    # y = 0 solves L[y] = 0 but is no positive supersolution
    rep = supersolution_check(Ratio(0), spec)
    assert not rep.positivity.proved and rep.inequality.proved
    assert not rep.confirmed


#: the `hr` command's three weights
HR_WEIGHTS = (("HR3", 9), ("HR2", 12), ("HR1", 17))


def _form_data(weight, N):
    """(A, m, m W, r) of `discrete_form_check` on its default grid."""
    grid = build_grid(N, 512, 2.0)
    A, m = bilaplacian_form(grid)
    r = grid.r[: len(m)]
    mw = np.zeros_like(r)
    mw[1:] = m[1:] * np.asarray(weight(r[1:]), dtype=float)
    return A, m, mw, r


def _random_trial_minimum(weight, N, trials, seed):
    """The smallest gap over random phi = (1-r)^2 sum c_k r^k, c_k standard normal.

    The check's former definition: it bounds the exact minimum from above.
    """
    A, m, mw, r = _form_data(weight, N)
    powers = [r ** k for k in range(7)]
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(trials):
        phi = (1.0 - r) ** 2 * sum(c * pw for c, pw in zip(rng.standard_normal(7), powers))
        gaps.append((float(phi @ (A @ phi)) - float(np.sum(mw * phi ** 2)))
                    / float(np.sum(m * phi ** 2)))
    return min(gaps)


@pytest.mark.parametrize("variant,N", [("HR1", 17), ("HR2", 12), ("HR3", 9)])
def test_discrete_form_inequality(variant, N):
    g = build_grid(N, 256, 2.0)
    rep = discrete_form_check(hr_weight(variant, N), N, grid=g)
    assert rep.passed
    assert rep.min_relative_gap > -rep.tol
    assert rep.residual < 1e-8


def test_discrete_form_check_is_deterministic():
    # no seed: two checks on separately built grids agree bit for bit
    w = hr_weight("HR1", 17)
    a = discrete_form_check(w, 17, grid=build_grid(17, 256, 2.0))
    b = discrete_form_check(w, 17, grid=build_grid(17, 256, 2.0))
    assert a.min_relative_gap == b.min_relative_gap and a.residual == b.residual
    assert np.array_equal(a.coefficients, b.coefficients)


def test_discrete_form_gaps_are_frozen():
    # frozen as float hex: the exact minima on the default grid of the `hr`
    # command's three weights; each carries its minimizer, whose directly
    # evaluated gap agrees with the eigenvalue to 1e-8
    frozen = {("HR3", 9): "0x1.a04e2c2ca0601p+9",
              ("HR2", 12): "0x1.c078a0d77f9ffp+10",
              ("HR1", 17): "0x1.806528ece2e4dp+12"}
    for (variant, N), gap in frozen.items():
        rep = discrete_form_check(hr_weight(variant, N), N)
        assert rep.min_relative_gap.hex() == gap and rep.passed
        assert rep.residual < 1e-8 and rep.coefficients.shape == (7,)


def test_discrete_form_minimum_is_below_every_random_trial_minimum():
    # the former check, 200 random profiles per seed, bounds the exact
    # minimum from above; at seed 0 it reproduces its frozen gaps
    former = {("HR3", 9): "0x1.30ea38b434847p+10",
              ("HR2", 12): "0x1.626e5f3bf3320p+11",
              ("HR1", 17): "0x1.3390ef7ff6b2ap+13"}
    for variant, N in HR_WEIGHTS:
        w = hr_weight(variant, N)
        exact = discrete_form_check(w, N).min_relative_gap
        sampled = [_random_trial_minimum(w, N, 200, seed) for seed in range(10)]
        assert sampled[0].hex() == former[variant, N]
        assert exact <= min(sampled)


@pytest.mark.parametrize("variant,N", [("HR3", 9), ("HR2", 12), ("HR1", 17), ("HR1", 5),
                                       ("HR2", 30)], ids=str)
def test_discrete_form_minimum_matches_a_40_digit_solve(variant, N):
    # the same float64 data on the default grid (the Laplacian's stencil
    # triplets, q, the orthonormalized basis C and m W) summed in 40-digit
    # arithmetic: LC = L C, the exact H = LC^T diag(q) LC - C^T diag(m W) C
    # and its smallest eigenvalue by eigsy.  Forming the plate form
    # L^T diag(q) L first missed these by 6.5e-12 to 3.7e-9 relative.
    mp = pytest.importorskip("mpmath").mp
    w = hr_weight(variant, N)
    grid = build_grid(N, 512, 2.0)
    (lw, (rows, cols)), _, _ = _clamped_laplacians(grid, BoundaryData(0.0, 0.0))
    q = grid.quad_weights() * grid.r ** (N - 1)
    m, r = q[:-1], grid.r[:-1]
    mw = np.zeros_like(r)
    mw[1:] = m[1:] * np.asarray(w(r[1:]), dtype=float)
    B = ((1.0 - r) ** 2)[:, None] * r[:, None] ** np.arange(7)
    R = np.linalg.qr(np.sqrt(m)[:, None] * B, mode="r")
    C = np.linalg.solve(R.T, B.T).T
    with mp.workdps(40):
        Cm = [[mp.mpf(float(x)) for x in row] for row in C]
        LC = [[mp.mpf(0)] * 7 for _ in range(grid.M)]
        for i, j, a in zip(rows, cols, lw):
            a = mp.mpf(float(a))
            LC[i] = [s + a * c for s, c in zip(LC[i], Cm[j])]
        qm = [mp.mpf(float(x)) for x in q]
        mwm = [mp.mpf(float(x)) for x in mw]
        H = mp.matrix(7, 7)
        for k in range(7):
            for l in range(7):
                H[k, l] = (mp.fsum(qi * row[k] * row[l] for qi, row in zip(qm, LC))
                           - mp.fsum(wi * row[k] * row[l] for wi, row in zip(mwm, Cm)))
        oracle = float(min(mp.eigsy(H, eigvals_only=True)))
    if (variant, N) == ("HR3", 9):
        assert abs(oracle - 832.610724) < 1e-6
    assert abs(discrete_form_check(w, N).min_relative_gap - oracle) <= 1e-12 * oracle
