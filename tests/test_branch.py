import functools
import math

import numpy as np
import pytest

from memsplate import branch
from memsplate.branch import (CURVE_SAMPLES, NEWTON_FLOOR, ContinuationConfig,
                              NonConvergence, _ClampedSolver, monotone_solve,
                              newton_solve, pullin_bounds, sandwich_check,
                              sweep_branch)
from memsplate.grid import (BoundaryData, InvalidArgument, RadialField,
                            build_grid, phi_lift)
from memsplate.operators import (_clamped_laplacians, bilaplacian_clamped, lambda_bar,
                                 mixed_bilaplacian)
from memsplate.stability import nu1
from test_operators import mixed_dense


def test_zero_load_homogeneous():
    g = build_grid(2, 256, 2.0)
    prof, it = monotone_solve(0.0, BoundaryData(0.0, 0.0), g)
    assert it == 1
    assert prof.sup_norm < 1e-12


def test_zero_load_reproduces_lift():
    bc = BoundaryData(0.2, -0.5)
    g = build_grid(3, 256, 2.0)
    prof, _ = monotone_solve(0.0, bc, g)
    exact = phi_lift(bc, g.r)
    assert np.max(np.abs(prof.values - exact)) < 1e-8


def test_negative_lambda_rejected():
    g = build_grid(2, 64, 1.0)
    with pytest.raises(InvalidArgument):
        monotone_solve(-1.0, BoundaryData(0.0, 0.0), g)


def test_sup_norm_frozen_value():
    # frozen regression value for N=2, lambda=4, M=512 graded grid
    g = build_grid(2, 512, 2.0)
    prof, _ = monotone_solve(4.0, BoundaryData(0.0, 0.0), g)
    assert prof.sup_norm == pytest.approx(0.06838997881244543, abs=1e-10)


def test_monotone_and_newton_agree():
    g = build_grid(3, 512, 2.0)
    bc = BoundaryData(0.0, 0.0)
    pm, _ = monotone_solve(10.0, bc, g)
    pn, it = newton_solve(10.0, pm, bc, g)
    assert np.max(np.abs(pm.values - pn.values)) < 1e-8
    assert it <= 8  # warm start converges in a handful of steps


def test_supercritical_lambda_touches():
    g = build_grid(2, 256, 2.0)
    with pytest.raises(NonConvergence) as e:
        monotone_solve(40.0, BoundaryData(0.0, 0.0), g)
    assert str(e.value) == "iterate crossed the touchdown threshold"


def test_pullin_bounds_exact_lower():
    lo, hi = pullin_bounds(2, nu1(2))
    assert lo == pytest.approx(128.0 / 27.0)
    assert hi == pytest.approx(4.0 * 104.3631 / 27.0, rel=1e-3)
    lo9, hi9 = pullin_bounds(9, nu1(9))
    assert lo9 == pytest.approx(3800.0 / 81.0)
    assert lo9 < hi9
    with pytest.raises(InvalidArgument):
        pullin_bounds(2, -1.0)


def test_sandwich_flags_flat_profile():
    # u = 0 sits far below the singular-profile lower envelope
    g = build_grid(9, 256, 2.0)
    u = RadialField(g, np.zeros(g.M))
    rep = sandwich_check(u, 340.0)
    assert not rep.passed
    assert rep.lower_violation > 0.5
    with pytest.raises(InvalidArgument):
        sandwich_check(RadialField(build_grid(3, 64, 1.0), np.zeros(64)), 1.0)
    # the paper states the sandwich for u(1) = u'(1) = 0 only
    with pytest.raises(InvalidArgument, match="zero clamped data"):
        sandwich_check(RadialField(g, np.zeros(g.M), BoundaryData(0.0, -0.1)), 340.0)


def test_graded_fine_grid_solves_at_n1():
    # the mixed solve keeps the strongly graded N = 1 grid well conditioned
    bc = BoundaryData(0.0, 0.0)
    graded = build_grid(1, 2048, 2.0)
    assert _ClampedSolver(graded, bc).solve_accuracy <= 1e-8
    pg, _ = monotone_solve(2.0, bc, graded)
    pu, _ = monotone_solve(2.0, bc, build_grid(1, 2048, 1.0))
    assert abs(pg.sup_norm - pu.sup_norm) <= 1e-5


@pytest.mark.parametrize("N, M, bc", [
    (1, 2048, BoundaryData(0.0, 0.0)),
    (2, 512, BoundaryData(0.0, 0.0)),
    (9, 2048, BoundaryData(0.1, -0.3)),
    (16, 4096, BoundaryData(0.0, 0.0)),
])
def test_mixed_solves_satisfy_composed_operator(N, M, bc):
    # residuals against the composed bilaplacian, relative to the magnitudes
    # summed in each row
    g = build_grid(N, M, 2.0)
    s = _ClampedSolver(g, bc)
    K, offset = bilaplacian_clamped(g, bc)
    absK = abs(K)
    r = g.r[:-1]

    def rel_residual(u, diag, o, f):
        # |K u - diag u + o - f| / (|K| |u| + |diag u| + |o| + |f|)
        res = K @ u - diag * u + o - f
        scale = absK @ np.abs(u) + np.abs(diag * u) + np.abs(o) + np.abs(f)
        return float(np.max(np.abs(res) / scale))

    f = 50.0 * (1.0 + r * r)
    u = s.solve_rhs(f)
    assert rel_residual(u, 0.0, offset, f) <= 1e-11
    lam = 100.0
    u = s.phi + 0.5 * (1.0 - r ** 2) ** 2
    w = 2.0 * lam / (1.0 - u) ** 3
    rhs = np.cos(3.0 * r)
    b = np.zeros(2 * g.M - 1)
    b[1::2] = rhs
    du = s.jacobian_solve(u, b, lam)[1::2]
    assert rel_residual(du, w, 0.0, rhs) <= 1e-11


@pytest.mark.parametrize("N, M, lam", [(3, 512, 25.0), (9, 2048, 300.0), (12, 1024, 600.0)])
def test_newton_stops_at_the_mixed_residual_floor(N, M, lam, monkeypatch):
    g = build_grid(N, M, 2.0)
    bc = BoundaryData(0.0, 0.0)
    s = _ClampedSolver(g, bc)
    warm, _ = monotone_solve(0.97 * lam, bc, g, _solver=s)
    seen = []
    residual = s.residual

    def spy(x, at_lam):
        seen.append(x.copy())
        return residual(x, at_lam)

    monkeypatch.setattr(s, "residual", spy)
    prof, it = newton_solve(lam, warm, bc, g, _solver=s)
    x = seen[-1]  # the iterate Newton returned
    assert np.array_equal(prof.values[:-1], x[1::2])
    # the row-scaled residual, recomputed from the assembled mixed system
    A, o1 = mixed_dense(g, bc)
    b = np.zeros_like(x)
    b[0::2], b[1::2] = o1, lam / (1.0 - x[1::2]) ** 2
    scaled = np.abs(A @ x - b) / (np.abs(A) @ np.abs(x) + np.abs(b) + 1.0)
    assert np.max(scaled) <= NEWTON_FLOOR == 8.0 * np.finfo(np.float64).eps
    assert it <= 5  # quadratic convergence from a nearby start


@pytest.mark.parametrize("N, bc", [(1, (0.0, 0.0)), (9, (0.1, -0.1))])
def test_the_residual_is_its_two_product_definition_bit_for_bit(N, bc):
    # residual takes A x and |A||x| from one set of band products; the
    # definition forms each with its own matvec.  N = 1 has 5 diagonals
    s = _ClampedSolver(build_grid(N, 256, 2.0), BoundaryData(*bc))
    n = s.b0.size
    rng = np.random.default_rng(N)
    for lam in (0.0, 7.5, 300.0):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        x[rng.choice(n, 8, replace=False)] = 0.0
        x[rng.choice(n, 8, replace=False)] = -0.0
        # band row 50's products are all -0.0; its sum is +0.0, as scipy's is
        cols = 50 + s.ku - np.arange(s.kl + s.ku + 1)
        x[cols] = np.where(s._aligned[:, 50] >= 0.0, -0.0, 0.0)
        assert not np.signbit(s.matvec(x)[s.order[50]])
        F, norm = s.residual(x, lam)
        b = s.b0.copy()
        b[1::2] = lam / (1.0 - x[1::2]) ** 2
        expected = s.matvec(x) - b
        scale = s.matvec(x, absolute=True) + np.abs(b) + 1.0
        scale[1::2] += 2.0 * np.abs(b[1::2] * x[1::2]) / (1.0 - x[1::2])
        assert np.array_equal(F, expected)
        assert np.array_equal(np.signbit(F), np.signbit(expected))
        assert norm == float(np.max(np.abs(expected) / scale))


@pytest.mark.parametrize("N, band", [(1, (2, 2)), (9, (2, 4))])
def test_the_band_is_the_swapped_mixed_matrix_and_its_matvec_is_dia_order(N, band):
    import scipy.sparse as sp
    g = build_grid(N, 64, 2.0)
    bc = BoundaryData(0.3, -0.7)
    ab, (kl, ku), o1 = mixed_bilaplacian(g, bc)
    assert (kl, ku) == band and ab.dtype == np.float64
    # the mixed matrix assembled densely from the stencil triplets: row 2i
    # v_i - (L1 u)_i, row 2i+1 (L2 v)_i, then each row pair swapped
    (w1, (r1, c1)), o, (w2, (r2, c2)) = _clamped_laplacians(g, bc)
    n = 2 * g.M - 1
    A = np.zeros((n, n))
    A[np.arange(0, n, 2), np.arange(0, n, 2)] = 1.0
    A[2 * r1, 2 * c1 + 1] = -w1
    A[2 * r2 + 1, 2 * c2] = w2
    order = np.arange(n)
    order[:-1] ^= 1
    swapped = A[order]
    expected = np.zeros_like(ab)
    for d in range(kl + ku + 1):
        k = ku - d
        expected[d, max(0, k):n + min(0, k)] = np.diagonal(swapped, k)
    assert np.count_nonzero(swapped) == np.count_nonzero(ab)  # nothing outside the band
    assert np.array_equal(ab, expected) and np.array_equal(o1, o)
    # the solver's band products are scipy's diagonal-storage products, bit for bit
    s = _ClampedSolver(g, bc)
    dia = sp.dia_matrix((ab, np.arange(ku, -kl - 1, -1)), shape=(n, n))
    rng = np.random.default_rng(N)
    for _ in range(10):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
        assert np.array_equal(s.matvec(x), (dia @ x)[order])
        assert np.array_equal(s.matvec(x, absolute=True), (abs(dia) @ np.abs(x))[order])


def _spy(monkeypatch, name, calls):
    """Record (lam, grid.M, succeeded) for every call of branch.<name>."""
    solve = getattr(branch, name)

    def spy(lam, guess_or_bc, *args, **kw):
        grid = kw["_solver"].grid if "_solver" in kw else args[-1]
        try:
            out = solve(lam, guess_or_bc, *args, **kw)
        except NonConvergence:
            calls.append((lam, grid.M, False))
            raise
        calls.append((lam, grid.M, True))
        return out

    monkeypatch.setattr(branch, name, spy)


@functools.cache
def _sweep(N, M):
    return sweep_branch(ContinuationConfig(N=N, M=M))


def _bracket_tol(N):
    """Width at which the earlier lambda-stepping sweep stopped bisecting."""
    lb = float(lambda_bar(N))
    return (lb / 20.0 if lb > 0 else 0.25) / 256.0


def test_newton_above_the_fold_fails_fast(monkeypatch):
    # the N = 3 fold lies near lambda = 30.154: from the lambda = 30 profile,
    # Newton at 30.5 soon finds no step length that lowers the residual
    g = build_grid(3, 512, 2.0)
    bc = BoundaryData(0.0, 0.0)
    s = _ClampedSolver(g, bc)
    warm, _ = monotone_solve(20.0, bc, g, _solver=s)
    warm, _ = newton_solve(30.0, warm, bc, g, _solver=s)
    before = s.factorizations
    with pytest.raises(NonConvergence):
        newton_solve(30.5, warm, bc, g, _solver=s)
    assert s.factorizations - before <= 8
    # the trace in s = u(0) never asks for a lambda above the fold: it passes
    # the fold, every bordered solve converges, and it calls neither
    # lambda-parametrized solver
    newton, monotone = [], []
    _spy(monkeypatch, "newton_solve", newton)
    _spy(monkeypatch, "monotone_solve", monotone)
    res = sweep_branch(ContinuationConfig(N=3, M=512))
    assert newton == monotone == []
    assert res.fold and res.failed_solves == 0
    # the points past the fold (dlambda/ds <= 0) are solved but not kept
    assert res.trace_points > len(res.points)
    assert all(p.slope > 0 and p.lam < res.lam_star_bracket[0] + 1e-12 for p in res.points)
    # one factorization per Newton step, plus the operator's: each point's
    # tangent comes from its last step's Jacobian
    assert res.factorizations == 1 + res.newton_steps


@pytest.mark.parametrize("N, M, bracket", [
    (3, 512, (30.15434992283933, 30.15441743827143)),
    (9, 2048, (340.9114583333327, 340.92062114197466)),
    (12, 1024, (641.5073302469127, 641.5165123456782)),
])
def test_sweep_reproduces_frozen_brackets(N, M, bracket):
    # frozen: the brackets of the earlier lambda-stepping sweeps, also stored
    # in perfbench/reference.json; lambda*_h lies inside, and its own bracket
    # is no wider than theirs was allowed to be
    res = _sweep(N, M)
    lo, hi = res.lam_star_bracket
    assert bracket[0] < res.lam_star_estimate < bracket[1]
    assert lo <= res.lam_star_estimate <= hi and lo < hi <= lo + _bracket_tol(N)
    assert res.fold == (N <= 8)
    assert res.fold_secant_steps > 0 if res.fold else res.fold_secant_steps == 0
    assert len(res.points) <= 10 and res.failed_solves == 0


@pytest.mark.parametrize("N, M, pick, tol", [
    # near touchdown: the last six points
    (12, 1024, lambda points: points[-6:], 1e-9),
    # short of the fold, where monotone still converges fast enough to be a
    # reference (near the fold it takes thousands of steps and is itself off)
    (3, 512, lambda points: [p for p in points if p.lam <= 30.1], 1e-8),
])
def test_trace_stays_on_the_minimal_branch(N, M, pick, tol):
    # the monotone iteration converges to the minimal solution from below
    res = _sweep(N, M)
    picked = pick(list(res.points))
    assert len(picked) >= 3
    for p in picked:
        ref, _ = monotone_solve(p.lam, BoundaryData(0.0, 0.0), p.profile.grid, tau=1.0 - 1e-6)
        assert np.max(np.abs(p.profile.values - ref.values)) <= tol


def _row_swaps(lu) -> int:
    piv = lu[1]
    return int(np.count_nonzero(piv != np.arange(piv.size)))


def test_band_order_keeps_partial_pivoting_from_swapping_rows(monkeypatch):
    # the band leads each row pair with the L2 row.  The operator's factor
    # on each grid of a singular sweep, and every Jacobian factor whose u
    # shift stays below 1e6 (every point before touchdown), swap at most one
    # row; in A's own order they swapped one row per pair.  The Jacobians at
    # s = tau, with shifts near 7e11, still swap, but fewer rows than there
    # are pairs
    factor_shifted, factors = _ClampedSolver.factor_shifted, []

    def recording(self, d):
        lu = factor_shifted(self, d)
        factors.append((self.grid.M, float(np.max(d)), _row_swaps(lu)))
        return lu

    monkeypatch.setattr(_ClampedSolver, "factor_shifted", recording)
    res = sweep_branch(ContinuationConfig(N=9, M=2048))
    assert not res.fold and {M for M, _, _ in factors} == {512, 1024, 2048}
    for M in (512, 1024, 2048):
        s = _ClampedSolver(build_grid(9, M, 2.0), BoundaryData(0.0, 0.0))
        assert (s.kl, s.ku) == (2, 4) and _row_swaps(s.lu) <= 1
    s = _ClampedSolver(build_grid(1, 64, 1.0), BoundaryData(0.0, 0.0))
    assert (s.kl, s.ku) == (2, 2)
    small = [swaps for _, shift, swaps in factors if shift < 1e6]
    assert len(small) >= 10 and max(small) <= 1
    assert all(swaps < M - 1 for M, _, swaps in factors)


@pytest.mark.parametrize("touchdown", [False, True])
def test_dgbtrf_never_reads_the_spare_rows_of_its_workspace(touchdown):
    # LAPACK documents dgbtrf's top kl rows as "need not be set", so the
    # solver leaves them unset: NaN there gives the factors of zeros, bit
    # for bit, for the operator and for a Jacobian at touchdown, whose shift
    # near 1e12 makes partial pivoting swap many rows.  Entries of the
    # workspace that stand for no matrix entry (its top-left corner) are
    # never written, and dgbtrs never reads them
    s = _ClampedSolver(build_grid(9, 2048, 2.0), BoundaryData(0.0, 0.0))
    d = 0.0
    if touchdown:
        p = sweep_branch(ContinuationConfig(N=9, M=2048)).points[-1]
        d = 2.0 * p.lam / (1.0 - p.profile.values[:-1]) ** 3
        assert 1e11 < np.max(d) < 1e13
    factors = []
    for spare in (np.nan, 0.0):
        s._ab[:s.kl] = spare
        factors.append(s.factor_shifted(d))
    (lu, piv), (lu0, piv0) = factors
    r, j = np.indices(lu.shape)
    row = j + r - (s.kl + s.ku)  # the matrix row that each entry stands for
    inside = (0 <= row) & (row < lu.shape[1])
    assert not np.isnan(lu[inside]).any()
    assert np.array_equal(lu[inside].view(np.int64), lu0[inside].view(np.int64))
    assert np.array_equal(piv, piv0)
    if touchdown:
        assert _row_swaps(factors[0]) > 1000


def test_zero_pivot_is_a_failed_newton_solve(monkeypatch):
    cfg = ContinuationConfig(N=3, M=512)
    g = build_grid(3, 512, cfg.gamma)
    s = _ClampedSolver(g, cfg.bc)
    warm, _ = monotone_solve(5.0, cfg.bc, g, _solver=s)
    factor = branch.dgbtrf

    def zero_pivot(ab, kl, ku):
        return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1

    monkeypatch.setattr(branch, "dgbtrf", zero_pivot)
    with pytest.raises(NonConvergence) as e:
        s.jacobian_solve(warm.values[:-1], np.ones(2 * g.M - 1), 10.0)
    assert str(e.value).startswith("singular banded matrix (zero pivot at")
    # in a trace, one zero pivot (the 10th factorization, a Jacobian early on
    # the branch) fails that bordered solve; the trace halves its s-step and
    # goes on to the same fold
    factorizations = []

    def tenth_fails(ab, kl, ku):
        factorizations.append(ab.shape)
        return (zero_pivot if len(factorizations) == 10 else factor)(ab, kl, ku)

    monkeypatch.setattr(branch, "dgbtrf", tenth_fails)
    res = sweep_branch(cfg)
    clean = _sweep(3, 512)
    assert res.failed_solves == 1 and clean.failed_solves == 0
    assert res.fold and not res.warnings
    assert res.lam_star_estimate == pytest.approx(clean.lam_star_estimate, rel=1e-10)
    # the failed step was retried at half its length
    assert [p.s for p in res.points] != [p.s for p in clean.points]


@pytest.mark.parametrize("N, M, stepping, newton_steps, factorizations", [
    # stepping s values and counts of the tangent-started solves: 19 Newton
    # steps and 20 factorizations at N = 3, 23 and 24 at N = 9
    (3, 512, (0.0, 0.05, 0.15, 0.35, 0.6893035566665435), 16, 17),
    (9, 2048, (0.0, 0.05, 0.15, 0.35, 0.6422755151828357, 0.8647904685102918, 0.999), 19, 20),
], ids=["3-512", "9-2048"])
def test_hermite_starts_save_newton_steps_on_the_same_s_path(
        monkeypatch, N, M, stepping, newton_steps, factorizations):
    solves = []

    def spy(s, x, lam):
        out = solve(s, x, lam)
        solves.append((x[1], out[2]))
        return out

    solve = branch._bordered_solve
    monkeypatch.setattr(branch, "_bordered_solve", spy)
    res = sweep_branch(ContinuationConfig(N=N, M=M))
    # the main trace solves first; its fold-search solves come last
    main = solves[:res.trace_points]
    steps = len(main) - res.fold_secant_steps
    # the step rule reads the tangent line's miss, so the s values are nearly
    # those of tangent-started solves (1.5e-9 relative at N = 9); pinned up
    # to the rounding of the converged points
    assert [s for s, _ in main[:steps]] == pytest.approx(stepping, rel=1e-11, abs=0)
    assert res.newton_steps <= newton_steps and res.factorizations <= factorizations
    assert res.factorizations == 1 + res.newton_steps
    assert res.failed_solves == 0
    # a fold-search start interpolates between the bracket ends: the first,
    # across the last s-step, takes 2 Newton steps, every later one exactly
    # 1, the least a bordered solve takes
    fold = [it for _, it in main[steps:]]
    assert (len(fold) > 0) == (N <= 8)
    assert all(it == (2 if k == 0 else 1) for k, it in enumerate(fold))


def test_bordered_solves_hold_u0_at_the_given_s_bit_for_bit(monkeypatch):
    # dx_0 = a_0 + dlambda b_0 is zero only up to rounding; left so, u(0)
    # drifted by an ulp, and at N = 11, M = 2048 the solve at s = tau = 0.999
    # returned u(0) = 0.9989999999999999, so the trace took one more solve
    drift = []

    def spy(s, x, lam):
        out = solve(s, x, lam)
        drift.append(out[0][1] - x[1])
        return out

    solve = branch._bordered_solve
    monkeypatch.setattr(branch, "_bordered_solve", spy)
    res = sweep_branch(ContinuationConfig(N=11, M=2048))
    assert len(drift) > res.trace_points and not any(drift)
    assert res.points[-1].s == 1.0 - 1e-3 and res.points[-2].s < 0.9
    assert res.trace_points == 7


@pytest.mark.parametrize("N, bracket", [
    (3, (30.155092592592418, 30.155227623456614)),
    (5, (89.10241126543235, 89.10416666666691)),
])
def test_fold_search_converges_on_fine_grids(N, bracket):
    # the fold search on the finest matrix grid; brackets as in
    # test_sweep_reproduces_frozen_brackets, from the M = 4096 sweeps
    res = sweep_branch(ContinuationConfig(N=N, M=4096))
    assert res.fold and res.failed_solves == 0 and res.fold_secant_steps > 0
    assert bracket[0] < res.lam_star_estimate < bracket[1]
    lo, hi = res.lam_star_bracket
    assert hi - lo <= 1e-10 * lo


def test_the_n8_fold_search_takes_at_most_6_solves():
    # at N = 8 the trace steps over the fold at s ~ 0.96 to s near tau, where
    # dlambda/ds is far from linear: regula falsi on dlambda/ds alone took 12
    # solves there, the root of the Hermite model of lambda(s) takes 5
    res = sweep_branch(ContinuationConfig(N=8, M=1024))
    assert res.fold and res.failed_solves == 0 and 0 < res.fold_secant_steps <= 6
    lo, hi = res.lam_star_bracket
    assert lo <= res.lam_star_estimate <= hi and hi - lo <= 1e-10 * lo


def test_the_illinois_safeguard_steps_and_the_search_converges(monkeypatch):
    # a step after two updates of the same bracket end is Illinois's, with
    # the other end's slope halved, and asks for no Hermite root; at N = 8
    # two of the 5 steps are.  With no Hermite root inside the bracket every
    # step is Illinois's, and the search is the earlier regula falsi: it
    # converges to the same lambda*_h in its 12 solves
    roots = []

    def spy(*args):
        roots.append(root(*args))
        return roots[-1]

    root = branch._hermite_root
    monkeypatch.setattr(branch, "_hermite_root", spy)
    grid = build_grid(8, 1024, 2.0)
    trace = branch._trace(_ClampedSolver(grid, BoundaryData(0.0, 0.0)), _TAU)
    hermite = sum(t is not None for t in roots)
    assert trace.fold and 0 < hermite < trace.fold_steps
    monkeypatch.setattr(branch, "_hermite_root", lambda *args: None)
    illinois = branch._trace(_ClampedSolver(grid, BoundaryData(0.0, 0.0)), _TAU)
    assert illinois.fold and illinois.fold_steps == 12
    assert illinois.lam_star == pytest.approx(trace.lam_star, rel=1e-10)
    for t in (trace, illinois):
        lo, hi = t.bracket
        assert hi - lo <= 1e-10 * lo


@pytest.mark.parametrize("N, M", [(3, 512), (4, 512), (4, 4096), (8, 1024)])
def test_the_fold_bracket_holds_the_golden_section_maximum_of_lambda(N, M):
    # an oracle for the fold search: golden-section search for the maximum
    # of lambda_h(s) within 1e-3 of the largest-lambda point, each lambda_h(s)
    # a bordered solve from that point's tangent line with lambda 1e-6 off,
    # so that it takes at least one Newton step (a start accepted without a
    # step keeps the predictor's lambda, which was 3.8e-10 off at N = 4,
    # M = 4096)
    s = _ClampedSolver(build_grid(N, M, 2.0), BoundaryData(0.0, 0.0))
    trace = branch._trace(s, 1.0 - 1e-3)
    a = max(trace.points, key=lambda p: p.lam)
    solved = []

    def lam_at(t):
        x = a.x + (t - a.s) * a.tangent
        x[1] = t
        lam_line = a.lam + (t - a.s) * a.slope
        _, lam, steps, _ = branch._bordered_solve(s, x, lam_line * (1 + 1e-6))
        assert steps >= 1
        solved.append((lam, t))
        return lam

    h, g = 1e-3, (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a.s - h, a.s + h
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = lam_at(c), lam_at(d)
    for _ in range(30):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = lam_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = lam_at(d)
    lam_max, s_max = max(solved)
    assert abs(s_max - a.s) < 0.9 * h  # an interior maximum
    bracket_lo, bracket_hi = trace.bracket
    assert bracket_lo * (1 - 1e-11) <= lam_max <= bracket_hi * (1 + 1e-11)


@pytest.mark.parametrize("M", [128, 512])
def test_end_tangents_that_meet_below_the_largest_lambda_do_not_stop_the_fold_search(
        monkeypatch, M):
    # at N = 6 with u(1) = 0.2, lambda(s) is not concave over the first fold
    # bracket (a, b) = (0.55, 0.72): dlambda/ds is 2.96 at a and -8.47 at b
    # on M = 512, and the end tangents meet at s = 0.51, left of a and below
    # lambda(a).  The search once took that meeting value, raised to an ulp
    # above lambda(a), as its upper bound and stopped there without a solve,
    # 2.4e-4 below the fold
    roots = []

    def spy(*args):
        roots.append(args)
        return root(*args)

    root = branch._hermite_root
    monkeypatch.setattr(branch, "_hermite_root", spy)
    s = _ClampedSolver(build_grid(6, M, 2.0), BoundaryData(0.2, 0.0))
    trace = branch._trace(s, _TAU)
    h, lam_a, slope_a, lam_b, slope_b = roots[0]
    assert (lam_b - lam_a - slope_b * h) / (slope_a - slope_b) < 0  # s_meet - a.s
    assert trace.fold and trace.fold_steps > 0
    lo, hi = trace.bracket
    assert hi - lo <= 1e-10 * lo and lo > max(lam_a, lam_b) * (1 + 1e-6)


def test_bordered_solve_converges_just_past_the_fold():
    # tangent predictors at s = 0.68341805, 2e-8 past the N = 5, M = 4096
    # fold, from the point a at s_a, 1.6e-4 before it, and a few 1e-9 off
    # in lambda: J is nearly singular, a and b share a huge null component,
    # and the block-elimination step alone can fail to lower the residual;
    # the refinement step then replaces it, and each solve converges.  s_a
    # is pinned (the first point of the earlier Illinois fold search), and
    # a is solved there from the tangent line of the trace's seed
    s = _ClampedSolver(build_grid(5, 4096, 2.0), BoundaryData(0.0, 0.0))
    trace = branch._trace(s, 1.0 - 1e-3)
    seed, s_a = trace.seed, 0.6832542534532648
    x = seed.x + (s_a - seed.s) * seed.tangent
    x[1] = s_a
    xa, lam_a, _, b = branch._bordered_solve(s, x, seed.lam + (s_a - seed.s) * seed.slope)
    slope = 1.0 / b[1]
    assert xa[1] == s_a and slope > 0
    target = 0.68341805
    refined = s.refinements
    for dlam in (-3e-9, 1e-9, 1e-8):
        x = xa + (target - s_a) * b * slope
        x[1] = target
        _, lam, steps, _ = branch._bordered_solve(s, x, lam_a + dlam + (target - s_a) * slope)
        assert steps <= 3 and lam == pytest.approx(trace.lam_star, rel=1e-10)
    assert s.refinements > refined


@pytest.mark.parametrize("N", [3, 4])
def test_fold_converges_at_second_order(N):
    # lambda*_h on M = 512, 256, 128
    ev = _sweep(N, 512).grid_evidence
    assert ev.M == (512, 256, 128)
    l1, l2, l4 = ev.lam_star
    assert l4 < l2 < l1
    assert ev.observed_order >= 1.9


@pytest.mark.parametrize("N", [12, 15, 20])
def test_coarse_singular_traces_reach_tau(N):
    # at M = 512 the M/4 = 128 evidence trace ends at s = tau too: near
    # touchdown the residual scale counts the rounding of u itself, without
    # which these traces failed at s ~ 0.998 with a slope of about 8
    ev = sweep_branch(ContinuationConfig(N=N, M=512)).grid_evidence
    assert ev is not None and ev.observed_order >= 1.9


def test_grid_evidence_outside_the_asymptotic_range_is_flagged():
    # at N = 8, M = 256 the three fold values do not converge monotonically:
    # lambda*_h on M = 64 lies above those on M = 128 and 256
    res = sweep_branch(ContinuationConfig(N=8, M=256))
    l1, l2, l4 = res.grid_evidence.lam_star
    assert l2 < l1 < l4
    assert res.grid_evidence.observed_order is None
    assert res.warnings == ("grid-evidence warning: observed order is undefined; "
                            "the grids are outside the asymptotic range",)


def test_a_failed_coarse_trace_leaves_the_sweep_without_grid_evidence(monkeypatch):
    build = branch.build_grid

    def no_quarter_grid(N, M, gamma=2.0):
        if M == 128:
            raise InvalidArgument("no such grid")
        return build(N, M, gamma)

    monkeypatch.setattr(branch, "build_grid", no_quarter_grid)
    res = sweep_branch(ContinuationConfig(N=3, M=512))
    assert res.grid_evidence is None
    assert res.warnings == ("no grid evidence for lambda*: no such grid",)
    assert res.lam_star_estimate == _sweep(3, 512).lam_star_estimate


@pytest.mark.parametrize("N", [1, 9])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("M", [64, 2048])
def test_graded_grids_nest_bitwise(N, gamma, M):
    fine, coarse = build_grid(N, M, gamma), build_grid(N, M // 2, gamma)
    assert np.array_equal(fine.r[1::2], coarse.r)
    # so the restriction of a mixed state is the coarse one at the shared nodes
    x = np.arange(2 * M - 1, dtype=float)
    y = branch._restrict(x)
    assert len(y) == 2 * (M // 2) - 1
    assert np.array_equal(y[1::2], x[1::2][1::2]) and np.array_equal(y[0::2], x[0::2][1::2])


_TAU = 1.0 - 1e-3


def _coarse_traces(N, M, start_of=lambda seed: (branch._restrict(seed.x), seed.lam)):
    """(lift trace, seeded trace) on the grid with M/2 cells, seeded from the M trace."""
    bc = BoundaryData(0.0, 0.0)
    fine = branch._trace(_ClampedSolver(build_grid(N, M, 2.0), bc), _TAU)
    lift = branch._trace(_ClampedSolver(build_grid(N, M // 2, 2.0), bc), _TAU)
    seeded = branch._trace(_ClampedSolver(build_grid(N, M // 2, 2.0), bc), _TAU,
                           start=start_of(fine.seed))
    return lift, seeded


def _same_trace(a, b):
    return ((a.lam_star, a.bracket, a.fold, a.converged, a.fold_steps, a.failed,
             [p.s for p in a.points], a.seeded)
            == (b.lam_star, b.bracket, b.fold, b.converged, b.fold_steps, b.failed,
                [p.s for p in b.points], b.seeded))


@pytest.mark.parametrize("N, M", [(3, 256), (9, 1024)])
def test_a_seeded_coarse_trace_finds_the_same_lambda_star_in_fewer_points(N, M):
    lift, seeded = _coarse_traces(N, M)
    assert seeded.seeded and not lift.seeded
    assert seeded.fold == lift.fold == (N <= 8)
    assert seeded.lam_star == pytest.approx(lift.lam_star, rel=1e-10)
    assert seeded.converged < lift.converged and seeded.failed == 0


def test_a_start_past_the_coarse_fold_falls_back_to_the_lift():
    coarse = functools.partial(_ClampedSolver, build_grid(3, 128, 2.0), BoundaryData(0.0, 0.0))
    lift = branch._trace(coarse(), _TAU)
    # the tangent predictor at s = 0.75 from the last stepping point (0.35),
    # beyond the fold near 0.53; its solve converges there, at dlambda/ds < 0
    a = lift.seed
    x = a.x + (0.75 - a.s) * a.tangent
    start = x, a.lam + (0.75 - a.s) * a.slope
    y, _, _, b = branch._bordered_solve(coarse(), x.copy(), start[1])
    assert y[1] == 0.75 and b[1] < 0  # dlambda/ds = 1 / b_0
    assert _same_trace(branch._trace(coarse(), _TAU, start=start), lift)


def test_a_start_whose_solve_fails_falls_back_to_the_lift(monkeypatch):
    solve = branch._bordered_solve

    def fails_once(*args):
        monkeypatch.setattr(branch, "_bordered_solve", solve)
        raise NonConvergence("no step lowers the residual")

    def failing_start(seed):
        # taken after the fine and lift traces, so only the start's solve fails
        monkeypatch.setattr(branch, "_bordered_solve", fails_once)
        return branch._restrict(seed.x), seed.lam

    lift, seeded = _coarse_traces(3, 256, failing_start)
    assert branch._bordered_solve is solve
    assert _same_trace(seeded, lift)


def test_a_start_at_tau_falls_back_to_the_lift():
    def at_tau(seed):
        x = branch._restrict(seed.x)
        x[1] = _TAU
        return x, seed.lam

    lift, seeded = _coarse_traces(9, 1024, at_tau)
    assert _same_trace(seeded, lift)


@pytest.mark.parametrize("M, seeded", [(257, (False, False, True)),
                                       (258, (False, True, False))])
def test_grids_that_do_not_nest_trace_from_the_lift(M, seeded):
    ev = sweep_branch(ContinuationConfig(N=3, M=M)).grid_evidence
    assert ev.seeded == seeded
    bc = BoundaryData(0.0, 0.0)
    for coarse_M, lam, was_seeded in zip(ev.M, ev.lam_star, ev.seeded):
        if not was_seeded:
            lift = branch._trace(_ClampedSolver(build_grid(3, coarse_M, 2.0), bc), _TAU)
            assert lam == lift.lam_star


@pytest.mark.parametrize("N, M, bc", [(8, 256, (0.0, 0.0)), (6, 512, (0.2, 0.0)),
                                      (3, 512, (0.0, 0.0)), (1, 1024, (0.0, 0.0))])
def test_a_coarse_lambda_star_is_its_own_grids_lambda_star(N, M, bc):
    # each coarse trace brackets its fold by stepping from the finer trace's
    # fold (see sweep_branch) and finds the fold that a trace from the lift
    # finds on that grid
    cfg = ContinuationConfig(N=N, M=M, bc=BoundaryData(*bc))
    ev = sweep_branch(cfg).grid_evidence
    assert ev.seeded == (False, True, True)
    for coarse_M, lam in zip(ev.M[1:], ev.lam_star[1:]):
        lift = branch._trace(_ClampedSolver(build_grid(N, coarse_M, cfg.gamma), cfg.bc), cfg.tau)
        assert lam == pytest.approx(lift.lam_star, rel=1e-10)


def test_a_near_fold_start_that_brackets_no_fold_falls_back_to_the_seeded_trace(monkeypatch):
    # the steps from a start near the fold double from 2 |dlambda/ds / kappa|;
    # with kappa infinite they start at the 1e-7 floor, and at N = 5 on
    # M = 256 the 8 steps (2.6e-5 in s) find no sign change of dlambda/ds.
    # The trace is then the one seeded from the finer trace's last stepping
    # point, after the start's solve and those 8
    bc = BoundaryData(0.0, 0.0)
    fine = branch._trace(_ClampedSolver(build_grid(5, 512, 2.0), bc), _TAU)
    top = max(fine.points, key=lambda p: p.lam)
    start = branch._restrict(fine.seed.x), fine.seed.lam
    coarse = functools.partial(_ClampedSolver, build_grid(5, 256, 2.0), bc)
    seeded = branch._trace(coarse(), _TAU, start=start)
    solves = []

    def spy(*args):
        solves.append(args[0])
        return solve(*args)

    solve = branch._bordered_solve
    monkeypatch.setattr(branch, "_bordered_solve", spy)
    near = branch._trace(coarse(), _TAU, start=start,
                         near_fold=(branch._restrict(top.x), top.lam, math.inf))
    assert _same_trace(near, seeded) and seeded.seeded and seeded.failed == 0
    assert len(solves) == 1 + branch._NEAR_FOLD_STEPS + seeded.converged
    # a sweep whose near-fold starts all fall back reports the same lambda*_h
    # on every grid, in more Newton steps on the coarse ones
    monkeypatch.setattr(branch, "_bordered_solve", solve)
    ev = sweep_branch(ContinuationConfig(N=5, M=512)).grid_evidence
    monkeypatch.setattr(branch, "_NEAR_FOLD_STEPS", 0)
    fallback = sweep_branch(ContinuationConfig(N=5, M=512)).grid_evidence
    assert fallback.lam_star[0] == ev.lam_star[0]
    assert fallback.lam_star == pytest.approx(ev.lam_star, rel=1e-10)
    assert fallback.newton_steps[0] == ev.newton_steps[0]
    assert all(f > n for f, n in zip(fallback.newton_steps[1:], ev.newton_steps[1:]))


def test_curve_is_sampled_on_s():
    res = _sweep(3, 512)
    lam, sup = res.curve()
    assert len(lam) == CURVE_SAMPLES == 201 and len(res.points) < 20
    # it passes through the points, which are on a uniform-in-s sampling's
    # ends, and sup u = s on a radially decreasing profile
    assert lam[0] == res.points[0].lam and lam[-1] == pytest.approx(res.points[-1].lam)
    s = np.linspace(res.points[0].s, res.points[-1].s, 201)
    assert np.allclose(sup, s, atol=1e-12)
    assert np.all(np.diff(lam) > 0) and lam[-1] <= res.lam_star_bracket[1]


def test_config_defaults():
    assert ContinuationConfig(N=1).gamma == 1.0
    assert ContinuationConfig(N=5).gamma == 2.0
    with pytest.raises(InvalidArgument):
        ContinuationConfig(N=2, tau=1.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_branch_monotone_in_lambda(seed):
    # profiles increase pointwise with lambda at randomized subcritical levels
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(0.5, 12.0, size=3))
    g = build_grid(2, 256, 2.0)
    bc = BoundaryData(0.0, 0.0)
    prev = None
    for lam in lams:
        prof, _ = monotone_solve(float(lam), bc, g)
        v = prof.values
        # radially non-increasing
        assert np.max(np.diff(v)) < 1e-8
        if prev is not None:
            assert np.min(v - prev) > -1e-8
        prev = v


def test_sweep_branch_regular_small_dim():
    cfg = ContinuationConfig(N=2, M=512)
    res = sweep_branch(cfg)
    lo, hi = res.lam_star_bracket
    assert res.classification == "Regular"
    blo, bhi = pullin_bounds(2, nu1(2))
    assert blo <= lo < hi <= bhi
    assert hi - lo <= 1e-2 + 1e-12
    assert res.solve_accuracy <= 1e-8
    sups = [p.sup_norm for p in res.points]
    lams = [p.lam for p in res.points]
    assert lams == sorted(lams)
    assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:]))
    assert not res.warnings
