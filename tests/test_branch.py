import functools

import numpy as np
import pytest

from memsplate import branch
from memsplate.branch import (NEWTON_FLOOR, ContinuationConfig,
                              NonConvergence, _ClampedSolver, monotone_solve,
                              newton_solve, pullin_bounds, sandwich_check,
                              sweep_branch)
from memsplate.grid import (BoundaryData, InvalidArgument, RadialField,
                            build_grid, phi_lift)
from memsplate.operators import bilaplacian_clamped, lambda_bar, mixed_bilaplacian
from memsplate.stability import nu1


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
    assert e.value.touched


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
    rep = sandwich_check(u, 300.0, 340.0)
    assert not rep.passed
    assert rep.lower_violation > 0.5
    with pytest.raises(InvalidArgument):
        sandwich_check(RadialField(build_grid(3, 64, 1.0), np.zeros(64)), 1.0, 1.0)


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
    # residuals against the extended-precision composed bilaplacian, relative
    # to the magnitudes summed in each row
    g = build_grid(N, M, 2.0)
    s = _ClampedSolver(g, bc)
    op = bilaplacian_clamped(g, bc)
    K, absK = op.matrix, abs(op.matrix)
    r = g.r[:-1].astype(np.longdouble)

    def rel_residual(u, diag, o, f):
        # |K u - diag u + o - f| / (|K| |u| + |diag u| + |o| + |f|)
        u = u.astype(np.longdouble)
        res = K @ u - diag * u + o - f
        scale = absK @ np.abs(u) + np.abs(diag * u) + np.abs(o) + np.abs(f)
        return float(np.max(np.abs(res) / scale))

    f = 50.0 * (1.0 + r * r)
    u = s.solve_rhs(np.asarray(f, dtype=float))
    assert rel_residual(u, 0.0, op.offset, f) <= 1e-11
    lam = 100.0
    u = s.phi + 0.5 * (1.0 - g.r[:-1] ** 2) ** 2
    w = 2.0 * lam / (1.0 - u.astype(np.longdouble)) ** 3
    rhs = np.cos(3.0 * g.r[:-1])
    b = np.zeros(2 * g.M - 1)
    b[1::2] = rhs
    du = s.jacobian_solve(u, b, lam)[1::2]
    assert rel_residual(du, w, 0.0, rhs.astype(np.longdouble)) <= 1e-11


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
    A, o1 = mixed_bilaplacian(g, bc)
    b = np.zeros_like(x)
    b[0::2], b[1::2] = o1, lam / (1.0 - x[1::2]) ** 2
    scaled = np.abs(A @ x - b) / (abs(A) @ np.abs(x) + np.abs(b) + 1.0)
    assert np.max(scaled) <= NEWTON_FLOOR == 8.0 * np.finfo(np.float64).eps
    assert it <= 5  # quadratic convergence from a nearby start


def _spy(monkeypatch, name, calls):
    """Record (lam, grid.M, succeeded) for every call of branch.<name>."""
    solve = getattr(branch, name)

    def spy(lam, guess_or_bc, *args, **kw):
        grid = kw["_solver"].grid
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
    # in a sweep the first lambda past the fold is 1 failed Newton solve, with
    # no monotone fallback; monotone runs only on the coarse companion grid,
    # and every failure of either is counted
    newton, monotone = [], []
    _spy(monkeypatch, "newton_solve", newton)
    _spy(monkeypatch, "monotone_solve", monotone)
    res = sweep_branch(ContinuationConfig(N=3, M=512))
    lam_past = next(lam for lam, _, ok in newton if not ok)
    assert [c for c in newton if c[0] == lam_past] == [(lam_past, 512, False)]
    assert {M for _, M, _ in monotone} == {256}
    assert res.failed_solves == sum(not ok for *_, ok in newton + monotone)
    assert len(newton) == len(res.points) + sum(not ok for *_, ok in newton)


@pytest.mark.parametrize("N, M, bracket", [
    (3, 512, (30.15434992283933, 30.15441743827143)),
    (9, 2048, (340.9114583333327, 340.92062114197466)),
    (12, 1024, (641.5073302469127, 641.5165123456782)),
])
def test_sweep_reproduces_frozen_brackets(N, M, bracket):
    # frozen: the brackets the earlier composed-operator Newton gave, also
    # stored in perfbench/reference.json; at N = 12, M = 1024 the sweep once
    # needed a monotone fallback near touchdown
    res = _sweep(N, M)
    assert res.lam_star_bracket == pytest.approx(bracket, rel=1e-12, abs=0.0)
    assert res.factorizations > len(res.points)
    # the first lambda past the fold fails, and so do bisection points above it
    assert res.failed_solves >= 2


@pytest.mark.parametrize("N, M, pick, tol", [
    # near touchdown: the last six accepted points
    (12, 1024, lambda points: points[-6:], 1e-9),
    # short of the fold, where monotone still converges fast enough to be a
    # reference (at lam_lo it takes thousands of steps and is itself off)
    (3, 512, lambda points: [min(points, key=lambda p: abs(p.lam - 30.1))], 1e-8),
])
def test_secant_predictor_stays_on_the_minimal_branch(N, M, pick, tol):
    # the monotone iteration converges to the minimal solution from below
    res = _sweep(N, M)
    for p in pick(list(res.points)):
        ref, _ = monotone_solve(p.lam, BoundaryData(0.0, 0.0), p.profile.grid)
        assert np.max(np.abs(p.profile.values - ref.values)) <= tol


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
    assert not e.value.touched
    # in a sweep, one zero pivot (the 10th factorization, a Newton Jacobian
    # early on the branch) fails that Newton solve; no fallback solves that
    # lambda, so it ends the bracket far below the fold, which the sweep
    # reports because the bracket lies under the analytic lower bound
    factorizations = []

    def tenth_fails(ab, kl, ku):
        factorizations.append(ab.shape)
        return (zero_pivot if len(factorizations) == 10 else factor)(ab, kl, ku)

    monkeypatch.setattr(branch, "dgbtrf", tenth_fails)
    newton, monotone = [], []
    _spy(monkeypatch, "newton_solve", newton)
    _spy(monkeypatch, "monotone_solve", monotone)
    res = sweep_branch(cfg)
    failed = [lam for lam, _, ok in newton if not ok]
    assert len(failed) == 1 and res.failed_solves == 1
    assert res.lam_star_bracket[1] == failed[0] < float(lambda_bar(3))
    assert "bracket lies below the analytic lower bound lambda_bar" in res.warnings
    assert {M for _, M, _ in monotone} == {256}


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
