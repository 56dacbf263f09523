import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import memsplate
from memsplate import branch, stability
from memsplate.branch import ContinuationConfig, _ClampedSolver, sweep_branch
from memsplate.grid import BoundaryData, RadialField, build_grid
from memsplate.operators import bilaplacian_form
from memsplate.stability import (_inverse_iteration, beam_eigenvalue_1d,
                                 disk_eigenvalue_2d, mu1, nu1, nu1_discrete)
from test_operators import mixed_dense


def test_beam_eigenvalue_oracle():
    # smallest clamped-interval eigenvalue: k^4 with tan k + tanh k = 0
    k4 = beam_eigenvalue_1d()
    assert k4 == pytest.approx(31.2852, abs=1e-3)
    assert nu1(1) == pytest.approx(k4, rel=1e-12)


def test_disk_eigenvalue_oracle():
    # smallest clamped-disk eigenvalue: k^4 with J0 I1 + I0 J1 = 0
    k4 = disk_eigenvalue_2d()
    assert k4 == pytest.approx(104.3631, abs=1e-3)
    assert nu1(2) == pytest.approx(k4, rel=1e-12)


def _bessel_root_nu1(N):
    """k^4 at the first root k of J_nu I_(nu+1) + I_nu J_(nu+1), nu = N/2 - 1,
    from scipy's Bessel functions and Brent's method."""
    from scipy.optimize import brentq
    from scipy.special import iv, jv

    nu = N / 2 - 1

    def f(k):
        return jv(nu, k) * iv(nu + 1, k) + iv(nu, k) * jv(nu + 1, k)

    k = max(1.0, nu + 1.0)
    assert f(k) > 0
    while f(k + 0.5) > 0:
        k += 0.5
    return brentq(f, k, k + 0.5, xtol=1e-15, rtol=1e-15) ** 4


@pytest.mark.parametrize("N", [*range(1, 17), 30, 40])
def test_nu1_matches_an_independent_bessel_root(N):
    assert nu1(N) == pytest.approx(_bessel_root_nu1(N), rel=1e-13)


# Run in a fresh interpreter: this one has imported scipy already.
_NU1_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from memsplate.stability import nu1
nu1(9)
print(json.dumps([m for m in ("scipy.special", "scipy.linalg", "scipy.sparse")
                  if m in sys.modules]))
"""


def test_nu1_loads_no_scipy_module(tmp_path):
    src = Path(memsplate.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", _NU1_IMPORT_PROBE, str(src)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_nu1_frozen_values():
    frozen = {3: 237.7211, 9: 3604.8787, 16: 19615.715}
    for N, v in frozen.items():
        assert nu1(N) == pytest.approx(v, rel=1e-4)


def test_shift_identity_at_zero_profile():
    # linearizing around u = 0 shifts the discrete spectrum by exactly -2*lambda
    for N in (2, 9):
        g = build_grid(N, 128, 1.0)
        base = nu1_discrete(g).value
        lam = 7.5
        res = mu1(RadialField(g, np.zeros(g.M)), lam)
        assert res.value == pytest.approx(base - 2.0 * lam, rel=1e-9)


def test_ground_state_has_one_sign():
    for N in (1, 3, 9):
        res = nu1_discrete(build_grid(N, 256, 1.0))
        v = res.eigenfunction.values[:-1]
        assert np.all(v > 0) or np.all(v < 0)
        assert res.residual < 1e-8


def test_rayleigh_quotient_bounds_mu1():
    N = 3
    g = build_grid(N, 256, 1.0)
    lam = 5.0
    u = RadialField(g, np.zeros(g.M))
    m1 = mu1(u, lam).value
    A, m = bilaplacian_form(g)
    w = 2.0 * lam * np.ones(len(m))
    rng = np.random.default_rng(0)
    for _ in range(100):
        phi = rng.standard_normal(len(m))
        num = phi @ (A @ phi) - np.sum(w * m * phi ** 2)
        den = np.sum(m * phi ** 2)
        assert num / den >= m1 - 1e-8 * max(1.0, abs(m1))


def test_mu1_rejects_touching_profile():
    g = build_grid(2, 64, 1.0)
    with pytest.raises(Exception):
        mu1(RadialField(g, np.ones(g.M)), 1.0)


def test_nu1_discrete_converges_to_oracle():
    exact = beam_eigenvalue_1d()
    errs = []
    for M in (128, 256, 512):
        errs.append(abs(nu1_discrete(build_grid(1, M, 1.0)).value - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1.5e-3
    # nu1, from the characteristic equation, is much closer than the raw discrete ones
    assert abs(nu1(1) - exact) < 0.3 * errs[2]


def test_nu1_discrete_observed_order():
    # the cause behind the extrapolation bound: second order at N = 1 and 2
    for N, exact in ((1, beam_eigenvalue_1d()), (2, disk_eigenvalue_2d())):
        errs = [abs(nu1_discrete(build_grid(N, M, 1.0)).value - exact)
                for M in (128, 256, 512)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9), (N, orders)


def _pencil_spectrum(profile, lam):
    """Finite eigenvalues of the mixed pencil J x = mu B x, by dense LAPACK eig.

    J is the mixed clamped bilaplacian minus 2 lam/(1-u)^3 on the u diagonal
    and B the identity on the u rows; B is singular, so the v rows give
    infinite eigenvalues, which are dropped.  Sorted by real part.
    """
    J, _ = mixed_dense(profile.grid, BoundaryData(0.0, 0.0))
    B = np.zeros_like(J)
    u_rows = np.arange(1, J.shape[0], 2)
    J[u_rows, u_rows] -= 2.0 * lam / (1.0 - profile.values[:-1]) ** 3
    B[u_rows, u_rows] = 1.0
    mu = sla.eig(J, B, right=False)
    mu = mu[np.isfinite(mu)]
    return mu[np.argsort(mu.real)]


def test_nu1_discrete_matches_dense_eigh():
    for N in (1, 2, 9, 16):
        g = build_grid(N, 128, 1.0)
        mu = _pencil_spectrum(RadialField(g, np.zeros(g.M)), 0.0)
        res = nu1_discrete(g)
        # the smallest eigenvalue is real
        assert mu[0].imag == 0 and mu[0].real < mu[1].real
        assert res.value == pytest.approx(mu[0].real, rel=1e-9), N
        assert res.method == "inverse iteration, mixed pencil"
        assert res.iterations >= 2


def test_mu1_matches_dense_eigh_on_a_stable_profile():
    g = build_grid(3, 128, 1.0)
    u = RadialField(g, 0.4 * (1.0 - g.r ** 2) ** 2)
    lam = 20.0
    mu = _pencil_spectrum(u, lam)
    res = mu1(u, lam)
    assert res.value > 0
    assert res.value == pytest.approx(mu[0].real, rel=1e-9)
    assert res.method == "inverse iteration, linearized mixed pencil"


def test_mu1_shift_fallback_on_an_indefinite_form():
    # past the fold of u = 0 at N = 2 (lambda > nu1/2): the unshifted
    # iteration finds the eigenvalue nearest 0, which is negative, so a shift
    # below the spectrum takes over and returns the smallest
    g = build_grid(2, 128, 1.0)
    u = RadialField(g, np.zeros(g.M))
    lam = 60.0
    mu = _pencil_spectrum(u, lam)
    assert mu[0].real < 0
    solver = _ClampedSolver(g, BoundaryData(0.0, 0.0))
    weight = np.full(g.M - 1, 2.0 * lam)
    nearest, _, _ = _inverse_iteration(solver, solver.factor_shifted(weight), weight)
    assert nearest == pytest.approx(mu[np.argmin(np.abs(mu))].real, rel=1e-9)
    res = mu1(u, lam)
    assert res.value < 0
    assert res.value == pytest.approx(mu[0].real, rel=1e-9)


def test_mu1_shift_fallback_when_the_nearest_eigenvalue_is_positive():
    # 2 lam just below nu2 at u = 0: mu2 = nu2 - 2 lam > 0 is nearest 0 and
    # mu1 < 0 lies further off; the determinant's sign reveals the negative
    # eigenvalue, and the shifted iteration returns it
    g = build_grid(2, 128, 1.0)
    u = RadialField(g, np.zeros(g.M))
    nu = _pencil_spectrum(u, 0.0).real
    lam = 0.5 * (nu[1] - 10.0)
    mu = _pencil_spectrum(u, lam)
    assert mu[0].real < 0 < mu[1].real < -mu[0].real
    solver = _ClampedSolver(g, BoundaryData(0.0, 0.0))
    weight = np.full(g.M - 1, 2.0 * lam)
    nearest, _, _ = _inverse_iteration(solver, solver.factor_shifted(weight), weight)
    assert nearest == pytest.approx(mu[1].real, rel=1e-9)
    assert mu1(u, lam).value == pytest.approx(mu[0].real, rel=1e-9)


def test_shifting_at_the_settled_estimate_halves_the_steps():
    # the unshifted iteration took 28 steps here
    res = nu1_discrete(build_grid(16, 512, 1.0))
    assert res.iterations <= 14
    assert res.factorizations == 1


@pytest.mark.parametrize("N", range(1, 17))
def test_seeded_richardson_over_two_grids_agrees_with_nu1(N):
    # the grid route: M = 512, then M = 1024 seeded with that value, then
    # the second-order Richardson step; its error is at most 6.7e-9 (N = 1)
    e1 = nu1_discrete(build_grid(N, 512, 1.0)).value
    seeded = nu1_discrete(build_grid(N, 1024, 1.0), _seed=e1)
    unseeded = nu1_discrete(build_grid(N, 1024, 1.0))
    assert seeded.value == pytest.approx(unseeded.value, rel=1e-10)
    assert seeded.iterations <= 4 and seeded.factorizations == 1
    assert seeded.residual <= 1e-10
    e2 = seeded.value
    assert e2 + (e2 - e1) / 3.0 == pytest.approx(nu1(N), rel=1e-8)


def test_a_seed_that_has_not_settled_falls_back_to_the_unseeded_solve():
    # seeded at 0.8 nu2, the shifted iteration converges to nu2, whose
    # eigenvector changes sign; that result is refused and the unseeded
    # iteration returns nu1
    g = build_grid(2, 128, 1.0)
    nu = _pencil_spectrum(RadialField(g, np.zeros(g.M)), 0.0).real
    res = nu1_discrete(g, _seed=0.8 * nu[1])
    assert res.value == pytest.approx(nu[0], rel=1e-9)
    assert res.iterations > nu1_discrete(g).iterations
    assert res.fallbacks == 1


def test_a_seed_on_a_higher_eigenvalue_falls_back_to_the_unseeded_solve():
    # seeded at nu2, the shifted iteration settles on nu2 itself, within the
    # settle tolerance of the seed; its eigenvector changes sign once, so it
    # is not the positive ground state and the unseeded iteration returns nu1
    g = build_grid(2, 128, 1.0)
    nu = _pencil_spectrum(RadialField(g, np.zeros(g.M)), 0.0).real
    assert nu[1] == pytest.approx(1580.9, rel=1e-4)
    res = nu1_discrete(g, _seed=1580.9)
    assert res.value == pytest.approx(nu[0], rel=1e-9)
    assert np.all(res.eigenfunction.values[:-1] > 0)


def test_a_mu1_seeded_on_a_higher_eigenvalue_falls_back_to_the_unseeded_solve():
    # a trace seed at nu2 with nu2's own sign-changing eigenvector as the
    # start: the seeded solve stays on mu2 = nu2 - 2 lam, which is refused,
    # and the unseeded solve runs exactly as it does without a seed
    g = build_grid(2, 128, 1.0)
    zero = RadialField(g, np.zeros(g.M))
    nu = _pencil_spectrum(zero, 0.0).real
    assert nu[1] == pytest.approx(1580.9, rel=1e-4)
    solver = _ClampedSolver(g, BoundaryData(0.0, 0.0))
    weight = np.zeros(g.M - 1)
    _, x, _ = _inverse_iteration(solver, solver.factor_shifted(weight + 1580.9), weight, 1580.9)
    start = x[1::2]
    assert np.any(start > 0) and np.any(start < 0)
    lam = 5.0
    res = mu1(zero, lam, _seed=(1580.9, start))
    plain = mu1(zero, lam)
    assert res.fallbacks == 1 and plain.fallbacks == 0
    assert res.value == plain.value and res.value == pytest.approx(nu[0] - 2 * lam, rel=1e-9)
    assert np.array_equal(res.eigenfunction.values, plain.eigenfunction.values)
    assert res.residual == plain.residual
    assert res.iterations > plain.iterations
    assert res.factorizations > plain.factorizations


def test_a_mu1_seed_whose_factor_has_a_zero_pivot_falls_back_to_the_unseeded_solve():
    # the seeded solve's first factor, J - seed B, is singular when the seed
    # is an eigenvalue to working precision; the unseeded solve then runs
    g = build_grid(2, 128, 1.0)
    zero = RadialField(g, np.zeros(g.M))
    solver = _ClampedSolver(g, BoundaryData(0.0, 0.0))
    real, calls = solver.factor_shifted, []

    def factor_shifted(d):
        calls.append(d)
        if len(calls) == 1:  # the seeded solve's first factor
            raise branch.NonConvergence("singular banded matrix (zero pivot at 1)")
        return real(d)

    solver.factor_shifted = factor_shifted
    res = mu1(zero, 5.0, _solver=solver, _seed=(nu1(2), None))
    plain = mu1(zero, 5.0)
    assert res.fallbacks == 1
    assert res.value == plain.value and res.iterations == plain.iterations


@pytest.mark.parametrize("seeded", [False, True])
def test_a_zero_pivot_on_the_shifted_factor_keeps_the_unshifted_one(monkeypatch, seeded):
    g = build_grid(9, 128, 1.0)
    nu = _pencil_spectrum(RadialField(g, np.zeros(g.M)), 0.0).real
    real, calls = branch.dgbtrf, []

    def dgbtrf(ab, kl, ku):
        # the solver's construction factors first; every later factor is shifted
        calls.append(ab)
        lu, piv, info = real(ab, kl, ku)
        return lu, piv, (info if len(calls) == 1 else 1)

    monkeypatch.setattr(branch, "dgbtrf", dgbtrf)
    res = nu1_discrete(g, _seed=nu[0] * (1 + 1e-5) if seeded else None)
    assert len(calls) == 2
    assert res.value == pytest.approx(nu[0], rel=1e-9)
    assert res.residual <= 1e-10


def test_each_mu1_adds_its_factorizations_to_the_sweep_counters(monkeypatch):
    # each mu1 factors the Jacobian and its shifted matrix; the trace itself
    # is the same with and without mu1
    results = []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    real = stability.mu1
    monkeypatch.setattr(stability, "mu1", spy)
    config = ContinuationConfig(N=9, M=256)
    plain = sweep_branch(config)
    traced = sweep_branch(replace(config, compute_mu1=True))
    assert len(results) == sum(p.mu1 is not None for p in traced.points) > 0
    assert all(r.factorizations == 2 for r in results)
    assert traced.factorizations == plain.factorizations + 2 * len(results)
    assert [p.s for p in traced.points] == [p.s for p in plain.points]
    assert traced.newton_steps == plain.newton_steps


def test_a_trace_counts_its_mu1_steps_and_refused_seeds(monkeypatch):
    # the first mu1 (lambda = 0) is seeded on nu2 with nu2's sign-changing
    # eigenvector instead of nu1(N): that solve is refused and counted, and
    # every later mu1, seeded from the one before it, is kept
    config = ContinuationConfig(N=2, M=256, compute_mu1=True)
    solver = _ClampedSolver(build_grid(2, 256, config.gamma), BoundaryData(0.0, 0.0))
    weight = np.zeros(solver.grid.M - 1)
    nu2, x, _ = _inverse_iteration(solver, solver.factor_shifted(weight + 1580.9), weight, 1580.9)
    results = []

    def spy(profile, lam, _solver=None, _seed=None):
        if not results:
            _seed = (nu2, x[1::2])
        results.append(real(profile, lam, _solver=_solver, _seed=_seed))
        return results[-1]

    real = stability.mu1
    monkeypatch.setattr(stability, "mu1", spy)
    res = sweep_branch(config)
    assert [r.fallbacks for r in results] == [1] + [0] * (len(results) - 1)
    assert results[0].value == pytest.approx(nu1_discrete(solver.grid).value, rel=1e-10)
    assert res.mu1_fallbacks == 1
    assert res.mu1_iterations == sum(r.iterations for r in results)


def test_nu1_has_no_origin_mode_on_coarse_grids():
    # the plate form gave 5715 here, a spurious mode at the origin nodes
    assert nu1_discrete(build_grid(16, 128, 1.0)).value == pytest.approx(19615.715, rel=1e-2)


@pytest.mark.parametrize("N", [9, 12, 16])
def test_mu1_positive_along_singular_traces(N):
    res = sweep_branch(ContinuationConfig(N=N, M=1024, compute_mu1=True))
    assert res.classification == "Singular" and res.points[-1].s == pytest.approx(1.0 - 1e-3)
    mus = [p.mu1 for p in res.points]
    assert all(m > 0 for m in mus)
    # every seeded mu1 agrees with a fresh unseeded solve at its point, in
    # fewer steps overall; no seeded solve is refused
    fresh = [mu1(p.profile, p.lam) for p in res.points]
    for m, f in zip(mus, fresh):
        assert m == pytest.approx(f.value, rel=1e-10)
    assert res.mu1_fallbacks == 0
    assert res.mu1_iterations < sum(f.iterations for f in fresh)


def test_nu1_discrete_three_grid_observed_order():
    # the observed order from three grids, without the oracle: second order
    # at every N, which the Richardson step of
    # test_seeded_richardson_over_two_grids_agrees_with_nu1 assumes
    for N in range(1, 17):
        e1, e2, e3 = (nu1_discrete(build_grid(N, M, 1.0)).value for M in (256, 512, 1024))
        order = np.log2((e1 - e2) / (e2 - e3))
        assert order >= 1.9, (N, order)
