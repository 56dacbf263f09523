import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from memsplate.grid import RadialField, build_grid
from memsplate.operators import bilaplacian_form
from memsplate.stability import (beam_eigenvalue_1d, disk_eigenvalue_2d, mu1,
                                 nu1, nu1_discrete, stability_along_branch)


def test_beam_eigenvalue_oracle():
    # smallest clamped-interval eigenvalue: k^4 with tan k + tanh k = 0
    k4 = beam_eigenvalue_1d()
    assert k4 == pytest.approx(31.2852, abs=1e-3)
    assert nu1(1) == pytest.approx(k4, abs=1e-2)


def test_disk_eigenvalue_oracle():
    # smallest clamped-disk eigenvalue: k^4 with J0 I1 + I0 J1 = 0
    k4 = disk_eigenvalue_2d()
    assert k4 == pytest.approx(104.3631, abs=1e-3)
    assert nu1(2) == pytest.approx(k4, abs=5e-2)


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
    Ad = A.astype(np.float64)
    w = 2.0 * lam * np.ones(len(m))
    rng = np.random.default_rng(0)
    for _ in range(100):
        phi = rng.standard_normal(len(m))
        num = phi @ (Ad @ phi) - np.sum(w * m * phi ** 2)
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
    # the extrapolated value is much closer than the raw discrete ones
    assert abs(nu1(1) - exact) < 0.3 * errs[2]


def test_nu1_discrete_observed_order():
    # the cause behind the extrapolation bound: second order at N = 1 and 2
    for N, exact in ((1, beam_eigenvalue_1d()), (2, disk_eigenvalue_2d())):
        errs = [abs(nu1_discrete(build_grid(N, M, 1.0)).value - exact)
                for M in (128, 256, 512)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9), (N, orders)


def _dense_reference(A, m, shift):
    """Smallest eigenpair value by dense LAPACK eigh on the inverted pencil.

    diag(m) x = theta (A + shift diag(m)) x for its largest theta; the value is
    the extended-precision Rayleigh quotient of the eigenvector, as in the
    package, since the float64 eigenvalue has a rounding floor of order eps/h^4.
    """
    n = len(m)
    B = A.astype(np.float64).toarray() + np.diag(shift * m)
    _, vecs = sla.eigh(np.diag(m), B, subset_by_index=[n - 1, n - 1])
    v = vecs[:, 0].astype(np.longdouble)
    return float((v @ (A @ v)) / np.sum(m * v ** 2))


def _linearized_form(profile, lam):
    A, m = bilaplacian_form(profile.grid)
    weight = 2.0 * lam / (1.0 - profile.values[:-1]) ** 3
    return (A - sp.diags(weight * m)).tocsr(), m, weight


def test_nu1_discrete_matches_dense_eigh():
    for N in (1, 2, 9, 16):
        g = build_grid(N, 128, 1.0)
        A, m = bilaplacian_form(g)
        res = nu1_discrete(g)
        assert res.value == pytest.approx(_dense_reference(A, m, 0.0), rel=1e-9), N
        assert res.method == "banded Cholesky inverse iteration, plate form"
        assert res.iterations >= 2


def test_mu1_matches_dense_eigh_on_a_stable_profile():
    g = build_grid(3, 128, 1.0)
    u = RadialField(g, 0.4 * (1.0 - g.r ** 2) ** 2)
    lam = 20.0
    A_mu, m, _ = _linearized_form(u, lam)
    res = mu1(u, lam)
    assert res.value > 0
    assert res.value == pytest.approx(_dense_reference(A_mu, m, 0.0), rel=1e-9)
    assert res.method == "banded Cholesky inverse iteration, linearized form"


def test_mu1_shift_fallback_on_an_indefinite_form():
    # past the fold of u = 0 at N = 2 (lambda > nu1/2): the unshifted form is
    # indefinite, so the s = 0 factorization fails and a shift must take over
    g = build_grid(2, 128, 1.0)
    u = RadialField(g, np.zeros(g.M))
    lam = 60.0
    A_mu, m, weight = _linearized_form(u, lam)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(A_mu.astype(np.float64).toarray())
    res = mu1(u, lam)
    assert res.value < 0
    ref = _dense_reference(A_mu, m, float(np.max(weight)) + 1.0)
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_nu1_discrete_three_grid_observed_order():
    # no oracle: the observed order from three grids backs the second-order
    # Richardson step of nu1 at every N it is used for
    for N in range(1, 17):
        e1, e2, e3 = (nu1_discrete(build_grid(N, M, 1.0)).value for M in (256, 512, 1024))
        order = np.log2((e1 - e2) / (e2 - e3))
        assert order >= 1.9, (N, order)


def test_stability_along_branch_requires_stable_points():
    from collections import namedtuple
    Pt = namedtuple("Pt", "profile lam")
    g = build_grid(2, 128, 1.0)
    u = RadialField(g, np.zeros(g.M))
    vals = stability_along_branch([Pt(u, 1.0), Pt(u, 2.0)])
    assert len(vals) == 2 and vals[0] > vals[1] > 0
    with pytest.raises(RuntimeError):
        stability_along_branch([Pt(u, 60.0)])
