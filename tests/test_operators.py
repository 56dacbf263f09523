import numpy as np
import pytest
from fractions import Fraction

from memsplate.grid import BoundaryData, build_grid
from memsplate.operators import (_clamped_laplacians, _quad_fit_weights,
                                 bilaplacian_clamped, bilaplacian_form,
                                 hardy_rellich_constant, lambda_bar, mixed_bilaplacian,
                                 power_bilaplacian_coeff)


def laplacian_with_bc(grid, bc):
    """(L, o) with Delta_N u = L @ u_interior + o, evaluated at all M nodes.

    u_interior are the M-1 unknowns at nodes 0..M-2; the boundary value
    alpha and the ghost reflection carrying beta enter through o.  L is a
    scipy.sparse CSR matrix of `_clamped_laplacians`' L1.
    """
    import scipy.sparse as sp
    L1, o, _ = _clamped_laplacians(grid, bc)
    return sp.csr_matrix(L1, shape=(grid.M, grid.M - 1)), o


def mixed_dense(grid, bc):
    """(A, o1): `mixed_bilaplacian`'s band as a dense matrix in A's own row order.

    The band stores row i of A at position order[i], each (v, u) row pair
    swapped and the last row unpaired; order is its own inverse.
    """
    ab, (kl, ku), o1 = mixed_bilaplacian(grid, bc)
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(kl + ku + 1):
        k = ku - d
        i = np.arange(max(0, -k), n - max(0, k))
        A[i, i + k] = ab[d, i + k]
    order = np.arange(n)
    order[:-1] ^= 1
    return A[order], o1


def test_exact_coefficients():
    assert power_bilaplacian_coeff(4, 3) == 4 * 2 * 5 * 3
    assert power_bilaplacian_coeff(2, 7) == 0         # r^2 is biharmonic-free
    assert power_bilaplacian_coeff(Fraction(4, 3), 9) == -lambda_bar(9)
    assert lambda_bar(9) == Fraction(3800, 81)
    assert lambda_bar(2) < 0 < lambda_bar(3)
    assert hardy_rellich_constant(9) == Fraction(2025, 16)
    assert hardy_rellich_constant(4) == 0


def test_laplacian_on_quadratic():
    # Delta (r^2) = 2N exactly representable by the quadratic-fit stencils;
    # r^2 has u(1) = 1, u'(1) = 2, so every node, the last included, is exact
    for N in (1, 2, 5):
        g = build_grid(N, 64, 2.0)
        L, o = laplacian_with_bc(g, BoundaryData(1.0, 2.0))
        out = L @ g.r[:-1] ** 2 + o
        assert len(out) == g.M
        assert np.allclose(out, 2.0 * N, rtol=1e-8)


def test_laplacian_with_bc_carries_data():
    # u = 1 - r^2 has u(1) = 0, u'(1) = -2: admissible clamped data
    N = 3
    g = build_grid(N, 128, 2.0)
    L, o = laplacian_with_bc(g, BoundaryData(0.0, -2.0))
    u_int = 1.0 - g.r[:-1] ** 2
    out = L @ u_int + o
    assert np.allclose(out, -2.0 * N, rtol=1e-8)


def test_bilaplacian_on_polynomial():
    # u = (1-r^2)^2: Delta^2 u = c(4, N) constant, clamped zero data
    for N in (2, 3, 9):
        g = build_grid(N, 256, 2.0)
        K, o = bilaplacian_clamped(g, BoundaryData(0.0, 0.0))
        out = K @ (1.0 - g.r[:-1] ** 2) ** 2 + o
        c = float(power_bilaplacian_coeff(4, N))
        # quadratic-fit stencils composed twice are O(1) at the very first and
        # last cells for a quartic; check the interior band
        r = g.r[:-1]
        mask = (r >= 0.05) & (r <= 0.9)
        assert np.allclose(out[mask], c, rtol=1e-3)


def test_bilaplacian_singular_profile():
    # Delta^2 (1 - r^(4/3)) = lambda_bar * r^(-8/3); u'(1) = -4/3
    N = 9
    g = build_grid(N, 2048, 2.0)
    K, o = bilaplacian_clamped(g, BoundaryData(0.0, -4.0 / 3.0))
    r = g.r[:-1]
    out = K @ (1.0 - r ** (4.0 / 3.0)) + o
    exact = float(lambda_bar(N)) * r ** (-8.0 / 3.0)
    mask = (r >= 0.1) & (r <= 0.9)
    rel = np.abs(out[mask] - exact[mask]) / np.abs(exact[mask])
    assert np.max(rel) < 1e-3


def test_form_is_symmetric_positive():
    # N = 1 has its own origin row and first quadrature cell
    for N in (1, 3):
        g = build_grid(N, 128, 2.0)
        A, m = bilaplacian_form(g)
        Ad = A.toarray()
        assert np.allclose(Ad, Ad.T, rtol=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(len(m))
            assert x @ (Ad @ x) > 0
        assert np.all(m > 0)


def test_form_matches_composition():
    # phi^T A phi equals the quadrature of (Delta phi)^2 for clamped phi
    for N in (1, 3):
        g = build_grid(N, 256, 2.0)
        A, m = bilaplacian_form(g)
        L, o = laplacian_with_bc(g, BoundaryData(0.0, 0.0))
        phi = (1.0 - g.r[:-1]) ** 2 * np.sin(3 * g.r[:-1])
        lap = L @ phi + o
        q = g.quad_weights() * g.r ** (g.N - 1)
        direct = float(np.sum(q * lap ** 2))
        viaA = float(phi @ (A @ phi))
        assert viaA == pytest.approx(direct, rel=1e-9)


def test_assembled_rows_equal_the_scalar_stencil():
    # the whole-grid assembly stores, bit for bit, the extended-precision
    # per-node quadratic fit rounded once to float64, at interior nodes of a
    # graded grid with nonzero boundary data
    for N in (1, 3, 9):
        g = build_grid(N, 64, 2.0)
        L, _ = laplacian_with_bc(g, BoundaryData(0.3, -0.7))
        r = g.r.astype(np.longdouble)
        for i in (1, 2, 17, 40, g.M - 3):
            w1, w2 = _quad_fit_weights(r[i - 1:i + 2], r[i])
            expected = np.zeros(g.M - 1)
            expected[i - 1:i + 2] = (w2 + (N - 1) / r[i] * w1).astype(np.float64)
            assert np.array_equal(L[[i]].toarray()[0], expected), (N, i)
        # three-point stencils: the plate form couples each unknown only to
        # the two nearest on either side
        coo = bilaplacian_form(g)[0].tocoo()
        assert np.max(np.abs(coo.row - coo.col)) == 2


def test_operators_are_float64():
    for N in (1, 3):
        g = build_grid(N, 64, 2.0)
        bc = BoundaryData(0.3, -0.7)
        ab, _, o1 = mixed_bilaplacian(g, bc)
        for L, o in (laplacian_with_bc(g, bc), bilaplacian_clamped(g, bc), (ab, o1),
                     bilaplacian_form(g)):
            assert L.dtype == np.float64 and o.dtype == np.float64, N

