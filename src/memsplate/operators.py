"""Finite-difference radial Laplacian / bilaplacian with clamped closures.

The radial Laplacian is Delta_N u = u'' + (N-1)/r u'.  Stencils are built by
local quadratic fitting on the nonuniform graded grid.  Two closures:

* origin: smooth radial functions are even in r.  For N >= 2 the first
  node uses a quadratic fit in the variable x = r^2 through the first three
  nodes (equivalent to ghost-node reflection with u'(0) = u'''(0) = 0).
  At N = 1 it uses the three-point stencil for u'' through the mirror node
  -r_1 and the nodes r_1, r_2, with u(-r_1) = u(r_1) folded onto node 0.
  With the N = 1 quadrature (see ``RadialGrid.quad_weights``) this is the
  plain discretization of the even extension to (-1, 1).  The x = r^2 fit
  is as accurate pointwise, but at N = 1 the origin carries full quadrature
  weight, and the transpose of that row in the form L^T Q L puts an O(h)
  error into the form's natural condition at the origin: nu1 would converge
  at first order only;
* boundary: a ghost node reflected across r = 1 carries the Neumann data
  u'(1) = beta, while u(1) = alpha enters as an affine offset.

The bilaplacian is the composition of two such Laplacians sharing these
closures, which keeps the quadratic form integral (Delta phi)^2 natural.
Every operator is float64 plus a float64 offset vector.  The solvers and
eigensolves use the mixed split v = Delta u (`mixed_bilaplacian`), one
LAPACK band.  `bilaplacian_clamped` and the plate form L^T diag(q) L
(`bilaplacian_form`) return scipy.sparse matrices for the tests; each
imports scipy.sparse itself, and no command calls them, so no command loads
it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .grid import BoundaryData, RadialGrid


def power_bilaplacian_coeff(p, N: int):
    """c(p, N) = p (p-2) (p+N-2) (p+N-4), so that Delta^2 r^p = c r^(p-4).

    Exact (Fraction) when p is an int or Fraction, float otherwise.
    """
    if isinstance(p, (int, Fraction)):
        p = Fraction(p)
    return p * (p - 2) * (p + N - 2) * (p + N - 4)


def lambda_bar(N: int) -> Fraction:
    """lambda_bar_N = (8/9)(N - 2/3)(N - 8/3); Delta^2 (1 - r^(4/3)) = lambda_bar r^(-8/3)."""
    return Fraction(8, 9) * (N - Fraction(2, 3)) * (N - Fraction(8, 3))


def hardy_rellich_constant(N: int) -> Fraction:
    """H_N = N^2 (N-4)^2 / 16, the best constant in the Hardy-Rellich weight H_N / r^4."""
    return Fraction(N * N * (N - 4) * (N - 4), 16)


#: the stencil weights are fitted in extended precision and rounded to float64
#: once, at assembly.  A float64 fit moves lambda*_h by up to 1.2e-11 relative,
#: which leaves the fold bracket in 11 of 26 regular sweeps (N = 1..8 at
#: M = 1024, 2048, 4096 and N = 3, 4 at M = 512)
_WIDE = np.longdouble


def _quad_fit_weights(xs, xe):
    """(value', value'') weights at xe of the quadratic through (xs[0..2], .).

    Elementwise: with xs three equal-length arrays and xe an array, row k of
    each result holds the weight of xs[k] for every evaluation point.
    """
    x0, x1, x2 = (_WIDE(x) for x in xs)
    xe = _WIDE(xe)
    d0 = (x0 - x1) * (x0 - x2)
    d1 = (x1 - x0) * (x1 - x2)
    d2 = (x2 - x0) * (x2 - x1)
    w1 = np.array([(2 * xe - x1 - x2) / d0, (2 * xe - x0 - x2) / d1, (2 * xe - x0 - x1) / d2])
    w2 = np.array([2.0 / d0, 2.0 / d1, 2.0 / d2])
    return w1, w2


def _laplacian_rows(grid: RadialGrid, bc: BoundaryData):
    """Stencils of Delta_N with the clamped closure, rounded once to float64.

    Returns (rows, cols, weights), w_last, o.  The triplets hold the stencils
    at nodes 0..M-2, row by row with ascending columns; the last entry is
    node M-2 reaching u[M-1].  The last node's stencil involves the ghost
    u[M-2] + 2 beta (1 - r[M-2]) at 2 - r[M-2]: w_last is its weight of
    u[M-2] with the ghost folded in, and o holds the boundary data's part,
    u[M-1] = alpha and the ghost's beta term, at all M nodes.
    """
    r, N, M = grid.r.astype(_WIDE), grid.N, grid.M
    if N == 1:
        # origin closure: u'' through the mirror node -r_1, whose value u[0]
        # folds onto node 0 (see the module docstring)
        _, w2 = _quad_fit_weights((-r[0], r[0], r[1]), r[0])
        cols0, w0 = [0, 1], [w2[0] + w2[1], w2[2]]
    else:
        # origin closure: even quadratic in x = r^2 through nodes 0..2
        x = r[:3] ** 2
        w1, w2 = _quad_fit_weights(x, x[0])
        cols0, w0 = [0, 1, 2], 4.0 * x[0] * w2 + 2.0 * N * w1
    # interior nodes i = 1..M-2, all at once: columns i-1, i, i+1
    ri = r[1:M - 1]
    w1, w2 = _quad_fit_weights((r[:M - 2], ri, r[2:]), ri)
    w = w2 + (N - 1) / ri * w1
    i = np.arange(1, M - 1)
    rows = np.concatenate([np.zeros(len(cols0), dtype=int), np.repeat(i, 3)])
    cols = np.concatenate([cols0, (i[:, None] + np.arange(-1, 2)).ravel()])
    weights = np.concatenate([np.array(w0, dtype=_WIDE), w.T.ravel()])
    # boundary node stencil: u[M-2], u[M-1] = alpha and the ghost
    w1, w2 = _quad_fit_weights((r[M - 2], 1.0, 2.0 - r[M - 2]), 1.0)
    wb = w2 + (N - 1) * w1
    alpha, beta = _WIDE(bc.alpha), _WIDE(bc.beta)
    o = np.zeros(M, dtype=_WIDE)
    o[M - 2] = weights[-1] * alpha
    o[M - 1] = wb[1] * alpha + wb[2] * 2.0 * beta * (1.0 - r[M - 2])
    return ((rows, cols, weights.astype(np.float64)), np.float64(wb[0] + wb[2]),
            o.astype(np.float64))


def _clamped_laplacians(grid: RadialGrid, bc: BoundaryData):
    """(L1, o1, L2): Delta u = L1 @ u + o1 at all M nodes, Delta v = L2 @ v at 0..M-2.

    L1 (M x M-1) acts on the unknowns u[0..M-2] and carries the boundary
    data in o1; L2 (M-1 x M) acts on v = Delta u at all M nodes and needs
    none.  Both are (weights, (rows, cols)) triplets with distinct positions.
    """
    (rows, cols, weights), w_last, o1 = _laplacian_rows(grid, bc)
    M = grid.M
    # node M-2's weight of u[M-1] = alpha is in o1; the last row is node M-1's
    L1 = (np.append(weights[:-1], w_last),
          (np.append(rows[:-1], M - 1), np.append(cols[:-1], M - 2)))
    return L1, o1, (weights, (rows, cols))


def bilaplacian_clamped(grid: RadialGrid, bc: BoundaryData):
    """(K, o) with Delta^2 u = K @ u + o at nodes 0..M-2, for u(1) = alpha, u'(1) = beta.

    K = L2 @ L1 acts on the M-1 interior unknowns and o = L2 @ o1 (see
    `_clamped_laplacians`).  Its rows scale like 1/h^4, so the solvers use
    its mixed split, `mixed_bilaplacian`, instead.
    """
    import scipy.sparse as sp
    L1, o1, L2 = _clamped_laplacians(grid, bc)
    L2 = sp.csr_matrix(L2, shape=(grid.M - 1, grid.M))
    return (L2 @ sp.csr_matrix(L1, shape=(grid.M, grid.M - 1))).tocsr(), L2 @ o1


def mixed_bilaplacian(grid: RadialGrid, bc: BoundaryData):
    """(ab, (kl, ku), o1): `bilaplacian_clamped` split into v = Delta u, Delta v = f, banded.

    The 2M-1 unknowns interleave as [v0, u0, v1, u1, ..., v_{M-2}, u_{M-2},
    v_{M-1}], v being Delta u at all M nodes.  The mixed matrix A has row 2i
    v_i - (L1 @ u)_i = o1_i and row 2i+1 (L2 @ v)_i = f_i, so with o1 on the
    even rows and f on the odd ones the u entries solve K @ u + o = f for
    (K, o) = bilaplacian_clamped(grid, bc) in exact arithmetic, while every
    row scales like 1/h^2 instead of 1/h^4.  `ab` is A in float64 LAPACK band
    storage, each row pair swapped: ab[ku + i - j, j] = A[order[i], j] with
    order = 1, 0, 3, 2, ..., 2M-2.  The L2 row, with a Jacobian's u diagonal
    on its superdiagonal, then leads each pair, and dgbtrf's partial
    pivoting swaps at most one row of the operator and of the Jacobians
    short of touchdown on graded grids, where in A's order it swapped nearly
    every pair back.  (kl, ku) = (2, 4), or (2, 2) at N = 1, against (3, 5)
    and (3, 3) in A's order.  The stencil triplets go straight into it.
    """
    (w1, (r1, c1)), o1, (w2, (r2, c2)) = _clamped_laplacians(grid, bc)
    M = grid.M
    rows = np.concatenate([2 * np.arange(M), 2 * r1, 2 * r2 + 1])
    rows[rows < 2 * M - 2] ^= 1  # swap each row pair; row 2M-2 has no partner
    cols = np.concatenate([2 * np.arange(M), 2 * c1 + 1, 2 * c2])
    vals = np.concatenate([np.ones(M), -w1, w2])
    kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
    ab = np.zeros((kl + ku + 1, 2 * M - 1))
    ab[ku + rows - cols, cols] = vals
    return ab, (kl, ku), o1


def bilaplacian_form(grid: RadialGrid):
    """(A, m): the plate form A = L^T diag(q) L of int (Delta phi)^2 r^(N-1) dr, and the mass.

    L is the homogeneous-clamped Laplacian at all M nodes, q = w r^(N-1) its
    quadrature weights, and m = q at the M-1 interior unknowns.  Both omit the
    sphere-area factor, which cancels in every Rayleigh quotient.  A is a
    scipy.sparse CSR matrix, symmetric up to rounding and positive definite.
    """
    import scipy.sparse as sp
    (w, (rows, cols)), _, _ = _clamped_laplacians(grid, BoundaryData(0.0, 0.0))
    L = sp.csr_matrix((w, (rows, cols)), shape=(grid.M, grid.M - 1))
    q = grid.quad_weights() * grid.r ** (grid.N - 1)
    return (L.T @ sp.diags(q) @ L).tocsr(), q[:-1]
