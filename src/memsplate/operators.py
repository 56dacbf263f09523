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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .grid import BoundaryData, RadialGrid


def power_bilaplacian_coeff(p, N: int):
    """c(p, N) = p (p-2) (p+N-2) (p+N-4), so that Delta^2 r^p = c r^(p-4).

    Exact (Fraction) when p is an int or Fraction, float otherwise.
    """
    if isinstance(p, (int, Fraction)):
        p = Fraction(p)
    return p * (p - 2) * (p + N - 2) * (p + N - 4)


def power_laplacian_coeff(p, N: int):
    """Delta_N r^p = p (p + N - 2) r^(p-2)."""
    if isinstance(p, (int, Fraction)):
        p = Fraction(p)
    return p * (p + N - 2)


def lambda_bar(N: int) -> Fraction:
    """lambda_bar_N = (8/9)(N - 2/3)(N - 8/3); Delta^2 (1 - r^(4/3)) = lambda_bar r^(-8/3)."""
    return Fraction(8, 9) * (N - Fraction(2, 3)) * (N - Fraction(8, 3))


def hardy_rellich_constant(N: int) -> Fraction:
    """H_N = N^2 (N-4)^2 / 16, the best constant in the Hardy-Rellich weight H_N / r^4."""
    return Fraction(N * N * (N - 4) * (N - 4), 16)


#: stencil assembly and application run in extended precision: the composed
#: fourth-order stencil carries weights ~ 1/h^4 whose cancellation would
#: otherwise cap the achievable relative accuracy near 1e-5 on fine grids
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


def _laplacian_rows(grid: RadialGrid):
    """Stencil of Delta_N at nodes 0..M-2 as COO triplets (rows, cols, weights).

    Entries come row by row with ascending columns.  The last node's stencil
    involves the boundary ghost; it is returned separately as
    (cols, weights, ghost_weight) where the ghost value is
    u[M-2] + 2 beta (1 - r[M-2]).
    """
    r, N, M = grid.r, grid.N, grid.M
    r = r.astype(_WIDE)
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
    # boundary node stencil across the ghost at 2 - r[M-2]
    rg = 2.0 - r[M - 2]
    w1, w2 = _quad_fit_weights((r[M - 2], 1.0, rg), 1.0)
    w = w2 + (N - 1) * w1
    boundary = (np.array([M - 2, M - 1]), np.array([w[0], w[1]]), w[2])
    return (rows, cols, weights), boundary


def _assemble(rows, cols, weights, shape):
    # COO assembly keeps the float128 stencil weights; lil_matrix setitem
    # would silently round them through float64
    return sp.coo_matrix((np.asarray(weights, dtype=_WIDE), (rows, cols)), shape=shape).tocsr()


def laplacian_op(grid: RadialGrid) -> "RadialOperator":
    """Delta_N as an M x M banded operator on full sample vectors.

    The last row uses a one-sided interior stencil (no boundary data needed),
    so only rows 0..M-2 should be trusted for clamped problems.
    """
    (rows, cols, weights), _ = _laplacian_rows(grid)
    r, N, M = grid.r, grid.N, grid.M
    w1, w2 = _quad_fit_weights(r[M - 3:M], 1.0)
    return RadialOperator(
        grid=grid,
        matrix=_assemble(np.append(rows, [M - 1] * 3), np.append(cols, [M - 3, M - 2, M - 1]),
                         np.append(weights, w2 + (N - 1) * w1), (M, M)),
        offset=np.zeros(M),
        closure="origin: even fit; r=1: one-sided",
    )


def laplacian_with_bc(grid: RadialGrid, bc: BoundaryData):
    """(L, o) with Delta_N u = L @ u_interior + o, evaluated at all M nodes.

    u_interior are the M-1 unknowns at nodes 0..M-2; the boundary value
    alpha and the ghost reflection carrying beta enter through o.
    """
    (rows, cols, weights), (bcols, bweights, wg) = _laplacian_rows(grid)
    M = grid.M
    o = np.zeros(M, dtype=_WIDE)
    # the last stencil entry is node M-2 reaching u[M-1] = alpha
    o[M - 2] += weights[-1] * _WIDE(bc.alpha)
    # last row: u[M-2], u[M-1] = alpha, ghost = u[M-2] + 2 beta (1 - r[M-2])
    o[M - 1] += bweights[1] * _WIDE(bc.alpha) + wg * 2.0 * _WIDE(bc.beta) * (1.0 - _WIDE(grid.r[M - 2]))
    L = _assemble(np.append(rows[:-1], M - 1), np.append(cols[:-1], M - 2),
                  np.append(weights[:-1], bweights[0] + wg), (M, M - 1))
    return L, o


@dataclass(frozen=True)
class RadialOperator:
    """A banded discrete radial operator plus the affine offset from boundary data."""

    grid: RadialGrid
    matrix: sp.csr_matrix
    offset: np.ndarray
    closure: str

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply to a full sample vector; uses as many leading entries as needed."""
        n = self.matrix.shape[1]
        out = self.matrix @ np.asarray(values, dtype=_WIDE)[:n] + self.offset
        return np.asarray(out, dtype=float)


def _clamped_laplacians(grid: RadialGrid, bc: BoundaryData):
    """(L1, o1, L2): Delta u = L1 @ u + o1 at all M nodes, Delta v = L2 @ v at 0..M-2.

    The first Laplacian carries the boundary data; the second needs none,
    since it sees Delta u at every node.
    """
    L1, o1 = laplacian_with_bc(grid, bc)
    stencil, _ = _laplacian_rows(grid)
    return L1, o1, _assemble(*stencil, (grid.M - 1, grid.M))


def bilaplacian_clamped(grid: RadialGrid, bc: BoundaryData) -> RadialOperator:
    """Delta^2 with u(1) = alpha, u'(1) = beta folded into the closure.

    Acts on the M-1 interior unknowns and returns Delta^2 u at nodes 0..M-2.
    Assembled as Delta_N composed with itself (see `_clamped_laplacians`).
    """
    L1, o1, L2 = _clamped_laplacians(grid, bc)
    return RadialOperator(
        grid=grid,
        matrix=(L2 @ L1).tocsr(),
        offset=L2 @ o1,
        closure=f"clamped alpha={bc.alpha} beta={bc.beta}; Delta o Delta",
    )


def mixed_bilaplacian(grid: RadialGrid, bc: BoundaryData):
    """(A, o1): `bilaplacian_clamped` split into v = Delta u, Delta v = f, banded.

    The 2M-1 unknowns interleave as [v0, u0, v1, u1, ..., v_{M-2}, u_{M-2},
    v_{M-1}], v being Delta u at all M nodes.  Row 2i holds
    v_i - (L1 @ u)_i = o1_i and row 2i+1 holds (L2 @ v)_i = f_i, so with o1
    on the even rows and f on the odd ones the u entries solve
    bilaplacian_clamped(grid, bc).apply(u) = f in exact arithmetic, while
    every row scales like 1/h^2 instead of 1/h^4.  A is a float64
    `dia_matrix` with offsets u, u-1, ..., -l, so A.data is LAPACK band
    storage; (l, u) = (3, 5), or (3, 3) at N = 1.
    """
    L1, o1, L2 = _clamped_laplacians(grid, bc)
    L1, L2, M = L1.tocoo(), L2.tocoo(), grid.M
    rows = np.concatenate([2 * np.arange(M), 2 * L1.row, 2 * L2.row + 1])
    cols = np.concatenate([2 * np.arange(M), 2 * L1.col + 1, 2 * L2.col])
    vals = np.concatenate([np.ones(M), -L1.data, L2.data]).astype(np.float64)
    lo, up = int(np.max(rows - cols)), int(np.max(cols - rows))
    ab = np.zeros((lo + up + 1, 2 * M - 1))
    ab[up + rows - cols, cols] = vals
    A = sp.dia_matrix((ab, np.arange(up, -lo - 1, -1)), shape=(2 * M - 1, 2 * M - 1))
    return A, np.asarray(o1, dtype=np.float64)


def bilaplacian_form(grid: RadialGrid):
    """(A, m): quadratic form of integral (Delta phi)^2 r^(N-1) dr and L^2 mass.

    A = L^T diag(w r^(N-1)) L with L the homogeneous-clamped Laplacian, so A is
    symmetric by construction and positive definite; m is the diagonal mass
    (quadrature weight times r^(N-1)) at the interior unknowns.  Both omit the
    sphere-area factor, which cancels in every Rayleigh quotient.
    """
    L, _ = laplacian_with_bc(grid, BoundaryData(0.0, 0.0))
    q = grid.quad_weights() * grid.r ** (grid.N - 1)
    A = (L.T @ sp.diags(q) @ L).tocsr()
    return A, q[:-1]
