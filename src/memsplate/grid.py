"""Radial grids, boundary data, sampled radial fields, and ball quadrature."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class InvalidArgument(ValueError):
    """Raised when a constructor precondition is violated."""


@dataclass(frozen=True)
class RadialGrid:
    """Graded grid r_i = (i/M)**gamma, i = 1..M, on (0, 1].

    The origin r = 0 is not a node; radial regularity (vanishing odd
    derivatives) is imposed through the operator closures instead.
    """

    N: int
    M: int
    gamma: float
    r: np.ndarray

    def __post_init__(self):
        r = self.r
        if r[-1] != 1.0:
            raise InvalidArgument("last node must be exactly 1")
        if np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise InvalidArgument("nodes must be strictly increasing in (0, 1]")

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights for integral over [0, 1], one per node.

        The first cell [0, r_1] is closed assuming the integrand vanishes at
        the origin (true for f * r^(N-1) with bounded f and N >= 2).  At N = 1
        it does not vanish, so the cell is closed with the even extension:
        half the trapezoid over [-r_1, r_1], which gives the first node
        another r_1 / 2.  Singular integrands go through
        :func:`integrate_ball` which refits that cell.
        """
        r = self.r
        w = np.zeros(self.M)
        w[1:] += 0.5 * np.diff(r)
        w[:-1] += 0.5 * np.diff(r)
        w[0] += r[0] if self.N == 1 else 0.5 * r[0]
        return w

    def refine(self, factor: int = 2) -> "RadialGrid":
        return build_grid(self.N, self.M * factor, self.gamma)


@dataclass(frozen=True)
class BoundaryData:
    """Clamped boundary data u(1) = alpha, u'(1) = beta."""

    alpha: float = 0.0
    beta: float = 0.0

    def is_admissible(self) -> bool:
        """beta <= 0 and alpha - beta/2 < 1, so the harmonic lift stays below 1."""
        return self.beta <= 0 and self.alpha - self.beta / 2 < 1


@dataclass(frozen=True)
class RadialField:
    """A radial function sampled on a grid, with its boundary data."""

    grid: RadialGrid
    values: np.ndarray
    boundary: BoundaryData = BoundaryData()

    def __post_init__(self):
        if len(self.values) != self.grid.M:
            raise InvalidArgument("values must have one entry per node")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgument("field values must be finite")

    @property
    def sup_norm(self) -> float:
        return float(np.max(self.values))

    def to_csv(self, path: str | Path) -> None:
        """Write `r,u` rows plus a JSON sidecar with {N, M, gamma, alpha, beta}."""
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "u"])
            for r, u in zip(self.grid.r, self.values):
                writer.writerow([repr(float(r)), repr(float(u))])
        sidecar = {
            "N": self.grid.N,
            "M": self.grid.M,
            "gamma": self.grid.gamma,
            "alpha": self.boundary.alpha,
            "beta": self.boundary.beta,
        }
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=1))

    @classmethod
    def from_csv(cls, path: str | Path) -> "RadialField":
        path = Path(path)
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = np.array([float(u) for _, u in rows])
        grid = build_grid(meta["N"], meta["M"], meta["gamma"])
        return cls(grid, values, BoundaryData(meta["alpha"], meta["beta"]))


def build_grid(N: int, M: int, gamma: float = 2.0) -> RadialGrid:
    """Graded grid with nodes (i/M)**gamma; gamma > 1 clusters nodes at the origin."""
    if N < 1 or M < 4 or not (math.isfinite(gamma) and gamma >= 1):
        raise InvalidArgument(
            f"need N >= 1, M >= 4, finite gamma >= 1, got {N=} {M=} {gamma=}")
    i = np.arange(1, M + 1, dtype=float)
    r = (i / M) ** gamma
    r[-1] = 1.0
    return RadialGrid(N=N, M=M, gamma=float(gamma), r=r)


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2) / math.gamma(N / 2)


def phi_lift(bc: BoundaryData, r):
    """Biharmonic lift (alpha - beta/2) + (beta/2) r^2 matching the boundary data."""
    return (bc.alpha - bc.beta / 2) + (bc.beta / 2) * np.asarray(r, dtype=float) ** 2


def integrate_ball(f: RadialField) -> float:
    """integral_B f = omega_{N-1} * integral_0^1 f(r) r^(N-1) dr on the graded grid.

    The cell [0, r_1] uses the origin limit of g = f r^(N-1) when g is
    regular there, and a power-law fit g ~ c r^s on the first two nodes when
    the samples indicate a singular-but-integrable integrand.
    """
    grid = f.grid
    r = grid.r
    g = f.values * r ** (grid.N - 1)
    # trapezoid over the resolved cells [r_1, 1]
    total = float(np.sum(0.5 * np.diff(r) * (g[:-1] + g[1:])))
    # close [0, r_1]
    g1, g2 = g[0], g[1]
    if g1 * g2 > 0:
        s = 0.0 if g1 == g2 else math.log(abs(g2 / g1)) / math.log(r[1] / r[0])
        if s <= -1:
            return math.inf if g1 > 0 else -math.inf
        total += g1 * r[0] / (s + 1)
    else:
        # sign change or zero right at the origin: plain trapezoid toward 0
        total += 0.5 * r[0] * g1
    return sphere_area(grid.N) * total
