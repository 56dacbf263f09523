"""Numerical laboratory for the radial clamped biharmonic MEMS equation on the unit ball.

Solves Delta^2 u = lambda / (1 - u)^2 with clamped boundary data, traces the
minimal solution branch up to the pull-in voltage, computes stability
eigenvalues, and certifies the analytic singularity machinery (sub-solution
candidates and Hardy-Rellich weights) with an outward-rounded interval
arithmetic prover: every Pass is a proof, and dense sampling only reports
margins.
"""

__version__ = "0.1.0"

from .grid import BoundaryData, RadialField, RadialGrid, build_grid, integrate_ball, phi_lift

__all__ = [
    "BoundaryData",
    "RadialField",
    "RadialGrid",
    "build_grid",
    "integrate_ball",
    "phi_lift",
    "__version__",
]
