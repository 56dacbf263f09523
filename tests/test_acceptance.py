"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The branch-sweep matrix (N = 1..16, M = 1024/2048/4096) is computed once per
session and shared by the pull-in, lower-bound, classification, and sandwich
criteria.
"""

import contextlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from memsplate.branch import (ContinuationConfig, monotone_solve, newton_solve,
                              pullin_bounds, sandwich_check, sweep_branch)
from memsplate.certificates import table1_rows, threshold_relation
from memsplate.cli import main as cli_main
from memsplate.exprs import Ratio
from memsplate.grid import BoundaryData, build_grid
from memsplate.hardy import (BesselPairSpec, _phi_expr, _prove_expr_nonneg,
                             _psi_expr, discrete_form_check,
                             hr2_leading_identity, hr_weight, pq_functions,
                             supersolution_check)
from memsplate.operators import bilaplacian_clamped, lambda_bar
from memsplate.stability import (beam_eigenvalue_1d, disk_eigenvalue_2d, nu1)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


@pytest.fixture(scope="session")
def matrix():
    """BranchResult for every (N, M) in the classification matrix."""
    out = {}
    for N in range(1, 17):
        for M in (1024, 2048, 4096):
            out[(N, M)] = sweep_branch(ContinuationConfig(N=N, M=M))
    return out


def _fidelity(N, M):
    g = build_grid(N, M, 2.0)
    K, o = bilaplacian_clamped(g, BoundaryData(0.0, -4.0 / 3.0))
    r = g.r[:-1]
    out = K @ (1.0 - r ** (4.0 / 3.0)) + o
    exact = float(lambda_bar(N)) * r ** (-8.0 / 3.0)
    mask = (r >= 0.1) & (r <= 0.9)
    return float(np.max(np.abs(out[mask] - exact[mask]) / np.abs(exact[mask])))


def test_criterion_1_operator_fidelity():
    with criterion("criterion 1 (operator fidelity)"):
        for N in (5, 9, 12, 31):
            t0 = time.perf_counter()
            assert _fidelity(N, 2048) < 1e-3
            # convergence order measured below M = 2048, where the float64
            # rounding of the 1/h^4 rows on the finest graded cells shows
            e1, e2 = _fidelity(N, 512), _fidelity(N, 1024)
            assert np.log2(e1 / e2) >= 1.8
            assert time.perf_counter() - t0 < 1.0


def test_criterion_2_pullin_bounds(matrix):
    with criterion("criterion 2 (pull-in bounds, N=1..16)"):
        assert beam_eigenvalue_1d() == pytest.approx(31.285, abs=0.01)
        assert disk_eigenvalue_2d() == pytest.approx(104.36, abs=0.05)
        assert nu1(1) == pytest.approx(beam_eigenvalue_1d(), abs=0.01)
        assert nu1(2) == pytest.approx(disk_eigenvalue_2d(), abs=0.05)
        for N in range(1, 17):
            lower, upper = pullin_bounds(N, nu1(N))
            lo, hi = matrix[(N, 2048)].lam_star_bracket
            assert lower <= lo < hi <= upper, f"N={N}"


def test_criterion_3_strict_lower_bound(matrix):
    with criterion("criterion 3 (lambda* > lambda_bar, N=9..16)"):
        for N in range(9, 17):
            lo, _ = matrix[(N, 2048)].lam_star_bracket
            assert lo > float(lambda_bar(N)), f"N={N}"


def test_criterion_4_critical_dimension(matrix):
    with criterion("criterion 4 (Regular N<=8 / Singular N>=9, stable in M)"):
        for N in range(1, 17):
            want = "Regular" if N <= 8 else "Singular"
            for M in (1024, 2048, 4096):
                assert matrix[(N, M)].classification == want, f"N={N}, M={M}"


def test_criterion_5_profile_sandwich(matrix):
    with criterion("criterion 5 (touchdown sandwich, N=9,12)"):
        for N in (9, 12):
            res = matrix[(N, 2048)]
            rep = sandwich_check(res.extremal_profile, res.lam_star_estimate)
            assert rep.passed, (N, rep)


def test_matrix_traces_solve_every_point_and_close_every_fold_bracket(matrix):
    for (N, M), res in matrix.items():
        assert res.failed_solves == 0, (N, M)
        if res.fold:
            lo, hi = res.lam_star_bracket
            assert lo < hi <= lo + 1e-10 * lo, (N, M)


def test_criterion_6_table1():
    with criterion("criterion 6 (certificate table, interval rigor)"):
        t0 = time.perf_counter()
        rows = table1_rows(dims=list(range(9, 17)) + [17, 20, 30, 31, 40])
        for row in rows:
            assert row["verdict"] == "Pass", row
        byN = {r["N"]: r for r in rows}
        # the row for N=9 certifies with the computed sharpest values and
        # documents the discrepancy with the published ones
        assert byN[9]["note"]
        assert byN[9]["beta_computed"] > byN[9]["lam_prime_computed"]
        assert time.perf_counter() - t0 < 300.0


def test_criterion_7_threshold_relation():
    with criterion("criterion 7 (2*lambda_bar <= H_N iff N >= 9)"):
        t0 = time.perf_counter()
        for N in range(5, 201):
            _, _, holds = threshold_relation(N)
            assert holds == (N >= 9)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_8_hardy_rellich_suite():
    with criterion("criterion 8 (weighted-inequality suite)"):
        t0 = time.perf_counter()
        # (a) a known pair proved by its exact solution: y > 0, and L[y]
        # is identically zero
        N, a = 10, Fraction(99, 100)
        W = Fraction((N - 2) ** 2, 4) / (Ratio.term(1, 2) - Ratio.term(a, Fraction(N, 2) + 1))
        y = Ratio.term(1, Fraction(2 - N, 2)) - a
        rep = supersolution_check(y, BesselPairSpec(V=Ratio(1), W=W, N=N))
        assert rep.confirmed and rep.inequality.reason == "identically zero"
        # (b) interval verification of the pointwise claims behind the
        # dimension-nine weight
        P, Q = pq_functions()
        assert _prove_expr_nonneg(P - Ratio.term(2, -2)).proved
        assert _prove_expr_nonneg(Ratio.term(1, 1) * P.diff() + 2 * P).proved
        assert _prove_expr_nonneg(_phi_expr()).proved
        psi = _psi_expr()
        assert _prove_expr_nonneg(psi).proved
        assert psi.num.value_at_one() == 0
        # (c) exact leading-coefficient identity
        for n in range(5, 51):
            assert hr2_leading_identity(n)
        # (d) discrete form checks, the exact minimum over the clamped
        # polynomial profiles, each with its minimizer's residual
        for variant, n in (("HR1", 17), ("HR2", 12), ("HR3", 9)):
            frep = discrete_form_check(hr_weight(variant, n), n)
            assert frep.passed and frep.residual < 1e-8, (variant, n, frep)
        assert time.perf_counter() - t0 < 120.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_9_property_suites(seed, tmp_path):
    with criterion(f"criterion 9 (property suites, seed {seed})"):
        rng = np.random.default_rng(seed)
        g = build_grid(3, 512, 2.0)
        bc = BoundaryData(0.0, 0.0)
        lams = np.sort(rng.uniform(1.0, 25.0, size=3))
        prev = None
        for lam in lams:
            prof, _ = monotone_solve(float(lam), bc, g)
            v = prof.values
            # radial decrease
            assert np.max(np.diff(v)) < 1e-8
            # branch monotonicity in lambda
            if prev is not None:
                assert np.min(v - prev) > -1e-8
            prev = v
            # solver cross-agreement
            pn, _ = newton_solve(float(lam), prof, bc, g)
            assert np.max(np.abs(pn.values - v)) < 1e-8
        # manifest determinism
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        cli_main(["threshold", "--from", "5", "--to", "10", "--out", str(a)])
        cli_main(["threshold", "--from", "5", "--to", "10", "--out", str(b)])
        for name in ("threshold.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
