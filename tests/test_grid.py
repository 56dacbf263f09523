import csv
import math

import numpy as np
import pytest

from memsplate.grid import (BoundaryData, InvalidArgument, RadialField,
                            build_grid, integrate_ball, phi_lift, sphere_area)


def test_build_grid_nodes():
    g = build_grid(3, 100, 2.0)
    assert len(g.r) == 100
    assert g.r[-1] == 1.0
    assert g.r[0] == pytest.approx((1 / 100) ** 2)
    assert np.all(np.diff(g.r) > 0)


def test_build_grid_uniform():
    g = build_grid(2, 10, 1.0)
    assert np.allclose(g.r, np.arange(1, 11) / 10.0)


def test_build_grid_validation():
    with pytest.raises(InvalidArgument):
        build_grid(0, 100)
    with pytest.raises(InvalidArgument):
        build_grid(2, 3)
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            build_grid(2, 100, gamma)


def test_refine_doubles():
    g = build_grid(2, 64, 2.0)
    g2 = g.refine()
    assert g2.M == 128
    assert g2.N == g.N and g2.gamma == g.gamma


def test_quad_weights_sum_to_one():
    # the missing sliver is [0, r_1], which shrinks like M^-gamma
    g = build_grid(2, 256, 2.0)
    assert math.fsum(g.quad_weights()) == pytest.approx(1.0, abs=1e-5)
    g = build_grid(2, 2048, 2.0)
    assert math.fsum(g.quad_weights()) == pytest.approx(1.0, abs=2e-7)
    # at N = 1 the even extension closes [0, r_1] too: nothing is missing
    g = build_grid(1, 256, 2.0)
    assert math.fsum(g.quad_weights()) == pytest.approx(1.0, abs=1e-14)


def test_boundary_admissibility():
    assert BoundaryData(0.0, 0.0).is_admissible()
    assert BoundaryData(0.2, -0.5).is_admissible()
    assert not BoundaryData(0.0, 0.1).is_admissible()   # outward slope
    assert not BoundaryData(1.5, 0.0).is_admissible()   # lift above ceiling


def test_phi_lift_matches_boundary_data():
    bc = BoundaryData(0.2, -0.5)
    # value alpha at r=1 and slope beta at r=1
    assert phi_lift(bc, 1.0) == pytest.approx(0.2)
    h = 1e-7
    slope = (phi_lift(bc, 1.0) - phi_lift(bc, 1.0 - h)) / h
    assert slope == pytest.approx(-0.5, abs=1e-6)
    # lift is 0.45 - 0.25 r^2 for this data
    assert phi_lift(bc, 0.0) == pytest.approx(0.45)


def test_sphere_area_known_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)


def test_field_validation():
    g = build_grid(2, 16, 1.0)
    with pytest.raises(InvalidArgument):
        RadialField(g, np.zeros(15))
    with pytest.raises(InvalidArgument):
        RadialField(g, np.full(16, np.nan))


def test_integrate_ball_constant():
    # volume of the unit ball: area(S^{N-1}) / N
    for N in (2, 3, 5):
        g = build_grid(N, 2048, 2.0)
        f = RadialField(g, np.ones(g.M))
        assert integrate_ball(f) == pytest.approx(sphere_area(N) / N, rel=1e-5)


def test_integrate_ball_polynomial():
    # int_B (1 - r^2) = area * (1/N - 1/(N+2))
    N = 3
    g = build_grid(N, 2048, 2.0)
    f = RadialField(g, 1.0 - g.r ** 2)
    exact = sphere_area(N) * (1.0 / N - 1.0 / (N + 2))
    assert integrate_ball(f) == pytest.approx(exact, rel=1e-5)


def test_integrate_ball_singular_integrand():
    # f = r^(-8/3), N = 9: integrand r^(16/3), integral area * 3/19
    g = build_grid(9, 2048, 2.0)
    f = RadialField(g, g.r ** (-8.0 / 3.0))
    exact = sphere_area(9) * 3.0 / 19.0
    assert integrate_ball(f) == pytest.approx(exact, rel=1e-5)


def test_csv_bytes_match_csv_writer(tmp_path):
    g = build_grid(4, 32, 2.0)
    values = np.sin(g.r) - 0.5
    values[3], values[4] = 3.0e-7, -1.25e-9
    path = tmp_path / "field.csv"
    RadialField(g, values).to_csv(path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "u"])
        for r, u in zip(g.r, values):
            writer.writerow([repr(float(r)), repr(float(u))])
    assert b"3e-07" in path.read_bytes() and b",-" in path.read_bytes()
    assert path.read_bytes() == ref.read_bytes()


def test_csv_roundtrip(tmp_path):
    g = build_grid(4, 32, 2.0)
    f = RadialField(g, np.sin(g.r), BoundaryData(0.1, -0.2))
    path = tmp_path / "field.csv"
    f.to_csv(path)
    assert path.with_suffix(".csv.json").exists()
    back = RadialField.from_csv(path)
    assert back.grid.N == 4 and back.grid.M == 32
    assert np.array_equal(back.values, f.values)
    assert back.boundary == f.boundary
