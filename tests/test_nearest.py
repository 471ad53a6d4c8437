import numpy as np
import pytest

from oracles import ellipse_boundary_nearest, hull_grid_nearest, tau_scan_l1_projection
from pnnreg import (
    AxisEllipsoid,
    SolveOptions,
    ellipsoid_nearest,
    l1_ls,
    project_l1_ball,
    vertex_vi_residual,
)


def test_project_l1_ball_axis_point():
    assert np.allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])


def test_project_l1_ball_interior_point():
    v = np.array([0.2, -0.3, 0.1])
    out = project_l1_ball(v, 1.0)
    assert np.array_equal(out, v)
    out[0] = 5.0
    assert v[0] == 0.2  # the projection must hand back a copy


def test_project_l1_ball_edge_cases():
    assert np.array_equal(project_l1_ball(np.array([3.0, -4.0]), 0.0), np.zeros(2))
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), -0.5)


def test_project_l1_ball_matches_threshold_scan():
    rng = np.random.default_rng(3)
    for _ in range(30):
        v = rng.normal(size=3) * 3.0
        radius = float(rng.uniform(0.2, 2.5))
        got = project_l1_ball(v, radius)
        ref = tau_scan_l1_projection(v, radius)
        assert np.max(np.abs(got - ref)) < 1e-6


def test_project_l1_ball_feasible_and_optimal():
    """Result has mass at most the radius and is no farther than the scan's."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.normal(size=6) * 2.0
        radius = float(rng.uniform(0.1, 3.0))
        got = project_l1_ball(v, radius)
        assert np.sum(np.abs(got)) <= radius * (1 + 1e-12)
        ref = tau_scan_l1_projection(v, radius)
        assert np.sum((got - v) ** 2) <= np.sum((ref - v) ** 2) + 1e-9


def test_l1_ls_three_column_hull():
    A = np.array([[1.0, 0.0, 0.8], [0.0, 1.0, 0.6]])
    b = np.array([2.0, 2.0])
    sol = l1_ls(A, b, 1.0)
    assert sol.converged
    # the optimum is the third vertex itself; the solver lands on it exactly
    assert np.allclose(sol.y_hat, [0.8, 0.6], atol=1e-9)
    # grid oracle agrees up to its own quantization (spacing 1/400)
    ref = hull_grid_nearest(A, b, 1.0)
    assert np.max(np.abs(sol.y_hat - ref)) < 6e-3


def test_l1_ls_zero_radius_and_empty_design():
    sol = l1_ls(np.eye(2), np.array([1.0, 2.0]), 0.0)
    assert np.array_equal(sol.y_hat, np.zeros(2))
    assert sol.converged
    sol = l1_ls(np.zeros((3, 0)), np.ones(3), 2.0)
    assert np.array_equal(sol.y_hat, np.zeros(3))
    assert sol.converged


def test_l1_ls_interior_observation_is_fixed_point():
    b = np.array([0.2, 0.1])
    sol = l1_ls(np.eye(2), b, 1.0)
    # vi residual bounds the squared distance to the true projection
    assert np.max(np.abs(sol.y_hat - b)) < 1e-3


def test_l1_ls_vertex_certificate_random():
    rng = np.random.default_rng(40)
    for _ in range(25):
        A = rng.normal(size=(6, 20))
        b = rng.normal(size=6) * 2.0
        radius = float(rng.uniform(0.3, 3.0))
        sol = l1_ls(A, b, radius)
        assert sol.converged
        res = vertex_vi_residual(A, b, radius, sol.y_hat)
        assert res <= 1e-6 * (1.0 + float(b @ b))


def test_l1_ls_nonexpansive():
    # projections onto a convex set cannot spread points; allow solver slack
    rng = np.random.default_rng(41)
    A = rng.normal(size=(5, 12))
    b1 = rng.normal(size=5)
    b2 = b1 + 0.3 * rng.normal(size=5)
    s1 = l1_ls(A, b1, 1.0)
    s2 = l1_ls(A, b2, 1.0)
    tol1 = 1e-6 * (1.0 + float(b1 @ b1))
    tol2 = 1e-6 * (1.0 + float(b2 @ b2))
    lhs = float(np.linalg.norm(s1.y_hat - s2.y_hat))
    rhs = float(np.linalg.norm(b1 - b2)) + np.sqrt(tol1) + np.sqrt(tol2)
    assert lhs <= rhs


def test_l1_ls_idempotent_within_tolerance():
    rng = np.random.default_rng(42)
    A = rng.normal(size=(4, 10))
    b = 3.0 * rng.normal(size=4)
    first = l1_ls(A, b, 0.7).y_hat
    second = l1_ls(A, first, 0.7).y_hat
    # first is already in the hull, so the rerun moves it at most sqrt(tol)
    assert np.linalg.norm(second - first) <= 2e-3 * (1.0 + float(first @ first))


def test_l1_ls_iteration_cap_reported():
    rng = np.random.default_rng(43)
    A = rng.normal(size=(6, 30))
    b = 5.0 * rng.normal(size=6)
    sol = l1_ls(A, b, 2.0, SolveOptions(tol=1e-14, max_iter=3))
    assert not sol.converged
    assert sol.iterations == 3


def test_l1_ls_sign_paired_columns():
    # columns x and -x sum to zero, so the all-ones vector is in A's null
    # space; the spectral bound must not start there and report L = 0
    A = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    sol = l1_ls(A, b, 1.0)
    tol = 1e-6 * (1.0 + float(b @ b))
    assert sol.converged
    assert vertex_vi_residual(A, b, 1.0, sol.y_hat) <= tol
    assert abs(sol.y_hat[0] - 1.0) <= np.sqrt(2.0 * tol)


def test_solve_options_default_tolerance_scales_with_b():
    b = np.array([100.0, 100.0])
    sol = l1_ls(np.eye(2), b, 1.0)
    assert sol.converged
    res = vertex_vi_residual(np.eye(2), b, 1.0, sol.y_hat)
    assert res <= 1e-6 * (1.0 + float(b @ b))


def test_vertex_vi_residual_empty_design():
    assert vertex_vi_residual(np.zeros((3, 0)), np.ones(3), 1.0, np.zeros(3)) == 0.0


def test_axis_ellipsoid_validation_and_membership():
    with pytest.raises(ValueError):
        AxisEllipsoid(np.array([1.0, -1.0]))
    E = AxisEllipsoid(np.array([1.0, 4.0]))
    assert E.contains(np.array([0.0, 0.5]))
    assert not E.contains(np.array([0.0, 0.51]))
    assert E.level(np.array([1.0, 0.5])) == 2.0


def test_ellipsoid_nearest_sphere_is_radial():
    E = AxisEllipsoid(np.ones(4))
    v = np.array([2.0, 0.0, 0.0, 0.0])
    assert np.allclose(ellipsoid_nearest(E, v), [1.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_ellipsoid_nearest_interior_point():
    E = AxisEllipsoid(np.array([1.0, 2.0]))
    v = np.array([0.3, 0.1])
    assert np.array_equal(ellipsoid_nearest(E, v), v)


def test_ellipsoid_nearest_free_axis():
    # zero weight leaves that axis unconstrained
    E = AxisEllipsoid(np.array([1.0, 0.0]))
    out = ellipsoid_nearest(E, np.array([2.0, 5.0]))
    assert np.allclose(out, [1.0, 5.0], atol=1e-9)


def test_ellipsoid_nearest_matches_boundary_scan():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 12:
        w = rng.uniform(0.3, 4.0, size=2)
        v = rng.normal(size=2) * 3.0
        E = AxisEllipsoid(w)
        if E.contains(v):
            continue
        got = ellipsoid_nearest(E, v)
        ref = ellipse_boundary_nearest(w, v)
        assert np.max(np.abs(got - ref)) < 1e-6
        checked += 1


def test_ellipsoid_nearest_lands_on_boundary():
    E = AxisEllipsoid(np.array([0.5, 3.0, 1.0]))
    out = ellipsoid_nearest(E, np.array([4.0, -2.0, 1.0]))
    assert abs(E.level(out) - 1.0) < 1e-8
