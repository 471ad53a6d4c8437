import math

import numpy as np
import pytest

from oracles import hull_grid_nearest
from pnnreg import (
    PNNSelection,
    ProblemInstance,
    ProjectionOperator,
    WidthOptions,
    adaptive_estimate,
    complement,
    make_rng,
    nn_estimate,
    orth_proj_estimate,
    pnn_estimate,
    pnn_select,
    pnn_solve,
    sample_gaussian,
    vertex_vi_residual,
    width_profile,
)


def test_orth_proj_estimate_identity_and_zero():
    y = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(orth_proj_estimate(ProjectionOperator.identity(3), y), y)
    assert np.array_equal(orth_proj_estimate(ProjectionOperator.empty(3), y), np.zeros(3))


def test_orth_proj_estimate_last_axis():
    # keep-last-coordinate estimator: project onto the final axis
    basis = np.zeros((4, 1))
    basis[3, 0] = 1.0
    out = orth_proj_estimate(ProjectionOperator(basis), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out, [0.0, 0.0, 0.0, 4.0])


def test_nn_estimate_requires_q1():
    inst = ProblemInstance(np.eye(2), q=0.5, C=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        nn_estimate(inst, np.zeros(2))


def test_nn_estimate_interior_point_and_zero_radius():
    inst = ProblemInstance(np.eye(2), q=1.0, C=1.0, sigma=1.0)
    y = np.array([0.2, 0.1])
    assert np.max(np.abs(nn_estimate(inst, y) - y)) < 1e-3
    inst0 = ProblemInstance(np.eye(2), q=1.0, C=0.0, sigma=1.0)
    assert np.array_equal(nn_estimate(inst0, y), np.zeros(2))


def test_nn_estimate_sign_paired_design():
    # the hull of +-x and +-(-x) is the segment [-x, x]; 2x projects onto x
    x = np.array([1.0, 2.0, -0.5])
    inst = ProblemInstance(np.column_stack([x, -x]), q=1.0, C=1.0, sigma=1.0)
    y = 2.0 * x
    y_hat = nn_estimate(inst, y)
    tol = 1e-6 * (1.0 + float(y @ y))
    assert vertex_vi_residual(inst.scaled_design(), y, 1.0, y_hat) <= tol
    assert np.linalg.norm(y_hat - x) <= np.sqrt(2.0 * tol)


def test_nn_estimate_checks_length():
    inst = ProblemInstance(np.eye(2), q=1.0, C=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        nn_estimate(inst, np.zeros(3))


def test_pnn_identity_projection_equals_nn_exactly():
    """With the full-space projection the split estimator IS the plain one."""
    rng = np.random.default_rng(50)
    for _ in range(5):
        X = rng.normal(size=(8, 15))
        inst = ProblemInstance(X, q=1.0, C=float(rng.uniform(0.4, 2.0)), sigma=1.0)
        y = rng.normal(size=8) * 2.0
        proj = ProjectionOperator.identity(8)
        sel = PNNSelection(0, np.zeros(1), proj, complement(proj))
        assert np.array_equal(nn_estimate(inst, y), pnn_estimate(inst, y, sel))


def test_pnn_full_split_passes_observation_through():
    # k = n: no nearest-point part remains, the estimate is the observation
    X = np.random.default_rng(5).normal(size=(3, 6))
    inst = ProblemInstance(X, q=1.0, C=2.0, sigma=1.0)
    y = np.array([1.0, -2.0, 0.5])
    proj = ProjectionOperator.empty(3)
    sel = PNNSelection(3, np.zeros(1), proj, complement(proj))
    assert np.array_equal(pnn_estimate(inst, y, sel), y)


def test_pnn_solve_requires_q1():
    inst = ProblemInstance(np.eye(2), q=0.7, C=1.0, sigma=1.0)
    proj = ProjectionOperator.identity(2)
    sel = PNNSelection(0, np.zeros(1), proj, complement(proj))
    with pytest.raises(ValueError):
        pnn_solve(inst, np.zeros(2), sel)


def test_pnn_select_noise_dominated_picks_zero():
    # at sigma 100 the k sigma^2 term buries every split above k = 0
    prof = width_profile(np.eye(2), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(2), q=1.0, C=1.0, sigma=100.0)
    sel = pnn_select(inst, prof)
    assert sel.k_star == 0
    assert sel.projection.dim == 2 and sel.complement.dim == 0


def test_pnn_select_tiny_noise_picks_full_split():
    prof = width_profile(np.eye(2), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(2), q=1.0, C=1.0, sigma=0.01)
    sel = pnn_select(inst, prof)
    assert sel.k_star == 2


def test_pnn_select_criterion_formula():
    prof = width_profile(np.eye(2), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(2), q=1.0, C=1.0, sigma=0.7)
    sel = pnn_select(inst, prof)
    logp = math.log(3)  # p = 2 clamps up to 3
    want = prof.ks * 0.49 + prof.achieved * 0.7 * math.sqrt(logp)
    assert np.allclose(sel.r, want, rtol=1e-15, atol=0.0)
    assert sel.k_star == int(prof.ks[np.argmin(want)])


def test_pnn_solve_split_parts_are_orthogonal():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(6, 12))
    inst = ProblemInstance(X, q=1.0, C=1.0, sigma=0.7)
    prof = width_profile(inst.scaled_design(), WidthOptions(seed=500, max_iter=400))
    sel = pnn_select(inst, prof)
    y = rng.normal(size=6) * 2.0
    est, sol = pnn_solve(inst, y, sel)
    raw = sel.complement.apply(y)
    assert np.allclose(est, raw + sol.y_hat, atol=1e-12)
    # the nearest-point part lives inside the projected subspace
    assert np.max(np.abs(sel.complement.apply(sol.y_hat))) < 1e-10


def test_pnn_solve_identity_split_matches_grid_oracle():
    prof = width_profile(np.eye(2), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(2), q=1.0, C=1.0, sigma=1.0)
    proj = prof.projection_for(1)
    sel = PNNSelection(1, np.zeros(3), proj, complement(proj))
    y = np.array([2.0, 2.0])
    est, _ = pnn_solve(inst, y, sel)
    A = proj.apply(inst.scaled_design())
    ref = sel.complement.apply(y) + hull_grid_nearest(A, proj.apply(y), 1.0)
    assert np.max(np.abs(est - ref)) < 1e-3
    assert np.allclose(est, [0.47647834, 0.55010734], atol=1e-6)


def test_adaptive_rejects_zero_sigma():
    prof = width_profile(np.eye(4), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(4), q=1.0, C=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        adaptive_estimate(inst, np.zeros(4), prof)


def test_adaptive_null_truth_returns_zero():
    # pure noise at moderate n: the k = 0 test accepts and the radius-0
    # fit pins the output at the origin
    n = 16
    prof = width_profile(np.eye(n), WidthOptions(seed=0, repeats=8))
    inst = ProblemInstance(np.eye(n), q=1.0, C=1.0, sigma=1.0)
    y = sample_gaussian(n, 1.0, make_rng(606, 0, 0))
    est, trace = adaptive_estimate(inst, y, prof)
    assert trace.final_k == 0
    assert np.array_equal(est, np.zeros(n))
    rec = trace.records[0]
    assert rec.radius == 0.0
    assert rec.stat == pytest.approx(float(y @ y))


def test_adaptive_threshold_formula():
    n = 16
    prof = width_profile(np.eye(n), WidthOptions(seed=0, repeats=8))
    inst = ProblemInstance(np.eye(n), q=1.0, C=1.0, sigma=0.8)
    y = sample_gaussian(n, 0.8, make_rng(33, 0, 0))
    _, trace = adaptive_estimate(inst, y, prof)
    slack = 2.0 * math.sqrt(n * math.log(n)) * 0.64
    for rec in trace.records:
        assert rec.threshold == pytest.approx((n - rec.k) * 0.64 + slack)


def test_adaptive_falls_back_when_nothing_fits():
    # a tiny body cannot explain a huge observation at any tested k
    prof = width_profile(np.eye(8), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(8), q=1.0, C=0.01, sigma=1.0)
    y = 50.0 * np.ones(8)
    est, trace = adaptive_estimate(inst, y, prof)
    assert trace.final_k is None
    assert np.array_equal(est, y)
    assert len(trace.records) == 5
    assert not any(r.accepted for r in trace.records)


def test_adaptive_collapsed_width_accepts_with_infinite_radius():
    # rank-one design: removing its only direction kills every column, so
    # the k = 1 width is exactly zero and the radius bookkeeping goes inf
    cols = np.array([1.0, 2.0, -1.5, 0.5])
    X = np.zeros((4, 4))
    X[0] = cols
    prof = width_profile(X, WidthOptions(seed=0))
    assert prof.achieved_for(1) == 0.0
    inst = ProblemInstance(X, q=1.0, C=5.0, sigma=1.0)
    truth = X @ np.array([5.0, 0.0, 0.0, 0.0])
    y = truth + sample_gaussian(4, 1.0, make_rng(77, 0, 0))
    est, trace = adaptive_estimate(inst, y, prof)
    assert trace.final_k == 1
    rec = trace.records[1]
    assert rec.delta == 0.0 and math.isinf(rec.radius) and rec.accepted
    assert not trace.records[0].accepted
    # the radius-0 sub-fit returns zero, so only the raw e1 part survives
    assert np.array_equal(est, [y[0], 0.0, 0.0, 0.0])


def test_adaptive_trace_converged_flag():
    prof = width_profile(np.eye(4), WidthOptions(seed=0))
    inst = ProblemInstance(np.eye(4), q=1.0, C=1.0, sigma=1.0)
    _, trace = adaptive_estimate(inst, np.zeros(4), prof)
    assert trace.converged
