import numpy as np
import pytest

from oracles import plane_width_after_drop
from pnnreg import (
    WidthOptions,
    pca_projection,
    round_projection,
    width_bruteforce,
    width_profile,
    width_relaxation_solve,
)


def test_relaxation_k0_forces_identity():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    res = width_relaxation_solve(X, 0, WidthOptions())
    assert res.t_star == 4.0
    assert np.array_equal(res.z_star, np.eye(2))
    assert res.converged


def test_relaxation_identity_2x2():
    """The only feasible point at trace 1 with symmetric columns is Z = I/2."""
    res = width_relaxation_solve(np.eye(2), 1, WidthOptions(seed=0))
    assert 0.4990 <= res.t_star <= 0.5010
    assert res.converged
    assert res.gap <= 1e-12


def test_relaxation_matches_bruteforce_three_columns():
    s = 1.0 / np.sqrt(2.0)
    X = np.array([[1.0, 0.0, s], [0.0, 1.0, s]])
    res = width_relaxation_solve(X, 1, WidthOptions(seed=0))
    d = width_bruteforce(X, 1)
    assert abs(res.t_star - d**2) <= 0.05 * d**2
    # the dual side is a certified lower bound regardless of convergence
    assert np.sqrt(res.t_star) <= d * (1.0 + 1e-6)


def test_relaxation_rejects_bad_k():
    with pytest.raises(ValueError):
        width_relaxation_solve(np.eye(2), 3, WidthOptions())
    with pytest.raises(ValueError):
        width_relaxation_solve(np.eye(2), -1, WidthOptions())


def test_relaxation_scale_equivariant():
    # every step is scale-free, so a 4x design scales t_star by exactly 16
    rng = np.random.default_rng(21)
    X = rng.normal(size=(3, 5))
    opts = WidthOptions(seed=5, max_iter=300)
    a = width_relaxation_solve(X, 1, opts)
    b = width_relaxation_solve(4.0 * X, 1, opts)
    assert abs(b.t_star - 16.0 * a.t_star) <= 1e-9 * max(b.t_star, 1.0)


def test_bruteforce_identity_values():
    assert abs(width_bruteforce(np.eye(2), 1) - 0.70711) < 1e-3
    assert width_bruteforce(np.eye(2), 2) == 0.0
    assert width_bruteforce(np.eye(2), 0) == 1.0


def test_bruteforce_plane_matches_angle_scan():
    # two independent angle parameterizations; agreement is limited by the
    # coarser grid (360 vs 2000 points over a half turn)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(2, 4))
    assert abs(width_bruteforce(X, 1) - plane_width_after_drop(X)) < 5e-3


def test_bruteforce_rejects_large_n():
    with pytest.raises(ValueError):
        width_bruteforce(np.eye(4), 1)


def test_rounding_identity_halves():
    # Z* = I/2 at k=1: the best line through a symmetric pair of axes
    P, z = round_projection(np.eye(2) / 2.0, np.eye(2), 1, repeats=64, rng_state=0)
    assert 0.7071 <= z <= 0.75
    assert P.dim == 1


def test_rounding_k_edges():
    P0, z0 = round_projection(np.eye(3), np.eye(3), 0, repeats=4, rng_state=0)
    assert P0.dim == 3 and z0 == 1.0
    Pn, zn = round_projection(np.zeros((3, 3)), np.eye(3), 3, repeats=4, rng_state=0)
    assert Pn.dim == 0 and zn == 0.0


def test_pca_projection_shapes():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(4, 9))
    P, z = pca_projection(X, 2)
    assert P.dim == 2
    assert z > 0
    Pn, zn = pca_projection(X, 4)
    assert Pn.dim == 0 and zn == 0.0


def test_profile_identity_2x2():
    prof = width_profile(np.eye(2), WidthOptions(seed=0))
    assert prof.achieved[0] == 1.0
    assert 0.7071 <= prof.achieved[1] <= 0.75
    assert prof.achieved[2] == 0.0
    assert np.allclose(prof.relax_lower, [1.0, np.sqrt(0.5), 0.0], atol=1e-9)
    assert np.array_equal(prof.projection_for(0).basis, np.eye(2))
    assert prof.projection_for(2).dim == 0


def test_profile_zero_design():
    prof = width_profile(np.zeros((2, 3)), WidthOptions(seed=0))
    assert np.array_equal(prof.achieved, np.zeros(3))
    assert np.array_equal(prof.relax_lower, np.zeros(3))


def test_profile_sandwich_and_monotone():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(4, 9))
    prof = width_profile(X, WidthOptions(seed=2, max_iter=400))
    assert np.all(prof.relax_lower <= prof.achieved + 1e-6)
    assert np.all(np.diff(prof.achieved) <= 1e-12)
    assert prof.achieved[0] == float(np.max(np.linalg.norm(X, axis=0)))
    assert prof.achieved[-1] == 0.0
    for j, k in enumerate(prof.ks):
        assert prof.projections[j].dim == 4 - int(k)


def test_profile_deterministic_given_seed():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(3, 6))
    a = width_profile(X, WidthOptions(seed=9, max_iter=300))
    b = width_profile(X, WidthOptions(seed=9, max_iter=300))
    assert np.array_equal(a.achieved, b.achieved)
    assert np.array_equal(a.relax_lower, b.relax_lower)


def test_profile_k_subset_and_validation():
    X = np.random.default_rng(15).normal(size=(3, 4))
    prof = width_profile(X, WidthOptions(seed=1, ks=(0, 2, 3), max_iter=300))
    assert list(prof.ks) == [0, 2, 3]
    with pytest.raises(KeyError):
        prof.index_of(1)
    with pytest.raises(ValueError):
        width_profile(X, WidthOptions(ks=(0, 0, 1)))
    with pytest.raises(ValueError):
        width_profile(X, WidthOptions(ks=(-1, 2)))
    with pytest.raises(ValueError):
        width_profile(X, WidthOptions(ks=(0, 4)))


def test_profile_scaled():
    X = np.random.default_rng(16).normal(size=(3, 4))
    prof = width_profile(X, WidthOptions(seed=1, max_iter=300))
    big = prof.scaled(2.5)
    assert np.allclose(big.achieved, 2.5 * prof.achieved)
    assert np.allclose(big.relax_lower, 2.5 * prof.relax_lower)
    assert big.projections is prof.projections
    with pytest.raises(ValueError):
        prof.scaled(0.0)


def test_rounding_quality_over_random_designs():
    # 3x6 designs, k=1: rounded widths land within 1.5x of brute force
    rng = np.random.default_rng(9)
    good = 0
    for i in range(50):
        X = rng.normal(size=(3, 6))
        res = width_relaxation_solve(X, 1, WidthOptions(seed=200 + i, max_iter=400))
        _, z = round_projection(res.z_star, X, 1, repeats=64, rng_state=i)
        good += z <= 1.5 * width_bruteforce(X, 1)
    assert good >= 48


def test_profile_never_loses_to_pca():
    # the profile keeps the better of rounding and the pca heuristic
    rng = np.random.default_rng(13)
    for i in range(25):
        X = rng.normal(size=(3, 8))
        prof = width_profile(X, WidthOptions(seed=300 + i, max_iter=400))
        for j, k in enumerate(prof.ks):
            if int(k) in (0, 3):
                continue
            _, zp = pca_projection(X, int(k))
            assert zp >= prof.achieved[j] - 1e-9


def _small_designs():
    # seeded Gaussian designs plus degenerate ones: zero, duplicated and
    # sign-paired columns, a single column, rank deficiency
    rng = np.random.default_rng(31)
    shapes = [(2, 3), (3, 5), (3, 6), (4, 7), (4, 9), (5, 8)]
    designs = [rng.normal(size=shape) for shape in shapes]
    Z = rng.normal(size=(3, 4))
    Z[:, 1] = 0.0
    D = rng.normal(size=(3, 3))
    designs += [
        Z,
        np.column_stack([D, D[:, 0]]),
        np.column_stack([D, -D]),
        rng.normal(size=(3, 1)),
        rng.normal(size=(4, 2)) @ rng.normal(size=(2, 6)),
        np.array([[0.0, -1.1857198050052338], [0.0, 0.513052133880305], [0.0, 0.0]]),
    ]
    return designs


def test_relaxation_invariants_on_small_designs():
    opts = WidthOptions(max_iter=300)
    for X in _small_designs():
        n = X.shape[0]
        sqn = np.einsum("ij,ij->j", X, X)
        for k in range(1, n):
            res = width_relaxation_solve(X, k, opts)
            Z = res.z_star
            assert np.max(np.abs(Z - Z.T)) <= 1e-12
            w = np.linalg.eigvalsh(Z)
            assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10
            assert abs(np.trace(Z) - (n - k)) <= 1e-9
            f = float(np.max(np.einsum("ij,ij->j", X, Z @ X)))
            floor = 1e-12 * float(np.max(sqn))
            assert abs(res.t_star + res.gap - f) <= 1e-9 * f + floor
            assert res.converged == (res.gap <= opts.tol * f + floor)
            if n <= 3:
                assert np.sqrt(res.t_star) <= width_bruteforce(X, k) * (1.0 + 1e-6) + 1e-9


def test_profile_zero_column_designs():
    # zero columns must neither poison the relaxation nor break the sandwich
    rng = np.random.default_rng(77)
    designs = [np.array([[0.0, -1.1857198050052338], [0.0, 0.513052133880305], [0.0, 0.0]])]
    for _ in range(20):
        X = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(2, 6))))
        X[:, int(rng.integers(X.shape[1]))] = 0.0
        designs.append(X)
    for i, X in enumerate(designs):
        prof = width_profile(X, WidthOptions(seed=i, max_iter=300, repeats=8))
        assert np.all(np.isfinite(prof.relax_lower)) and np.all(np.isfinite(prof.achieved))
        assert np.all(prof.relax_lower <= prof.achieved + 1e-9)


def test_profile_lower_bounds_not_below_frozen():
    # relax_lower of the former primal-subgradient solver on this design,
    # frozen; the certified lower side may only rise
    frozen = [
        3.381422416700435,
        2.68911449172286,
        2.2673459857183267,
        1.8789936163789678,
        1.552707715780923,
        1.2039223814065318,
        0.8495524583533683,
        0.5481509330888688,
        0.0,
    ]
    X = np.random.default_rng(1).standard_normal((8, 24))
    prof = width_profile(X, WidthOptions(seed=1))
    assert np.all(prof.relax_lower >= np.asarray(frozen) * (1.0 - 1e-4))
    assert np.all(prof.relax_lower <= prof.achieved + 1e-9)
