"""Subspace width profiles: how small can a design's column set become
after projecting out k directions.

For the column body of X (the convex hull of the signed columns), the
k-th width is the smallest worst-case column length achievable by an
orthogonal projection of rank n-k. Exact minimization is intractable, so
this module computes a certified sandwich per k:

  relax_lower[k]  <=  true width  <=  achieved[k]

The lower value comes from a semidefinite relaxation

  minimize t  s.t.  0 <= Z <= I (spectrally), trace(Z) = n-k,
                    x_i' Z x_i <= t for all columns i,

whose feasible set contains every genuine rank-(n-k) projection matrix.
Its dual maximizes, over simplex weights lam on the columns, the sum of
the n-k smallest eigenvalues of sum_i lam_i x_i x_i' (Overton and
Womersley 1993). One loop of exponentiated-gradient ascent on lam solves
both sides: every step's eigendecomposition yields the dual value, its
supergradient, and the bottom eigenprojector, which is itself a feasible
primal point; averaging those projectors drives the primal value down
(multiplicative weights, Arora, Hazan and Kale 2012). The reported t_star
is always a dual value, so sqrt(t_star) <= true width holds regardless
of how far the primal got.
The upper value comes from rounding the primal matrix to a genuine
projection (Gaussian sampling against Z^{1/2} plus a deterministic
eigenvector candidate) and from a PCA heuristic; the best survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProjectionOperator, as_matrix, eig_sym, make_rng


@dataclass(frozen=True)
class WidthOptions:
    """Knobs for the relaxation solver and the rounding stage.

    max_iter caps the dual ascent steps per k (one eigendecomposition
    each); tol is a relative primal-dual gap (with a small absolute floor
    so zero-width cases can terminate); repeats is the number of Gaussian
    rounding draws; seed feeds the per-k rounding streams (stream for
    index k is seed XOR k). ks limits the profile to a subset of {0..n}
    when the full sweep is too expensive.
    """

    max_iter: int = 2000
    tol: float = 1e-4
    repeats: int = 64
    seed: int = 0
    ks: tuple | None = None


@dataclass(frozen=True)
class RelaxationResult:
    t_star: float
    z_star: np.ndarray
    converged: bool
    iterations: int
    gap: float
    weights: np.ndarray


def width_relaxation_solve(X, k, opts=None):
    """Solve the rank-(n-k) width relaxation from both sides.

    Exponentiated-gradient ascent on the column weights lam: each step's
    eigendecomposition of X diag(lam) X' gives the dual value (sum of the
    n-k smallest eigenvalues), its supergradient, and a feasible primal
    point (the bottom eigenprojector QQ'). Returns a RelaxationResult
    whose t_star is the best dual value found (a true lower bound on the
    squared width; zero when that value is within rounding of zero),
    z_star the best primal matrix among the start point (n-k)/n * I, the
    latest QQ' and the average of QQ' over the latest half of the steps,
    and gap the primal-dual distance at exit. converged means the
    relative gap fell below opts.tol.
    """
    X = as_matrix(X, "X")
    n, p = X.shape
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if opts is None:
        opts = WidthOptions()
    m = n - k
    sqn = np.einsum("ij,ij->j", X, X)

    if m == 0:
        return RelaxationResult(0.0, np.zeros((n, n)), True, 0, 0.0, np.full(p, 1.0 / p))
    if k == 0:
        # trace n forces Z = I; the binding weight sits on the longest column
        i0 = int(np.argmax(sqn))
        lam = np.zeros(p)
        lam[i0] = 1.0
        t = float(sqn[i0])
        return RelaxationResult(t, np.eye(n), True, 0, 0.0, lam)

    best_Z = (m / n) * np.eye(n)
    best_f = (m / n) * float(np.max(sqn))
    if best_f == 0.0:
        return RelaxationResult(0.0, best_Z, True, 0, 0.0, np.full(p, 1.0 / p))
    # absolute floor keeps the relative test meaningful when the true
    # width is zero and both sides sit at rounding level
    floor = 1e-12 * float(np.max(sqn))

    def done(f, g):
        return f <= 0.0 or f - g <= opts.tol * f + floor

    lam = np.full(p, 1.0 / p)
    best_g, best_lam = -np.inf, lam
    rate = np.log(p)
    for it in range(opts.max_iter + 1):
        w, V = np.linalg.eigh((X * lam) @ X.T)
        g = float(np.sum(w[:m]))
        if g > best_g:
            best_g, best_lam = g, lam
        Q = V[:, :m]
        M = Q.T @ X
        quad = np.einsum("ij,ij->j", M, M)
        P = Q @ Q.T
        # restart the average at every power of two: it then spans the
        # latest half of the steps, past the early poor best responses
        if it & (it - 1) == 0:
            P_sum, quad_sum, count = np.zeros((n, n)), np.zeros(p), 0
        P_sum += P
        quad_sum += quad
        count += 1
        f_cur = float(np.max(quad))
        if f_cur < best_f:
            best_f, best_Z = f_cur, P
        f_avg = float(np.max(quad_sum)) / count
        if f_avg < best_f:
            best_f, best_Z = f_avg, P_sum / count
        if done(best_f, best_g) or it == opts.max_iter:
            break
        lam = lam * np.exp(np.sqrt(rate / (it + 1)) * quad / f_cur)
        lam /= lam.sum()

    # a dual value inside the rounding floor certifies nothing above zero;
    # reporting it would put sqrt-amplified noise above a zero width
    t_star = best_g if best_g > floor else 0.0
    gap = max(best_f - t_star, 0.0)
    return RelaxationResult(t_star, best_Z, done(best_f, best_g), it, gap, best_lam)


def _max_projected_norm(basis, X):
    if basis.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(basis.T @ X, axis=0)))


def _basis_from_sample(Y, V, m):
    Q, R = np.linalg.qr(Y)
    d = np.abs(np.diag(R))
    if Q.shape[1] == m and (d > 1e-12 * max(d.max(), 1.0)).all():
        return Q
    # degenerate draw: complete the span with eigenvector columns
    Q2, _ = np.linalg.qr(np.column_stack([Y, V]))
    return Q2[:, :m]


def round_projection(z_star, X, k, repeats=64, rng_state=0):
    """Extract a genuine rank-(n-k) projection from the relaxation matrix.

    Draws Gaussian bases against the matrix square root, plus one
    deterministic candidate from the top eigenvectors, and returns the
    projection with the smallest worst-case projected column norm.
    """
    X = as_matrix(X, "X")
    Z = as_matrix(z_star, "z_star")
    n = X.shape[0]
    m = n - int(k)
    if not 0 <= m <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if m == 0:
        return ProjectionOperator.empty(n), 0.0
    w, V = eig_sym(0.5 * (Z + Z.T))
    best = V[:, :m]
    best_z = _max_projected_norm(best, X)
    if repeats > 0:
        rng = make_rng(rng_state)
        S = V * np.sqrt(np.clip(w, 0.0, None))
        for _ in range(int(repeats)):
            Y = S @ rng.standard_normal((n, m))
            B = _basis_from_sample(Y, V, m)
            z = _max_projected_norm(B, X)
            if z < best_z:
                best, best_z = B, z
    return ProjectionOperator(best), best_z


def pca_projection(X, k):
    """Heuristic: span of the n-k trailing eigenvectors of X X'.

    No approximation guarantee; callers keep the better of this and the
    rounded relaxation.
    """
    X = as_matrix(X, "X")
    n = X.shape[0]
    k = int(k)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if k == n:
        return ProjectionOperator.empty(n), 0.0
    _, V = eig_sym(X @ X.T)
    basis = V[:, k:]
    return ProjectionOperator(basis), _max_projected_norm(basis, X)


def _angle_grid_min(objective, grid):
    # 1-D torus minimization: coarse grid then shrinking window refinement
    lo, hi = 0.0, np.pi
    pts = max(int(grid), 8)
    theta = np.linspace(lo, hi, pts, endpoint=False)
    vals = objective(theta)
    i = int(np.argmin(vals))
    center, best = float(theta[i]), float(vals[i])
    window = (hi - lo) / pts
    for _ in range(14):
        theta = np.linspace(center - window, center + window, 15)
        vals = objective(theta)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, center = float(vals[i]), float(theta[i])
        window *= 0.35
    return best


def _sphere_grid_min(objective, grid):
    # 2-D (polar, azimuth) search over half the sphere; directions are signless
    pts = max(int(grid), 8)

    def eval_mesh(thetas, phis):
        T, P = np.meshgrid(thetas, phis, indexing="ij")
        U = np.stack(
            [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=0
        ).reshape(3, -1)
        vals = objective(U)
        i = int(np.argmin(vals))
        return float(vals[i]), float(T.ravel()[i]), float(P.ravel()[i])

    best, ct, cp = eval_mesh(
        np.linspace(0.0, 0.5 * np.pi, pts), np.linspace(0.0, 2.0 * np.pi, 2 * pts, endpoint=False)
    )
    wt = 0.5 * np.pi / pts
    wp = np.pi / pts
    for _ in range(14):
        b, t, p = eval_mesh(np.linspace(ct - wt, ct + wt, 15), np.linspace(cp - wp, cp + wp, 15))
        if b < best:
            best, ct, cp = b, t, p
        wt *= 0.35
        wp *= 0.35
    return best


def width_bruteforce(X, k, grid=360):
    """Grid-search the exact width in ambient dimension at most 3.

    Dense directional grid plus local refinement; accuracy on the order of
    (pi/grid)^2 before refinement. Intended as a test oracle.
    """
    X = as_matrix(X, "X")
    n = X.shape[0]
    k = int(k)
    if n > 3:
        raise ValueError("brute-force width search only supports n <= 3")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    m = n - k
    sqn = np.einsum("ij,ij->j", X, X)
    if m == 0:
        return 0.0
    if m == n:
        return float(np.sqrt(sqn.max()))
    if n == 2:
        # rank-1 projection onto direction u(theta)
        def obj(theta):
            U = np.stack([np.cos(theta), np.sin(theta)])
            return np.max((X.T @ U) ** 2, axis=0)

        return float(np.sqrt(max(_angle_grid_min(obj, grid), 0.0)))
    if m == 1:
        def obj(U):
            return np.max((X.T @ U) ** 2, axis=0)
    else:
        def obj(U):
            return np.max(sqn[:, None] - (X.T @ U) ** 2, axis=0)

    return float(np.sqrt(max(_sphere_grid_min(obj, grid), 0.0)))


@dataclass(frozen=True)
class WidthProfile:
    """Per-k width sandwich with the projections that achieve the upper side.

    ks is increasing; relax_lower[i] <= true width at ks[i] <= achieved[i];
    projections[i] has rank n - ks[i]. converged mirrors the per-k solver
    flag.
    """

    ks: np.ndarray
    relax_lower: np.ndarray
    achieved: np.ndarray
    projections: list
    converged: np.ndarray

    def index_of(self, k):
        hits = np.flatnonzero(self.ks == int(k))
        if hits.size == 0:
            raise KeyError(f"k={k} not present in this profile")
        return int(hits[0])

    def projection_for(self, k):
        return self.projections[self.index_of(k)]

    def achieved_for(self, k):
        return float(self.achieved[self.index_of(k)])

    def scaled(self, c):
        """Profile of the design scaled by c > 0: widths scale linearly,
        projections are scale-free and shared."""
        c = float(c)
        if c <= 0:
            raise ValueError(f"scale must be positive, got {c}")
        return WidthProfile(
            self.ks, c * self.relax_lower, c * self.achieved, self.projections, self.converged
        )


def _drop_one_direction(basis, X):
    # remove the in-span direction of the currently worst column
    coords = basis.T @ X
    i = int(np.argmax(np.einsum("ij,ij->j", coords, coords)))
    c = coords[:, i]
    nc = np.linalg.norm(c)
    if nc == 0.0:
        return basis[:, :-1]
    U, _, _ = np.linalg.svd(c.reshape(-1, 1), full_matrices=True)
    return basis @ U[:, 1:]


def width_profile(X, opts=None):
    """Width sandwich over a grid of k values (default: every k in 0..n).

    Per k: relaxation + rounding and the PCA heuristic, keeping the better
    projection. A final pass enforces that achieved values never increase
    with k, rebuilding offenders inside the previous subspace.
    """
    X = as_matrix(X, "X")
    n = X.shape[0]
    if opts is None:
        opts = WidthOptions()
    ks = np.arange(n + 1) if opts.ks is None else np.asarray(sorted(opts.ks), dtype=int)
    if ks.size == 0 or ks[0] < 0 or ks[-1] > n or np.unique(ks).size != ks.size:
        raise ValueError(f"ks must be distinct integers in [0, {n}]")

    relax = np.zeros(ks.size)
    achieved = np.zeros(ks.size)
    conv = np.ones(ks.size, dtype=bool)
    projections = []
    col_norm_max = float(np.max(np.linalg.norm(X, axis=0))) if X.size else 0.0

    for j, k in enumerate(ks):
        if k == 0:
            projections.append(ProjectionOperator.identity(n))
            relax[j] = col_norm_max
            achieved[j] = col_norm_max
            continue
        if k == n:
            projections.append(ProjectionOperator.empty(n))
            relax[j] = 0.0
            achieved[j] = 0.0
            continue
        res = width_relaxation_solve(X, int(k), opts)
        conv[j] = res.converged
        relax[j] = float(np.sqrt(max(res.t_star, 0.0)))
        P_r, z_r = round_projection(
            res.z_star, X, int(k), repeats=opts.repeats, rng_state=opts.seed ^ int(k)
        )
        P_p, z_p = pca_projection(X, int(k))
        if z_p < z_r:
            projections.append(P_p)
            achieved[j] = z_p
        else:
            projections.append(P_r)
            achieved[j] = z_r

    # monotone repair: a wider value at larger k is replaced by a
    # sub-basis of the previous projection, which can only shrink norms
    for j in range(1, ks.size):
        if achieved[j] > achieved[j - 1]:
            basis = projections[j - 1].basis
            greedy = basis
            for _ in range(int(ks[j] - ks[j - 1])):
                greedy = _drop_one_direction(greedy, X)
            z_greedy = _max_projected_norm(greedy, X)
            trunc = basis[:, : n - int(ks[j])]
            z_trunc = _max_projected_norm(trunc, X)
            if z_greedy <= z_trunc:
                cand, z_cand = greedy, z_greedy
            else:
                cand, z_cand = trunc, z_trunc
            if z_cand < achieved[j]:
                projections[j] = ProjectionOperator(cand)
                achieved[j] = z_cand

    return WidthProfile(ks, relax, achieved, projections, conv)
