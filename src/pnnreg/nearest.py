"""Nearest-point solvers for the constraint sets the estimators run on.

The workhorse is ``l1_ls``: least squares over a scaled l1 ball, solved by
an accelerated projected gradient method with adaptive restart. Optimality
is certified through a variational-inequality residual rather than iterate
movement, so "converged" means a verified bound on the objective gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_matrix, as_vector


@dataclass(frozen=True)
class SolveOptions:
    """Tolerance and iteration budget for ``l1_ls``.

    ``tol`` bounds the certificate residual at exit; None picks
    1e-6 * (1 + ||b||^2), which scales with the objective.
    """

    tol: float | None = None
    max_iter: int = 20000


@dataclass(frozen=True)
class NNSolution:
    theta_hat: np.ndarray
    y_hat: np.ndarray
    vi_residual: float
    iterations: int
    converged: bool


def project_l1_ball(v, radius):
    """Euclidean projection of v onto the l1 ball of the given radius."""
    v = as_vector(v, "v")
    radius = float(radius)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if radius == 0.0 or v.size == 0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    # sort-and-threshold: find the largest shrinkage that lands on the sphere
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = int(np.max(idx[u * idx > css - radius]))
    tau = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(a - tau, 0.0)


def vertex_vi_residual(A, b, radius, y_hat):
    """Optimality certificate for min ||A theta - b||^2/2 over the l1 ball.

    Zero iff y_hat is the optimal fit; any positive value upper-bounds the
    objective suboptimality of y_hat, hence ||y_hat - y_opt||^2 / 2.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b")
    y_hat = as_vector(y_hat, "y_hat")
    r = b - y_hat
    if A.shape[1] == 0:
        return 0.0
    return float(radius) * float(np.max(np.abs(A.T @ r))) - float(r @ y_hat)


def _spectral_bound(A, iters=30):
    # power iteration on A^T A, padded upward. It starts from A's longest
    # row r, so ||A r|| >= ||r||^2 > 0 unless A = 0; a fixed start such as
    # the all-ones vector lies in A's null space when the columns sum to 0
    v = A[int(np.argmax(np.einsum("ij,ij->i", A, A)))]
    est = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = nw
        v = w / nw
    return 1.02 * est


def l1_ls(A, b, radius, opts=None):
    """Least squares over the l1 ball: min 0.5||A theta - b||^2, ||theta||_1 <= radius.

    Accelerated projected gradient with function-value restart. Stops when
    the certificate residual drops below ``opts.tol``. Returns an
    ``NNSolution``; ``y_hat = A theta_hat`` is the fitted mean vector.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b")
    radius = float(radius)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if A.shape[0] != b.size:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.size} entries")
    if opts is None:
        opts = SolveOptions()
    tol = opts.tol if opts.tol is not None else 1e-6 * (1.0 + float(b @ b))

    n, p = A.shape
    if radius == 0.0 or A.size == 0:
        theta = np.zeros(p)
        return NNSolution(theta, np.zeros(n), 0.0, 0, True)
    L = _spectral_bound(A)
    if L == 0.0:
        # zero design: every feasible point fits equally badly
        theta = np.zeros(p)
        return NNSolution(theta, np.zeros(n), 0.0, 0, True)

    def obj(th):
        d = A @ th - b
        return 0.5 * float(d @ d)

    theta = project_l1_ball(np.zeros(p), radius)
    z = theta.copy()
    t = 1.0
    f_prev = obj(theta)
    it = 0
    resid = vertex_vi_residual(A, b, radius, A @ theta)
    if resid <= tol:
        return NNSolution(theta, A @ theta, resid, 0, True)
    for it in range(1, opts.max_iter + 1):
        g = A.T @ (A @ z - b)
        cand = project_l1_ball(z - g / L, radius)
        f_cand = obj(cand)
        if f_cand > f_prev:
            # momentum overshoot: restart from the last monotone iterate
            g = A.T @ (A @ theta - b)
            cand = project_l1_ball(theta - g / L, radius)
            f_cand = obj(cand)
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = cand + ((t - 1.0) / t_next) * (cand - theta)
        theta, f_prev, t = cand, f_cand, t_next
        y = A @ theta
        resid = radius * float(np.max(np.abs(A.T @ (b - y)))) - float((b - y) @ y)
        if resid <= tol:
            return NNSolution(theta, y, resid, it, True)
    return NNSolution(theta, A @ theta, resid, it, False)


@dataclass(frozen=True)
class AxisEllipsoid:
    """Axis-aligned ellipsoid {u : sum_i weights_i * u_i^2 <= 1}.

    Weights must be non-negative; a zero weight leaves that axis
    unconstrained. Unit weights give the Euclidean unit ball.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights, "weights")
        if np.any(w < 0):
            raise ValueError("ellipsoid weights must be non-negative")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.weights.size

    def level(self, u):
        u = as_vector(u, "u")
        return float(np.sum(self.weights * u * u))

    def contains(self, u, slack=1e-12):
        # slack absorbs roundoff for points sitting exactly on the boundary
        return self.level(u) <= 1.0 + slack


def ellipsoid_nearest(ellipsoid, v, tol=1e-10):
    """Euclidean projection of v onto an axis-aligned ellipsoid.

    The KKT system reduces to a scalar equation in the multiplier; it is
    solved by bracketed bisection. Interior points return unchanged.
    """
    w = ellipsoid.weights
    v = as_vector(v, "v")
    if v.size != w.size:
        raise ValueError(f"point has dimension {v.size}, ellipsoid has {w.size}")
    if ellipsoid.contains(v):
        return v.copy()

    def level_at(lam):
        u = v / (1.0 + lam * w)
        return float(np.sum(w * u * u))

    lo, hi = 0.0, 1.0
    grow = 0
    while level_at(hi) > 1.0:
        lo, hi = hi, hi * 2.0
        grow += 1
        if grow > 200:
            raise RuntimeError("failed to bracket the ellipsoid multiplier")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if level_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * (1.0 + hi):
            break
    lam = hi  # the feasible endpoint, so the result lands inside
    return v / (1.0 + lam * w)
