"""Low-dimensional similarity kernels, their gradients, and the (a, b) fit.

Two families over squared embedding distance s = ||y_i - y_j||^2:

    cauchy_ab:  phi(s) = (1 + a * s^b)^{-1}
    gaussian:   phi(s) = exp(-s / (2 * tau))

The heavy-tailed form is written in squared distance so the hot loop never
takes a square root (||y||^{2b} == s^b). The repulsive gradient of
log(1 - phi) diverges as s -> 0; the optimizer uses a surrogate in which the
singular 1/s factor is replaced by 1/(s + eps). For the cauchy family the
surrogate is itself the exact gradient of

    b*log(s + eps) - log(1 + a*s^b) + log(a)

so finite differences of that objective can validate the analytic form at
any eps, as tests/test_kernels.py's
test_regularized_gradient_matches_surrogate_objective does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, KernelFitError

# the min-dist that ``embed`` and ``fit-ab`` fit (a, b) at unless told otherwise
DEFAULT_MIN_DIST = 0.1
# largest min-dist ``fit_ab`` accepts: umap-learn's min_dist <= spread rule at
# the target curve's unit spread; past it a falls toward 0 (4e-15 at 2.77)
MIN_DIST_MAX = 1.0
FIT_GRID_STEP = 0.01
FIT_GRID_MAX = 3.0
FIT_MAX_ITERS = 200
FIT_STEP_TOL = 1e-10


@dataclass(frozen=True)
class KernelParams:
    """Kernel family selector plus its shape parameters."""

    family: str
    a: float = 1.0
    b: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        if self.family not in ("cauchy_ab", "gaussian"):
            raise ConfigurationError(f"unknown kernel family {self.family!r}")
        # written so that NaN fails too; an infinite value makes every step non-finite
        if self.family == "cauchy_ab" and not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ConfigurationError("cauchy_ab requires finite a > 0 and b > 0")
        if self.family == "gaussian" and not 0 < self.tau < math.inf:
            raise ConfigurationError("gaussian requires finite tau > 0")

    @classmethod
    def cauchy(cls, a: float = 1.0, b: float = 1.0) -> "KernelParams":
        return cls(family="cauchy_ab", a=a, b=b)

    @classmethod
    def gaussian(cls, tau: float = 1.0) -> "KernelParams":
        return cls(family="gaussian", tau=tau)


def one_minus_phi(sq_dist, p: KernelParams, out: np.ndarray | None = None):
    """1 - phi computed without cancellation for small distances.

    ``out`` (which may be ``sq_dist`` itself) receives the result, so a
    caller that no longer needs the distances holds one array, not three.
    """
    s = np.asarray(sq_dist, dtype=np.float64)
    out = np.empty_like(s) if out is None else out
    if p.family == "gaussian":
        np.negative(s, out=out)
        np.divide(out, 2.0 * p.tau, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
    else:
        np.power(s, p.b, out=out)
        np.multiply(out, p.a, out=out)
        np.divide(out, out + 1.0, out=out)
    return out if out.ndim else float(out)


def log_phi(sq_dist, p: KernelParams):
    """log phi(s); the attraction integrand."""
    s = np.asarray(sq_dist, dtype=np.float64)
    if p.family == "gaussian":
        out = -s / (2.0 * p.tau)
    else:
        out = -np.log1p(p.a * s**p.b)
    return out if out.ndim else float(out)


def grad_log_phi_rows(diff: np.ndarray, p: KernelParams) -> np.ndarray:
    """Row-wise attraction gradient: row i is the gradient of
    log phi(||diff_i||^2) with respect to y_a, where diff = y_a - y_b is (m, d).

    Coincident rows (s == 0) return the zero vector: the stationary point for
    b >= 1 and the documented removable-singularity policy for b < 1.
    """
    if p.family == "gaussian":
        return -diff / p.tau
    s = np.vecdot(diff, diff)
    zero = s == 0.0
    s = np.where(zero, 1.0, s)
    coef = -2.0 * p.a * p.b * s ** (p.b - 1.0) / (1.0 + p.a * s**p.b)
    return np.where(zero[:, None], 0.0, coef[:, None] * diff)


def grad_log_one_minus_phi_rows(diff: np.ndarray, p: KernelParams, eps: float) -> np.ndarray:
    """Row-wise repulsion gradient with the 1/s factor softened to 1/(s+eps);
    diff = y_a - y_c is (m, d).

    cauchy_ab: 2b * diff * [1/(s+eps) - a s^{b-1} / (1 + a s^b)]
    gaussian:  2  * diff * q(u) / (s+eps),  q(u) = u / (e^u - 1), u = s/(2 tau)

    Exactly coincident rows have no push direction and return zero.
    """
    if not 0.0 <= eps < np.inf:  # NaN fails this too
        raise ConfigurationError("eps must be finite and nonnegative")
    s = np.vecdot(diff, diff)
    zero = s == 0.0
    s = np.where(zero, 1.0, s)
    if p.family == "gaussian":
        u = s / (2.0 * p.tau)
        # expm1 overflows to inf past u ~ 709, where u / expm1(u) -> 0 is
        # already the exact limit, so the overflow is no error
        with np.errstate(over="ignore"):
            coef = 2.0 * (u / np.expm1(u)) / (s + eps)
    else:
        coef = 2.0 * p.b * (1.0 / (s + eps) - p.a * s ** (p.b - 1.0) / (1.0 + p.a * s**p.b))
    return np.where(zero[:, None], 0.0, coef[:, None] * diff)


@dataclass(frozen=True)
class MinDistFit:
    """Result of fitting (a, b) against the min-dist target curve."""

    min_dist: float
    fitted_a: float
    fitted_b: float
    fit_rmse: float


def target_curve(dist: np.ndarray, min_dist: float) -> np.ndarray:
    """Desired similarity profile: flat 1 out to min_dist, then exponential decay."""
    return np.where(dist <= min_dist, 1.0, np.exp(-(dist - min_dist)))


def fit_ab(min_dist: float) -> MinDistFit:
    """Least-squares fit of (1 + a d^{2b})^{-1} to the min-dist target curve.

    Gauss-Newton from (a, b) = (1, 1) with step halving, on the distance grid
    {0.00, 0.01, ..., 3.00}; converged when the step norm drops below 1e-10.
    Accepts min_dist in [0, ``MIN_DIST_MAX``].
    """
    if not (0.0 <= min_dist <= MIN_DIST_MAX):
        raise ConfigurationError(f"min_dist must be in [0, {MIN_DIST_MAX:g}]")

    grid = np.arange(0.0, FIT_GRID_MAX + FIT_GRID_STEP / 2, FIT_GRID_STEP)
    y = target_curve(grid, min_dist)
    pos = grid > 0.0
    log_grid = np.zeros_like(grid)
    log_grid[pos] = np.log(grid[pos])

    def model(a: float, b: float) -> np.ndarray:
        return 1.0 / (1.0 + a * grid ** (2.0 * b))

    def sse(a: float, b: float) -> float:
        r = model(a, b) - y
        return float(r @ r)

    a, b = 1.0, 1.0
    err = sse(a, b)
    trace = [err]
    converged = False
    for _ in range(FIT_MAX_ITERS):
        f = model(a, b)
        r = f - y
        pw = grid ** (2.0 * b)
        # d phi / da = -pw * phi^2 ; d phi / db = -2a * pw * log(d) * phi^2
        J = np.column_stack([-pw * f**2, -2.0 * a * pw * log_grid * f**2])
        g = J.T @ r
        H = J.T @ J
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        # backtrack until the residual decreases and parameters stay positive
        scale = 1.0
        for _ in range(60):
            na, nb = a + scale * step[0], b + scale * step[1]
            if na > 0 and nb > 0 and sse(na, nb) <= err:
                break
            scale *= 0.5
        else:
            converged = True  # no descent direction left: at a minimum
            break
        a, b = a + scale * step[0], b + scale * step[1]
        err = sse(a, b)
        trace.append(err)
        if scale * float(np.hypot(step[0], step[1])) < FIT_STEP_TOL:
            converged = True
            break

    if not converged:
        raise KernelFitError(
            f"fit did not converge in {FIT_MAX_ITERS} iterations; "
            f"residual trace tail: {[f'{e:.3e}' for e in trace[-5:]]}"
        )
    rmse = float(np.sqrt(err / grid.size))
    return MinDistFit(min_dist=min_dist, fitted_a=a, fitted_b=b, fit_rmse=rmse)
