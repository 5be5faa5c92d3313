"""Full-memory BFGS with a strong Wolfe line search.

The objective may return +inf (barrier regions of the likelihood); such
trial points are treated as failed sufficient-decrease and the line search
backtracks.  Accepted values are monotone nonincreasing and convergence is
declared on the sup-norm of the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .objective import Coefficients, ObjectiveContext, penalized_value_and_grad

ValueGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class OptimSettings:
    max_iter: int = 500
    grad_tol: float = 1e-6
    armijo_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search: int = 50

    def __post_init__(self) -> None:
        if not 0 < self.armijo_c1 < self.wolfe_c2 < 1:
            raise ValueError("need 0 < c1 < c2 < 1")


@dataclass
class OptimResult:
    coef: Coefficients
    nll_value: float
    grad_norm: float
    iterations: int
    converged: bool
    trace: list[tuple[float, float]] = field(default_factory=list)


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spent(self) -> bool:
        return self.used >= self.limit


def _zoom(fun, x, p, f0, dphi0, lo, hi, c1, c2, budget):
    """Interpolating zoom on [lo, hi]; lo always satisfies sufficient decrease.

    A quadratic fit through (a_lo, f_lo, d_lo) and f_hi lands essentially on
    the one-dimensional minimizer near convergence, where plain bisection
    would stall on float-flat objective differences; a midpoint step is the
    safeguarded fallback.
    """
    a_lo, f_lo, d_lo = lo
    a_hi, f_hi = hi
    while not budget.spent():
        gap = a_hi - a_lo
        alpha = None
        if np.isfinite(f_hi):
            denom = 2.0 * (f_hi - f_lo - d_lo * gap)
            if denom > 0:
                cand = a_lo - d_lo * gap * gap / denom
                margin = 0.05 * abs(gap)
                if min(a_lo, a_hi) + margin <= cand <= max(a_lo, a_hi) - margin:
                    alpha = cand
        if alpha is None:
            alpha = 0.5 * (a_lo + a_hi)
        budget.used += 1
        f_a, g_a = fun(x + alpha * p)
        if not np.isfinite(f_a) or f_a > f0 + c1 * alpha * dphi0 or f_a >= f_lo:
            a_hi, f_hi = alpha, f_a
            continue
        d_a = float(g_a @ p)
        if abs(d_a) <= -c2 * dphi0:
            return alpha, f_a, g_a
        if d_a * (a_hi - a_lo) >= 0:
            a_hi, f_hi = a_lo, f_lo
        a_lo, f_lo, d_lo = alpha, f_a, d_a
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
    return None


def _line_search(fun, x, f0, g0, p, settings: OptimSettings):
    """Strong Wolfe search along p; returns (alpha, f, g) or None on failure."""
    c1, c2 = settings.armijo_c1, settings.wolfe_c2
    dphi0 = float(g0 @ p)
    if dphi0 >= 0:
        return None
    budget = _Budget(settings.max_line_search)
    a_prev, f_prev, d_prev = 0.0, f0, dphi0
    alpha = 1.0
    while not budget.spent():
        budget.used += 1
        f_a, g_a = fun(x + alpha * p)
        if not np.isfinite(f_a) or f_a > f0 + c1 * alpha * dphi0 or f_a >= f_prev:
            return _zoom(fun, x, p, f0, dphi0, (a_prev, f_prev, d_prev), (alpha, f_a), c1, c2, budget)
        d_a = float(g_a @ p)
        if abs(d_a) <= -c2 * dphi0:
            return alpha, f_a, g_a
        if d_a >= 0:
            return _zoom(fun, x, p, f0, dphi0, (alpha, f_a, d_a), (a_prev, f_prev), c1, c2, budget)
        a_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= 2.0
    return None


def _polish(fun, x, f, g, h_inv, tol, max_polish=12):
    """Damped quasi-Newton descent for the last digits of gradient accuracy.

    Used once the Wolfe search can no longer certify progress on a
    float-flat objective.  Steps are accepted only when the value does not
    increase and the gradient sup-norm strictly decreases, so the accepted
    trace stays monotone and convergence is still judged by the true
    gradient at the returned point.
    """
    steps = []
    for _ in range(max_polish):
        gnorm = np.abs(g).max()
        if gnorm <= tol:
            break
        step = -h_inv @ g
        scale = 1.0
        accepted = False
        for _ in range(25):
            f_new, g_new = fun(x + scale * step)
            if (
                np.isfinite(f_new)
                and f_new <= f
                and np.all(np.isfinite(g_new))
                and np.abs(g_new).max() < gnorm
            ):
                x = x + scale * step
                f, g = f_new, g_new
                steps.append((f, float(np.abs(g).max())))
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
    return x, f, g, steps


def bfgs_minimize(fun: ValueGrad, x0: np.ndarray, settings: OptimSettings = OptimSettings()):
    """Minimize fun, returning (x, f, g, iterations, converged, trace)."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not np.isfinite(f):
        raise ValueError("objective not finite at the initial point")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient not finite at the initial point")
    dim = len(x)
    h_inv = np.eye(dim)
    trace = [(f, float(np.abs(g).max()))]
    converged = False
    iterations = 0
    for k in range(settings.max_iter):
        if np.abs(g).max() <= settings.grad_tol:
            converged = True
            break
        p = -h_inv @ g
        fresh_metric = False
        if float(p @ g) >= 0.0:  # numerical loss of descent; restart metric
            h_inv = np.eye(dim)
            p = -g
            fresh_metric = True
        hit = _line_search(fun, x, f, g, p, settings)
        if hit is None and not fresh_metric:
            # quasi-Newton direction stalled; retry once along steepest descent
            hit = _line_search(fun, x, f, g, -g, settings)
            if hit is not None:
                h_inv = np.eye(dim)
                p = -g
        if hit is None:
            x, f, g, polish_steps = _polish(fun, x, f, g, h_inv, settings.grad_tol)
            trace.extend(polish_steps)
            if polish_steps:
                iterations = k + 1
            break
        alpha, f_new, g_new = hit
        s = alpha * p
        y = g_new - g
        sy = float(s @ y)
        if k == 0 and sy > 0:
            h_inv *= sy / float(y @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            hy = h_inv @ y
            h_inv -= rho * (np.outer(s, hy) + np.outer(hy, s))
            h_inv += rho * rho * float(y @ hy) * np.outer(s, s) + rho * np.outer(s, s)
        x = x + s
        f, g = f_new, g_new
        iterations = k + 1
        trace.append((f, float(np.abs(g).max())))
    else:
        iterations = settings.max_iter
    if not converged:
        converged = bool(np.abs(g).max() <= settings.grad_tol)
    return x, f, g, iterations, converged, trace


def initial_point(ctx: ObjectiveContext) -> Coefficients:
    """Zero filters; baseline chosen so phi(beta0) equals the empirical event rate."""
    rate = ctx.n_jumps / ctx.total_time
    rate = max(rate, 1e-6)
    beta0 = ctx.link.inverse(rate)
    return Coefficients(beta0=beta0, beta=np.zeros((ctx.spec.n_channels, ctx.spec.q)))


def minimize(ctx: ObjectiveContext, settings: OptimSettings = OptimSettings()) -> OptimResult:
    """Fit (beta0, beta) by BFGS on the penalized objective."""
    start = initial_point(ctx)
    fun = lambda vec: penalized_value_and_grad(ctx, vec)
    x, f, g, iterations, converged, trace = bfgs_minimize(fun, start.pack(), settings)
    coef = Coefficients.unpack(x, ctx.spec.n_channels, ctx.spec.q)
    return OptimResult(
        coef=coef,
        nll_value=f,
        grad_norm=float(np.abs(g).max()),
        iterations=iterations,
        converged=converged,
        trace=trace,
    )
