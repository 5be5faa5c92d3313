"""Damped Newton's method on the exact Hessian of the penalized objective.

Each iteration factors the Hessian by Cholesky, adding a growing multiple of
the identity when the factorization fails (Nocedal & Wright, *Numerical
Optimization*, 2nd ed., Algorithm 3.3), and backtracks from the full step
until the Armijo condition holds.  The objective may return +inf (barrier
regions of the likelihood); such trial points count as failed steps.  Near
the optimum the objective is flat to float precision while its gradient is
not, so the full step is also accepted when it is finite and at least halves
the gradient sup-norm.  Convergence is declared on that sup-norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .objective import Coefficients, ObjectiveContext, penalized_hessian, penalized_value_and_grad

ValueGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]
Hessian = Callable[[np.ndarray], np.ndarray]

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 30
_MIN_SHIFT = 1e-3


@dataclass(frozen=True)
class OptimSettings:
    max_iter: int = 500
    grad_tol: float = 1e-6


@dataclass
class OptimResult:
    coef: Coefficients
    nll_value: float
    grad_norm: float
    iterations: int
    converged: bool
    trace: list[tuple[float, float]] = field(default_factory=list)


def _newton_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-(H + tau I)^-1 g, tau doubled from its first value until the Cholesky factor exists."""
    if not np.all(np.isfinite(hess)):
        raise ValueError("Hessian not finite")
    diag_min = float(np.diag(hess).min())
    tau = 0.0 if diag_min > 0 else _MIN_SHIFT - diag_min
    while True:
        try:
            return -cho_solve(cho_factor(hess + tau * np.eye(len(g))), g)
        except LinAlgError:
            tau = max(2.0 * tau, _MIN_SHIFT)


def _backtrack(fun: ValueGrad, x, f, g, gnorm, p):
    """(x, f, g) at the first accepted step length 1, 1/2, 1/4, ...; None if none is."""
    slope = float(g @ p)
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        x_new = x + t * p
        f_new, g_new = fun(x_new)
        if np.isfinite(f_new) and (
            f_new <= f + _ARMIJO_C1 * t * slope
            or (t == 1.0 and np.abs(g_new).max() <= 0.5 * gnorm)
        ):
            return x_new, f_new, g_new
        t *= 0.5
    return None


def newton_minimize(
    fun: ValueGrad, hess: Hessian, x0: np.ndarray, settings: OptimSettings = OptimSettings()
):
    """Minimize fun, returning (x, f, g, iterations, converged, trace).

    Stops when the gradient sup-norm is at most grad_tol (converged), when no
    step along the Newton direction is accepted, or after max_iter steps.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective or gradient not finite at the initial point")
    gnorm = float(np.abs(g).max())
    trace = [(f, gnorm)]
    iterations = 0
    while gnorm > settings.grad_tol and iterations < settings.max_iter:
        step = _backtrack(fun, x, f, g, gnorm, _newton_direction(hess(x), g))
        if step is None:
            break
        x, f, g = step
        gnorm = float(np.abs(g).max())
        iterations += 1
        trace.append((f, gnorm))
    return x, f, g, iterations, gnorm <= settings.grad_tol, trace


def initial_point(ctx: ObjectiveContext) -> Coefficients:
    """Zero filters; baseline chosen so phi(beta0) equals the empirical event rate."""
    beta0 = ctx.link.inverse(max(ctx.n_jumps / ctx.total_time, 1e-6))
    return Coefficients(beta0=beta0, beta=np.zeros((ctx.spec.n_channels, ctx.spec.q)))


def minimize(
    ctx: ObjectiveContext,
    settings: OptimSettings = OptimSettings(),
    start: Coefficients | None = None,
) -> OptimResult:
    """Damped Newton fit of (beta0, beta), started at start or else at initial_point(ctx)."""
    x0 = (start if start is not None else initial_point(ctx)).pack()
    x, f, g, iterations, converged, trace = newton_minimize(
        lambda vec: penalized_value_and_grad(ctx, vec),
        lambda vec: penalized_hessian(ctx, vec),
        x0,
        settings,
    )
    coef = Coefficients.unpack(x, ctx.spec.n_channels, ctx.spec.q)
    return OptimResult(
        coef=coef,
        nll_value=f,
        grad_norm=float(np.abs(g).max()),
        iterations=iterations,
        converged=converged,
        trace=trace,
    )
