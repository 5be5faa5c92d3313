"""Fisher-information estimate, sandwich covariance, TIC and filter bands.

The information estimate discretizes the same time integral as the
likelihood:

    K_hat = sum_l x_l x_l^T phi'(xi_l)^2 / phi(xi_l) Delta_l,

with x_l the design row in the working parametrization, [1, blocks mapped
through FilterSpec.block_map]: the row of H times U (direct) or of Z times
V^-T (basis), so that xi_l = x_l . (beta0, beta).  J_hat adds 2 lambda on
the penalized coordinates (the baseline gets none), the covariance is the
sandwich J^-1 K J^-1, and TIC = nll + tr(J^-1 K).

K_hat is the objective's weighted Gram of the working-design rows with the
information weights, the same chunked sum that gives the optimizer its
Hessian: one sparse product per chunk written into a reused buffer, so the
design is never sliced or densified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import Coefficients, FilterSpec, ObjectiveContext, _weighted_gram, linear_predictor
from .objective import reconstruct_filter

Z_95 = 1.96


@dataclass(eq=False)
class FitResult:
    """Penalized fit with its curvature estimates and selection criterion."""

    coef: Coefficients
    nll: float
    penalized_nll: float
    k_hat: np.ndarray
    j_hat: np.ndarray
    sandwich: np.ndarray
    tic: float
    lam: float
    link: str
    mode: str
    stop_reason: str  # one of optimize.STOP_REASONS
    iterations: int
    grad_norm: float
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gradient_tolerance"


@dataclass(frozen=True, eq=False)
class FilterBand:
    """Pointwise 95% band for one reconstructed filter curve."""

    channel: str
    lags: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def fisher_hat(ctx: ObjectiveContext, coef: Coefficients) -> np.ndarray:
    """Discretized information estimate in the working parametrization."""
    xi = linear_predictor(ctx, coef)
    with np.errstate(invalid="ignore"):
        weights = np.where(ctx.delta_pad > 0, ctx.link.info_weight(xi) * ctx.delta_pad, 0.0)
    bad = ~np.isfinite(weights)
    if np.any(bad):
        raise ZeroDivisionError(
            f"zero intensity with nonzero weight at grid row {int(np.flatnonzero(bad)[0])}"
        )
    return _weighted_gram(ctx, weights)


def penalty_pattern(dim: int) -> np.ndarray:
    """Identity on penalized coordinates, zero on the baseline."""
    pattern = np.eye(dim)
    pattern[0, 0] = 0.0
    return pattern


def j_hat_matrix(k_hat: np.ndarray, lam: float) -> np.ndarray:
    return k_hat + 2.0 * lam * penalty_pattern(k_hat.shape[0])


def sandwich_cov(k_hat: np.ndarray, lam: float) -> np.ndarray:
    """J^-1 K J^-1 by linear solves; raises on singular J (possible only at lam=0)."""
    j = j_hat_matrix(k_hat, lam)
    inner = np.linalg.solve(j, k_hat)
    return np.linalg.solve(j, inner.T).T


def tic(nll_at_opt: float, k_hat: np.ndarray, lam: float) -> float:
    """nll + tr(J^-1 K)."""
    return float(nll_at_opt + tic_trace_term(k_hat, lam))


def tic_trace_term(k_hat: np.ndarray, lam: float) -> float:
    """tr(J^-1 K), evaluated as dim - 2 lambda tr(J^-1 P).

    The two forms agree algebraically (K = J - 2 lambda P); this one is exact
    at lambda = 0 and keeps its accuracy as lambda grows, since J is then the
    well-conditioned operand of the solve.
    """
    dim = k_hat.shape[0]
    if lam == 0.0:
        return float(dim)
    j = j_hat_matrix(k_hat, lam)
    return float(dim - 2.0 * lam * np.trace(np.linalg.solve(j, penalty_pattern(dim))))


def filter_bands(
    fit: FitResult, spec: FilterSpec, channel_index: int, channel_name: str | None = None
) -> FilterBand:
    """Estimate with pointwise 95% bounds from the sandwich block of one channel."""
    q = spec.q
    beta_block = np.asarray(fit.coef.beta)[channel_index]
    estimate = reconstruct_filter(spec, beta_block)
    curve_map = spec.curve_map
    off = 1 + channel_index * q
    cov_block = fit.sandwich[off : off + q, off : off + q]
    variance = np.sum((curve_map @ cov_block) * curve_map, axis=1)
    if np.any(variance < -1e-12):
        raise ValueError(f"negative band variance ({variance.min():g}): covariance not PSD")
    half = Z_95 * np.sqrt(np.maximum(variance, 0.0))
    return FilterBand(
        channel=channel_name if channel_name is not None else str(channel_index),
        lags=spec.delta.bin_lags.copy(),
        estimate=estimate,
        lower=estimate - half,
        upper=estimate + half,
    )
