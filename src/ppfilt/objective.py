"""Discretized penalized negative log-likelihood and its exact gradient.

With xi the linear predictor on the grid, the value is

    sum_l phi(xi_l) Delta_l  -  sum_{l in jumps} log phi(xi_l)  (+ penalty),

a right Riemann sum over l = 1..n per trial, summed over trials.  Both
parametrizations share one weight vector

    w_l = phi'(xi_l) Delta_l  -  [l in jumps] phi'(xi_l) / phi(xi_l),

from which the baseline gradient is sum_l w_l and the filter-block gradients
are U^T (H^T w)_i + 2 lambda beta_i (direct) or the triangular-solve image of
(Z^T w)_i plus the same ridge term (basis).  The baseline is never penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .design import DeltaGrid, ModelMatrices
from .kernels import GramFactor, Kernel
from .links import LinkFunction
from .sparse import SparseCsr, spmv, spmv_t, vstack
from .splines import BasisGramFactor, SplineBasis, basis_eval_matrix


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Shared filter parametrization: kernel factor (direct) or spline basis."""

    mode: str
    n_channels: int
    delta: DeltaGrid
    kernel: Kernel | None = None
    factor: GramFactor | None = None
    basis: SplineBasis | None = None
    basis_factor: BasisGramFactor | None = None

    def __post_init__(self) -> None:
        if self.mode == "direct":
            if self.factor is None:
                raise ValueError("direct mode requires a Gram factor")
            if self.factor.n_points != self.delta.n_bins:
                raise ValueError("Gram factor size must match the number of lag bins")
        elif self.mode == "basis":
            if self.basis is None or self.basis_factor is None:
                raise ValueError("basis mode requires a basis and its Gram factor")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def q(self) -> int:
        return self.factor.rank if self.mode == "direct" else self.basis.q

    @property
    def support(self) -> float:
        return self.delta.support

    @property
    def design_block_width(self) -> int:
        return self.delta.n_bins if self.mode == "direct" else self.basis.q

    @property
    def design_dim(self) -> int:
        return self.n_channels * self.design_block_width

    def expand_coef(self, beta: np.ndarray) -> np.ndarray:
        """Per-channel working coefficients, stacked channel-major.

        direct: lag-bin evaluations U beta_i; basis: expansion coefficients
        obtained by a triangular solve against the Gram factor.
        """
        beta = np.atleast_2d(beta)
        if self.n_channels == 0:
            return np.empty(0)
        if self.mode == "direct":
            return (beta @ self.factor.factor.T).ravel()
        return self.basis_factor.expansion_coefs(beta.T).T.ravel()

    def pull_back(self, blocks: np.ndarray) -> np.ndarray:
        """Adjoint of expand_coef on per-channel blocks, shape (p, q) out."""
        if self.n_channels == 0:
            return np.zeros((0, self.q))
        blocks = blocks.reshape(self.n_channels, self.design_block_width)
        if self.mode == "direct":
            return blocks @ self.factor.factor
        return self.basis_factor.pull_gradient(blocks.T).T

    def design_map(self) -> np.ndarray:
        """(design block width, q) matrix M of the per-channel map in expand_coef.

        expand_coef applies M to each channel block, so a design block times M
        is that channel's block of the working design: U (direct) or V^-T
        (basis, from one set of triangular solves against the identity).
        """
        if self.mode == "direct":
            return self.factor.factor
        return self.basis_factor.expansion_coefs(np.eye(self.q))

    def lag_curve_matrix(self) -> np.ndarray:
        """(N, q) map from a coefficient block to filter values at the bin lags.

        Basis mode composes the expansion-coefficient map with the basis
        evaluations: curve = B (V^-T beta), so the matrix is B V^-T, i.e. the
        transpose of V^-1 B^T.
        """
        if self.mode == "direct":
            return self.factor.factor
        b_eval = basis_eval_matrix(self.basis, self.delta.bin_lags)
        return self.basis_factor.pull_gradient(b_eval.T).T


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Baseline plus p coefficient blocks of length q."""

    beta0: float
    beta: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate([[self.beta0], np.asarray(self.beta).ravel()])

    @staticmethod
    def unpack(vec: np.ndarray, n_channels: int, q: int) -> "Coefficients":
        vec = np.asarray(vec, dtype=np.float64)
        return Coefficients(beta0=float(vec[0]), beta=vec[1:].reshape(n_channels, q))

    def penalty_norm2(self) -> float:
        return float(np.sum(np.asarray(self.beta) ** 2))


class ObjectiveContext:
    """Stacked per-trial design matrices plus link, penalty and filter spec.

    Trials are stacked as consecutive row groups; ``row_offsets`` records the
    group boundaries, jump indices are global row indices, and the Riemann
    weights carry a zero at each trial's first row so t_0 never contributes.
    Instances are immutable in practice and safe to share between concurrent
    evaluations.
    """

    def __init__(
        self,
        matrices: list[ModelMatrices],
        link: LinkFunction,
        lam: float,
        spec: FilterSpec,
    ) -> None:
        if lam < 0:
            raise ValueError("penalty must be nonnegative")
        if not matrices:
            raise ValueError("need at least one trial")
        blocks = []
        deltas = []
        jumps = []
        offsets = [0]
        for m in matrices:
            mat = m.h if spec.mode == "direct" else m.z
            if mat is None:
                raise ValueError(f"trial matrices missing {spec.mode}-mode design")
            if mat.ncols != spec.design_dim:
                raise ValueError("design width does not match the filter spec")
            blocks.append(mat)
            deltas.append(np.concatenate([[0.0], m.grid.deltas]))
            jumps.append(m.grid.jump_indices + offsets[-1])
            offsets.append(offsets[-1] + mat.nrows)
        self.matrices = matrices
        self.link = link
        self.lam = float(lam)
        self.spec = spec
        self.design: SparseCsr = blocks[0] if len(blocks) == 1 else vstack(blocks)
        self.delta_pad = np.concatenate(deltas)
        self.jump_idx = np.concatenate(jumps).astype(np.int64)
        self.row_offsets = np.asarray(offsets)
        self.total_time = float(sum(m.grid.t_end for m in matrices))

    @property
    def n_rows(self) -> int:
        return self.design.nrows

    @property
    def n_jumps(self) -> int:
        return len(self.jump_idx)

    def trial_slice(self, idx: int) -> slice:
        return slice(self.row_offsets[idx], self.row_offsets[idx + 1])


def linear_predictor(ctx: ObjectiveContext, coef: Coefficients) -> np.ndarray:
    """xi over all stacked grid rows: beta0 + design @ expanded coefficients."""
    xi = np.full(ctx.n_rows, coef.beta0)
    if ctx.spec.n_channels and ctx.design.nnz:
        xi += spmv(ctx.design, ctx.spec.expand_coef(coef.beta))
    return xi


def nll(ctx: ObjectiveContext, coef: Coefficients) -> float:
    """Unpenalized discretized negative log-likelihood; +inf signals an invalid point."""
    xi = linear_predictor(ctx, coef)
    values, _ = ctx.link.phi(xi)
    integral = float(values @ ctx.delta_pad)
    jump_term = float(np.sum(ctx.link.log_phi(xi[ctx.jump_idx])))
    total = integral - jump_term
    return total if np.isfinite(total) else np.inf


def penalized_nll(ctx: ObjectiveContext, coef: Coefficients) -> float:
    return nll(ctx, coef) + ctx.lam * coef.penalty_norm2()


def _weights(ctx: ObjectiveContext, xi: np.ndarray) -> np.ndarray:
    _, derivs = ctx.link.phi(xi)
    ratio = ctx.link.phi_ratio(xi[ctx.jump_idx])
    w = derivs * ctx.delta_pad
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(ratio))):
        raise ValueError("gradient evaluated at a point with +inf objective")
    np.subtract.at(w, ctx.jump_idx, ratio)
    return w


def gradient(ctx: ObjectiveContext, coef: Coefficients) -> tuple[float, np.ndarray]:
    """(d beta0, d beta) of the penalized objective."""
    xi = linear_predictor(ctx, coef)
    w = _weights(ctx, xi)
    d_beta0 = float(np.sum(w))
    if ctx.spec.n_channels == 0:
        return d_beta0, np.zeros((0, ctx.spec.q))
    pulled = ctx.spec.pull_back(spmv_t(ctx.design, w))
    return d_beta0, pulled + 2.0 * ctx.lam * coef.beta


def penalized_value_and_grad(ctx: ObjectiveContext, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """Flat-vector objective interface for the optimizer."""
    coef = Coefficients.unpack(vec, ctx.spec.n_channels, ctx.spec.q)
    value = penalized_nll(ctx, coef)
    if not np.isfinite(value):
        return np.inf, np.full_like(np.asarray(vec, dtype=np.float64), np.nan)
    d0, dbeta = gradient(ctx, coef)
    return value, np.concatenate([[d0], dbeta.ravel()])


def reconstruct_filter(spec: FilterSpec, beta_block: np.ndarray) -> np.ndarray:
    """Filter values at the bin lags delta_0 .. delta_{N-1} for one channel block."""
    beta_block = np.asarray(beta_block, dtype=np.float64)
    if beta_block.shape != (spec.q,):
        raise ValueError(f"expected block of length {spec.q}")
    return spec.lag_curve_matrix() @ beta_block
