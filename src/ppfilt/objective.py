"""Discretized penalized negative log-likelihood, its exact gradient and Hessian.

With xi the linear predictor on the grid, the value is

    sum_l phi(xi_l) Delta_l  -  sum_{l in jumps} log phi(xi_l)  (+ penalty),

a right Riemann sum over l = 1..n per trial, summed over trials.  Both
parametrizations are one linear map: each channel's coefficient block beta_i
enters the design through FilterSpec.block_map M, so xi = beta0 + design
(M beta_i)_i, with M = U (direct, design H) or V^-T (basis, design Z).  They
share one weight vector

    w_l = phi'(xi_l) Delta_l  -  [l in jumps] phi'(xi_l) / phi(xi_l),

from which the baseline gradient is sum_l w_l and the filter-block gradients
are M^T (design^T w)_i + 2 lambda beta_i.  The baseline is never penalized.
One value-and-gradient evaluation forms xi once: one product with the design
and one with its transpose.

The Hessian is sum_l h_l x_l x_l^T over the working-design rows x_l =
[1, design row mapped through M], plus 2 lambda on the filter diagonal, with

    h_l = phi''(xi_l) Delta_l  +  [l in jumps] (-log phi)''(xi_l)  >=  0,

as phi is convex and log phi concave for every link family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsyrk

from .design import DeltaGrid, ModelMatrices
from .kernels import GramFactor, Kernel
from .links import LinkFunction
from .sparse import SparseCsr, spmv, spmv_t, vstack
from .splines import BasisGramFactor, SplineBasis, basis_eval_matrix

# bytes of one dense chunk of working-design rows in _weighted_gram
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Shared filter parametrization: kernel factor (direct) or spline basis.

    ``block_map`` is the (design block width, q) matrix that takes one
    channel's coefficient block to its working coefficients on the design:
    U (direct) or V^-T (basis, formed once by triangular solves against the
    identity).  ``curve_map`` is the (N, q) matrix that takes a block to the
    filter values at the bin lags: U, or B V^-T with B the basis evaluations.
    """

    mode: str
    n_channels: int
    delta: DeltaGrid
    kernel: Kernel | None = None
    factor: GramFactor | None = None
    basis: SplineBasis | None = None
    basis_factor: BasisGramFactor | None = None
    block_map: np.ndarray = field(init=False, repr=False)
    curve_map: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode == "direct":
            if self.factor is None:
                raise ValueError("direct mode requires a Gram factor")
            if self.factor.n_points != self.delta.n_bins:
                raise ValueError("Gram factor size must match the number of lag bins")
            block_map = curve_map = self.factor.factor
        elif self.mode == "basis":
            if self.basis is None or self.basis_factor is None:
                raise ValueError("basis mode requires a basis and its Gram factor")
            block_map = self.basis_factor.expansion_coefs(np.eye(self.basis.q))
            curve_map = basis_eval_matrix(self.basis, self.delta.bin_lags) @ block_map
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "block_map", block_map)
        object.__setattr__(self, "curve_map", curve_map)

    @property
    def q(self) -> int:
        return self.block_map.shape[1]

    @property
    def support(self) -> float:
        return self.delta.support

    @property
    def design_block_width(self) -> int:
        return self.block_map.shape[0]

    @property
    def design_dim(self) -> int:
        return self.n_channels * self.design_block_width


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


def linear_predictor(ctx: ObjectiveContext, coef: Coefficients) -> np.ndarray:
    """xi over all stacked grid rows: beta0 + design @ mapped coefficient blocks."""
    xi = np.full(ctx.n_rows, coef.beta0)
    if ctx.spec.n_channels and ctx.design.nnz:
        xi += spmv(ctx.design, (np.atleast_2d(coef.beta) @ ctx.spec.block_map.T).ravel())
    return xi


def _nll_at(ctx: ObjectiveContext, xi: np.ndarray, values: np.ndarray) -> float:
    """Unpenalized nll from xi and phi(xi); +inf signals an invalid point."""
    integral = float(values @ ctx.delta_pad)
    jump_term = float(np.sum(ctx.link.log_phi(xi[ctx.jump_idx])))
    total = integral - jump_term
    return total if np.isfinite(total) else np.inf


def _gradient_at(
    ctx: ObjectiveContext, coef: Coefficients, xi: np.ndarray, derivs: np.ndarray
) -> tuple[float, np.ndarray]:
    """(d beta0, d beta) of the penalized objective from xi and phi'(xi)."""
    ratio = ctx.link.phi_ratio(xi[ctx.jump_idx])
    w = derivs * ctx.delta_pad
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(ratio))):
        raise ValueError("gradient evaluated at a point with +inf objective")
    np.subtract.at(w, ctx.jump_idx, ratio)
    spec = ctx.spec
    blocks = spmv_t(ctx.design, w).reshape(spec.n_channels, spec.design_block_width)
    return float(np.sum(w)), blocks @ spec.block_map + 2.0 * ctx.lam * coef.beta


def nll(ctx: ObjectiveContext, coef: Coefficients) -> float:
    """Unpenalized discretized negative log-likelihood; +inf signals an invalid point."""
    xi = linear_predictor(ctx, coef)
    return _nll_at(ctx, xi, ctx.link.phi(xi)[0])


def penalized_nll(ctx: ObjectiveContext, coef: Coefficients) -> float:
    return nll(ctx, coef) + ctx.lam * coef.penalty_norm2()


def gradient(ctx: ObjectiveContext, coef: Coefficients) -> tuple[float, np.ndarray]:
    """(d beta0, d beta) of the penalized objective."""
    xi = linear_predictor(ctx, coef)
    return _gradient_at(ctx, coef, xi, ctx.link.phi(xi)[1])


def penalized_value_and_grad(ctx: ObjectiveContext, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """Flat-vector objective interface for the optimizer; xi is formed once."""
    coef = Coefficients.unpack(vec, ctx.spec.n_channels, ctx.spec.q)
    xi = linear_predictor(ctx, coef)
    values, derivs = ctx.link.phi(xi)
    value = _nll_at(ctx, xi, values) + ctx.lam * coef.penalty_norm2()
    if not np.isfinite(value):
        return np.inf, np.full_like(np.asarray(vec, dtype=np.float64), np.nan)
    d0, dbeta = _gradient_at(ctx, coef, xi, derivs)
    return value, np.concatenate([[d0], dbeta.ravel()])


def _weighted_gram(ctx: ObjectiveContext, weights: np.ndarray) -> np.ndarray:
    """sum_l weights_l x_l x_l^T over the working-design rows x_l, for weights >= 0.

    The rows are formed a chunk of fixed byte size at a time: the chunk's
    design rows, sliced from the scipy CSR matrix, times block_map, one
    sparse-by-dense product per channel block, so the design is never
    densified.  One chunk buffer is reused: filled with x_l, scaled in place
    by sqrt(weights_l) and added by a rank-k update of the upper triangle.
    """
    if np.any(weights < 0):
        raise ValueError("Gram weights must be nonnegative")
    spec = ctx.spec
    width, q = spec.block_map.shape
    dim = 1 + spec.n_channels * q
    step = min(ctx.n_rows, max(1, _CHUNK_BYTES // (8 * dim)))
    buf = np.empty((step, dim))
    roots = np.sqrt(weights)
    gram = np.zeros((dim, dim), order="F")
    for lo in range(0, ctx.n_rows, step):
        hi = min(lo + step, ctx.n_rows)
        chunk = buf[: hi - lo]
        chunk[:, 0] = 1.0
        rows = ctx.design.csr[lo:hi]
        for i in range(spec.n_channels):
            block = rows[:, i * width : (i + 1) * width]
            chunk[:, 1 + i * q : 1 + (i + 1) * q] = block @ spec.block_map
        chunk *= roots[lo:hi, None]
        # chunk.T is Fortran-ordered (dim, rows), so BLAS reads the buffer without a copy
        gram = dsyrk(1.0, chunk.T, beta=1.0, c=gram, overwrite_c=1)
    gram = np.triu(gram)
    return gram + np.triu(gram, 1).T


def penalized_hessian(ctx: ObjectiveContext, vec: np.ndarray) -> np.ndarray:
    """Exact Hessian of the penalized objective at the flat coefficient vector."""
    coef = Coefficients.unpack(vec, ctx.spec.n_channels, ctx.spec.q)
    xi = linear_predictor(ctx, coef)
    weights = ctx.link.curvature(xi)[0] * ctx.delta_pad
    np.add.at(weights, ctx.jump_idx, ctx.link.curvature(xi[ctx.jump_idx])[1])
    if not np.all(np.isfinite(weights)):
        raise ValueError("Hessian evaluated at a point with +inf objective")
    hess = _weighted_gram(ctx, weights)
    hess[1:, 1:][np.diag_indices(len(hess) - 1)] += 2.0 * ctx.lam
    return hess


def reconstruct_filter(spec: FilterSpec, beta_block: np.ndarray) -> np.ndarray:
    """Filter values at the bin lags delta_0 .. delta_{N-1} for one channel block."""
    beta_block = np.asarray(beta_block, dtype=np.float64)
    if beta_block.shape != (spec.q,):
        raise ValueError(f"expected block of length {spec.q}")
    return spec.curve_map @ beta_block
