"""Cubic B-spline basis on [0, A]: evaluation, design rows, and basis Gram.

Evaluation uses the standard triangular recurrence over the knot span, so a
point touches at most degree + 1 = 4 basis functions.  The basis Gram can use
either the same inner product as the second-order Sobolev kernel or the bare
curvature seminorm; the latter leaves affine functions unpenalized up to a
negligible diagonal ridge that keeps the factor invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

DEGREE = 3
GAUSS_NODES = 32
AFFINE_RIDGE_REL = 1e-8


@dataclass(frozen=True)
class SplineBasis:
    """q cubic B-splines on [0, support] with uniform interior knots."""

    knots: np.ndarray
    q: int

    @property
    def degree(self) -> int:
        return DEGREE

    @property
    def support(self) -> float:
        return float(self.knots[-1])


def make_basis(support: float, q: int) -> SplineBasis:
    if q < DEGREE + 1:
        raise ValueError(f"need at least {DEGREE + 1} basis functions")
    if support <= 0:
        raise ValueError("support must be positive")
    breaks = np.linspace(0.0, support, q - DEGREE + 1)
    knots = np.concatenate([np.zeros(DEGREE), breaks, np.full(DEGREE, support)])
    return SplineBasis(knots=knots, q=q)


def _find_span(basis: SplineBasis, x: np.ndarray) -> np.ndarray:
    m = np.searchsorted(basis.knots, x, side="right") - 1
    return np.clip(m, DEGREE, basis.q - 1)


def _basis_funs(basis: SplineBasis, span: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """Values of the p-degree functions B_{span-p..span,p} at x; shape (len(x), p+1)."""
    t = basis.knots
    npts = len(x)
    vals = np.zeros((npts, p + 1))
    vals[:, 0] = 1.0
    left = np.zeros((npts, p + 1))
    right = np.zeros((npts, p + 1))
    for j in range(1, p + 1):
        left[:, j] = x - t[span + 1 - j]
        right[:, j] = t[span + j] - x
        saved = np.zeros(npts)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            temp = np.where(denom != 0.0, vals[:, r] / np.where(denom == 0.0, 1.0, denom), 0.0)
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    return vals


def _raise_derivative(
    basis: SplineBasis, span: np.ndarray, lower: np.ndarray, p: int
) -> np.ndarray:
    """Map B^{(k)} values of degree p-1 (p of them) to B^{(k+1)} of degree p (p+1 of them)."""
    t = basis.knots
    npts, out = len(span), np.zeros((len(span), p + 1))
    padded = np.zeros((npts, p + 2))
    padded[:, 1 : p + 1] = lower
    for r in range(p + 1):
        j = span - p + r
        d1 = t[j + p] - t[j]
        d2 = t[j + p + 1] - t[j + 1]
        term1 = np.where(d1 != 0.0, padded[:, r] / np.where(d1 == 0.0, 1.0, d1), 0.0)
        term2 = np.where(d2 != 0.0, padded[:, r + 1] / np.where(d2 == 0.0, 1.0, d2), 0.0)
        out[:, r] = p * (term1 - term2)
    return out


def eval_compact(basis: SplineBasis, x: np.ndarray, order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(first column index, 4 values per point) for the derivative of given order."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x < 0.0) or np.any(x > basis.support):
        raise ValueError("evaluation point outside [0, support]")
    span = _find_span(basis, x)
    if order == 0:
        vals = _basis_funs(basis, span, x, DEGREE)
    elif order == 1:
        vals = _raise_derivative(basis, span, _basis_funs(basis, span, x, 2), DEGREE)
    elif order == 2:
        quad_d1 = _raise_derivative(basis, span, _basis_funs(basis, span, x, 1), 2)
        vals = _raise_derivative(basis, span, quad_d1, DEGREE)
    else:
        raise ValueError("order must be 0, 1 or 2")
    return span - DEGREE, vals


def basis_eval_matrix(basis: SplineBasis, grid: np.ndarray, order: int = 0) -> np.ndarray:
    """Dense (len(grid), q) matrix of basis (derivative) values; <= 4 nonzeros per row."""
    grid = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    first, vals = eval_compact(basis, grid, order)
    out = np.zeros((len(grid), basis.q))
    rows = np.arange(len(grid))[:, None]
    cols = first[:, None] + np.arange(DEGREE + 1)[None, :]
    out[rows, cols] = vals
    return out


@dataclass(frozen=True)
class BasisGramFactor:
    """Basis Gram G = V V^T with lower-triangular V; V-inverse is applied by solves.

    FilterSpec solves against the identity once to form V^-T, so the solves
    are not on the likelihood path.
    """

    gram: np.ndarray
    factor: np.ndarray
    ridge: float = 0.0
    jitter: float = 0.0

    @property
    def q(self) -> int:
        return self.gram.shape[0]

    def expansion_coefs(self, beta: np.ndarray) -> np.ndarray:
        """Euclidean coefficients -> basis expansion coefficients (solve V^T x = beta)."""
        return solve_triangular(self.factor, np.asarray(beta, dtype=np.float64), lower=True, trans="T")


def basis_gram(basis: SplineBasis, inner_product: str = "second_derivative") -> BasisGramFactor:
    """Gram of the basis under the chosen inner product, Cholesky-factorized.

    Entries are computed by per-interval Gauss-Legendre quadrature (exact for
    the piecewise-polynomial integrands here, with margin).
    """
    if inner_product not in ("sobolev2", "second_derivative"):
        raise ValueError(f"unknown inner product {inner_product!r}")
    t = basis.knots
    breaks = np.unique(t)
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * nodes)
        ws.append(half * weights)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    d2 = basis_eval_matrix(basis, x, order=2)
    if not np.all(np.isfinite(d2)):
        raise FloatingPointError("non-finite quadrature values")
    gram = d2.T @ (d2 * w[:, None])
    gram = 0.5 * (gram + gram.T)
    ridge = 0.0
    if inner_product == "sobolev2":
        b0 = basis_eval_matrix(basis, np.array([0.0]), order=0)[0]
        b1 = basis_eval_matrix(basis, np.array([0.0]), order=1)[0]
        gram = gram + np.outer(b0, b0) + np.outer(b1, b1)
    else:
        ridge = AFFINE_RIDGE_REL * np.trace(gram) / basis.q
        gram = gram + ridge * np.eye(basis.q)
    jitter = 0.0
    for _ in range(4):
        try:
            factor = np.linalg.cholesky(gram + jitter * np.eye(basis.q))
            return BasisGramFactor(gram=gram, factor=factor, ridge=ridge, jitter=jitter)
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if jitter > 0 else 1e-12 * np.trace(gram) / basis.q
    raise np.linalg.LinAlgError("basis Gram factorization failed after jitter escalation")

