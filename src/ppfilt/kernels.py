"""Reproducing kernels on a bounded lag interval and Gram factorizations.

The second-order Sobolev kernel here reproduces the space of twice weakly
differentiable functions on [0, A] under the inner product

    <f, g> = f(0) g(0) + f'(0) g'(0) + integral of f'' g'' over [0, A],

for which R(s, u) = 1 + s u + s u m - (s + u) m^2 / 2 + m^3 / 3 with
m = min(s, u); sections R(delta_k, .) are cubic splines.  Filter support is
truncated at lag A with no boundary constraint imposed at A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SPECTRAL_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Kernel:
    """Symmetric positive semidefinite kernel on [0, support]."""

    family: str = "sobolev2"
    support: float = 1.0
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("sobolev2", "gaussian"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian" and (self.bandwidth is None or self.bandwidth <= 0):
            raise ValueError("gaussian kernel requires a positive bandwidth")
        if self.support <= 0:
            raise ValueError("support must be positive")


def kernel_eval(kernel: Kernel, s, u):
    """Evaluate R(s, u); lags must lie in [0, support]."""
    s = np.asarray(s, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any(s < 0) or np.any(u < 0) or np.any(s > kernel.support) or np.any(u > kernel.support):
        raise ValueError("lag outside [0, support]")
    if kernel.family == "sobolev2":
        m = np.minimum(s, u)
        out = 1.0 + s * u + s * u * m - (s + u) * m**2 / 2.0 + m**3 / 3.0
    else:
        out = np.exp(-((s - u) ** 2) / (2.0 * kernel.bandwidth**2))
    return out if out.ndim else float(out)


def gram_matrix(kernel: Kernel, grid: np.ndarray) -> np.ndarray:
    """Symmetric PSD matrix of pairwise kernel values on a sorted lag grid."""
    grid = np.asarray(grid, dtype=np.float64)
    return kernel_eval(kernel, grid[:, None], grid[None, :])


@dataclass(frozen=True)
class GramFactor:
    """Spectral factorization G ~= U U^T used for the isometric reparametrization.

    ``factor`` is N x q with orthogonal columns: the eigenvectors kept by
    the relative eigenvalue ``threshold``, scaled by sqrt(eigenvalue).
    """

    gram: np.ndarray
    factor: np.ndarray
    rank: int
    threshold: float = 0.0

    @property
    def n_points(self) -> int:
        return self.gram.shape[0]


def _check_symmetric(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.abs(g).max() or 1.0
    if np.abs(g - g.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return g


def spectral_factorize(gram: np.ndarray, threshold: float = DEFAULT_SPECTRAL_THRESHOLD) -> GramFactor:
    """Keep eigenpairs with eigenvalue >= threshold * max eigenvalue; U = Q sqrt(L)."""
    gram = _check_symmetric(gram)
    eigvals, eigvecs = np.linalg.eigh(gram)
    lam_max = eigvals[-1]
    if lam_max <= 0:
        raise ValueError("matrix has no positive eigenvalue")
    keep = eigvals >= threshold * lam_max
    kept_vals = np.maximum(eigvals[keep][::-1], 0.0)
    kept_vecs = eigvecs[:, keep][:, ::-1]
    factor = kept_vecs * np.sqrt(kept_vals)
    return GramFactor(
        gram=gram,
        factor=factor,
        rank=int(keep.sum()),
        threshold=threshold,
    )


def threshold_for_rank(gram: np.ndarray, q: int) -> float:
    """Relative eigenvalue threshold that makes spectral_factorize keep exactly q columns."""
    gram = _check_symmetric(gram)
    eigvals = np.sort(np.linalg.eigvalsh(gram))[::-1]
    if not 1 <= q <= len(eigvals):
        raise ValueError("target rank out of range")
    lam_max = eigvals[0]
    if q == len(eigvals):
        lo = eigvals[-1] / lam_max
        return min(lo, 0.0) if lo <= 0 else lo * 0.5
    hi = eigvals[q - 1] / lam_max
    lo = max(eigvals[q] / lam_max, 0.0)
    if hi <= lo:
        raise ValueError(f"cannot separate rank {q}: repeated eigenvalues")
    return 0.5 * (hi + lo)
