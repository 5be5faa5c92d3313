"""Lag binning and sparse design matrices for the discretized likelihood.

For grid time t_l and input channel i, entry (l, i*N + k) of H counts the
channel-i events whose lag t_l - sigma falls in [delta_k, delta_{k+1});
an event exactly at t_l contributes nothing (non-anticipation), and a lag of
exactly A lands in the last bin.  Z carries the same counts pushed through
the basis evaluations at the bin lags, Z = H blockdiag(B, ..., B), formed
as one scipy sparse product.  Column blocks are channel-major.
Binning compares lags in exact floating point.

H is assembled without a per-event loop: for each channel, the row windows
of all events come from one searchsorted over the grid, the (event, row)
pairs are laid out with np.repeat, their lags binned by one searchsorted
into the lag grid, and the pairs counted into CSR by one scipy COO-to-CSR
conversion.  A lag bin holding more than one event of a channel at one
grid time gives a count above 1; multi_hit_count reports how many.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import TimeGrid, Trial
from .sparse import SparseCsr, _scipy_result, from_coordinate_counts, from_triplets
from .splines import SplineBasis, eval_compact

# Last on purpose: importing scipy.sparse before .events made a cold
# `import ppfilt.cli` about 35 ms slower (2-vCPU machine).
import scipy.sparse as sp


@dataclass(frozen=True)
class DeltaGrid:
    """Lag grid 0 = delta_0 < ... < delta_N = A; bins are the N gaps."""

    points: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.points) - 1

    @property
    def support(self) -> float:
        return float(self.points[-1])

    @property
    def bin_lags(self) -> np.ndarray:
        """delta_0 .. delta_{N-1}: the lags at which filters are evaluated."""
        return self.points[:-1]


def make_delta_grid(support: float, n_bins: int) -> DeltaGrid:
    if n_bins < 2:
        raise ValueError("need at least 2 lag bins")
    return DeltaGrid(points=np.linspace(0.0, support, n_bins + 1))


@dataclass(frozen=True)
class ModelMatrices:
    """Per-trial precomputations consumed by the objective (H and/or Z)."""

    grid: TimeGrid
    delta: DeltaGrid
    n_channels: int
    h: SparseCsr | None = None
    z: SparseCsr | None = None


def _window_rows(
    points: np.ndarray, sigma: np.ndarray, support: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row ranges [lo, hi) per event, holding every row with sigma < t_l and t_l - sigma <= support.

    The upper bound from searchsorted on sigma + support can fall short of the
    rows whose rounded lag t_l - sigma is still <= support, so it is padded
    up to them (float-safe upper pad).  It can also overshoot by rows whose
    lag rounds above support; callers drop those by their lag.
    """
    lo = np.searchsorted(points, sigma, side="right")
    hi = np.searchsorted(points, sigma + support, side="right")
    pad = hi < len(points)
    pad[pad] = points[hi[pad]] - sigma[pad] <= support
    while np.any(pad):
        hi[pad] += 1
        pad &= hi < len(points)
        pad[pad] = points[hi[pad]] - sigma[pad] <= support
    return lo, hi


def build_h(
    trial: Trial, grid: TimeGrid, delta: DeltaGrid, channels: list[str]
) -> SparseCsr:
    """Sparse (n+1) x (p*N) lag-count matrix for one trial.

    One vectorized pass per channel: the row windows of all events, the lag
    of every (event, row) pair in them, one lag-grid search, and the pairs
    counted into CSR.
    """
    n_bins = delta.n_bins
    support = delta.support
    points = grid.points
    rows_out, cols_out = [], []
    for chan_pos, channel in enumerate(channels):
        sigma = trial.events[channel]
        lo, hi = _window_rows(points, sigma, support)
        counts = hi - lo
        event = np.repeat(np.arange(len(sigma)), counts)
        rows = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        lags = points[rows] - sigma[event]
        ok = lags <= support  # rows >= lo already give lags > 0
        rows, lags = rows[ok], lags[ok]
        bins = np.searchsorted(delta.points, lags, side="right") - 1
        bins[lags == support] = n_bins - 1  # closed last bin
        rows_out.append(rows)
        cols_out.append(chan_pos * n_bins + bins)
    empty = np.empty(0, dtype=np.int64)
    return from_coordinate_counts(
        grid.n + 1,
        len(channels) * n_bins,
        np.concatenate(rows_out) if rows_out else empty,
        np.concatenate(cols_out) if cols_out else empty,
    )


def multi_hit_count(h: SparseCsr) -> int:
    """Number of stored lag counts above 1 (grid-fineness diagnostic)."""
    return int(np.count_nonzero(h.values > 1.0))


def build_z(h: SparseCsr, basis_eval: np.ndarray, n_channels: int) -> SparseCsr:
    """Z from H: per channel block, Z_{lj} = sum_k h_{lk} B_j(delta_k), i.e. H blockdiag(B).

    One scipy CSR product with kron(I_p, B) built from the nonzeros of B;
    scipy stores no entry whose sum is exactly zero.
    """
    n_bins, q = basis_eval.shape
    if h.ncols != n_channels * n_bins:
        raise ValueError("H column count does not match channels x bins")
    return _scipy_result(
        h.nrows,
        n_channels * q,
        lambda: h.csr @ sp.kron(sp.eye(n_channels), sp.csr_matrix(basis_eval), format="csr"),
    )


def build_z_direct(
    trial: Trial, grid: TimeGrid, basis: SplineBasis, channels: list[str]
) -> SparseCsr:
    """Z evaluated at exact lags t_l - sigma instead of binned lags."""
    support = basis.support
    q = basis.q
    points = grid.points
    rows_out, cols_out, vals_out = [], [], []
    for chan_pos, channel in enumerate(channels):
        sigmas = trial.events[channel]
        for sigma, lo, hi in zip(sigmas, *_window_rows(points, sigmas, support)):
            if lo >= hi:
                continue
            rows = np.arange(lo, hi)
            lags = points[lo:hi] - sigma
            ok = (lags > 0.0) & (lags <= support)
            rows, lags = rows[ok], lags[ok]
            if len(rows) == 0:
                continue
            first, bvals = eval_compact(basis, lags)
            width = bvals.shape[1]
            rows_out.append(np.repeat(rows, width))
            cols_out.append(
                (chan_pos * q + first[:, None] + np.arange(width)[None, :]).ravel()
            )
            vals_out.append(bvals.ravel())
    if rows_out:
        rows = np.concatenate(rows_out)
        cols = np.concatenate(cols_out)
        vals = np.concatenate(vals_out)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0)
    return from_triplets(grid.n + 1, len(channels) * q, (rows, cols, vals))
