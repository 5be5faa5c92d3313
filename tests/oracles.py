"""Brute-force reference implementations shared by the unit and acceptance suites.

Everything here recomputes quantities from their definitions with plain
loops and dense arrays: no sparse matrices, no shared code paths with the
package internals they are used to check.
"""

import numpy as np
from scipy.linalg import solve_triangular

from ppfilt.objective import Coefficients, gradient, penalized_nll
from ppfilt.splines import basis_eval_matrix


def binned_filter_value(delta, g_row, lag):
    """Left-bin-edge evaluation with the closed last bin, by linear scan."""
    if lag <= 0 or lag > delta.support:
        return 0.0
    if lag == delta.support:
        return g_row[-1]
    for k in range(delta.n_bins):
        if delta.points[k] <= lag < delta.points[k + 1]:
            return g_row[k]
    raise AssertionError("unreachable")


def brute_force_xi(trial, grid, delta, channels, g_values, beta0):
    """Double sum over channels and events; no sparse matrices involved."""
    xi = np.full(grid.n + 1, float(beta0))
    for l, t_l in enumerate(grid.points):
        for i, ch in enumerate(channels):
            for sigma in trial.events[ch]:
                if sigma < t_l:
                    xi[l] += binned_filter_value(delta, g_values[i], t_l - sigma)
    return xi


def brute_force_nll(trial, grid, delta, channels, g_values, beta0, link):
    """Term-by-term Riemann sum and jump sum."""
    xi = brute_force_xi(trial, grid, delta, channels, g_values, beta0)
    total = 0.0
    for l in range(1, grid.n + 1):
        total += link.phi(xi[l])[0] * (grid.points[l] - grid.points[l - 1])
    for l in grid.jump_indices:
        total -= link.log_phi(xi[l])
    return total


def spec_filter_values(spec, beta):
    """Binned filter evaluations per channel for either parametrization."""
    beta = np.atleast_2d(beta)
    if spec.mode == "direct":
        return beta @ spec.factor.factor.T
    beta0_coefs = solve_triangular(spec.basis_factor.factor.T, beta.T, lower=False).T
    b_eval = basis_eval_matrix(spec.basis, spec.delta.bin_lags)
    return beta0_coefs @ b_eval.T


def finite_difference_gradient(ctx, coef, h_scale=1e-6):
    """Central differences of the penalized objective, coordinate by coordinate."""
    x = coef.pack()
    p, q = ctx.spec.n_channels, ctx.spec.q
    out = np.empty_like(x)
    for i in range(len(x)):
        h = h_scale * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = penalized_nll(ctx, Coefficients.unpack(xp, p, q))
        fm = penalized_nll(ctx, Coefficients.unpack(xm, p, q))
        out[i] = (fp - fm) / (2 * h)
    return out


def analytic_gradient_vector(ctx, coef):
    d0, dbeta = gradient(ctx, coef)
    return np.concatenate([[d0], dbeta.ravel()])


def merge_loop_time_grid(trial, target, base_n):
    """The element-by-element merge of the uniform grid and the target events."""
    from ppfilt.events import MERGE_TOL, TimeGrid

    uniform = np.linspace(0.0, trial.t_end, base_n + 1)
    taus = trial.events[target]
    points, is_jump = [], []
    iu, ie = 0, 0
    while iu < len(uniform) or ie < len(taus):
        if ie >= len(taus):
            points.append(uniform[iu])
            is_jump.append(False)
            iu += 1
        elif iu >= len(uniform):
            points.append(taus[ie])
            is_jump.append(True)
            ie += 1
        else:
            u, tau = uniform[iu], taus[ie]
            interior = 0 < iu < len(uniform) - 1
            if interior and abs(u - tau) <= MERGE_TOL:
                points.append(tau)  # event value wins the merge
                is_jump.append(True)
                iu += 1
                ie += 1
            elif u <= tau:
                points.append(u)
                is_jump.append(False)
                iu += 1
            else:
                points.append(tau)
                is_jump.append(True)
                ie += 1
    pts = np.asarray(points)
    deltas = np.diff(pts)
    if np.any(deltas <= 0.0):
        raise ValueError("grid spacings must be positive")
    return TimeGrid(pts, deltas, np.flatnonzero(np.asarray(is_jump)))


def triplet_lag_counts(trial, grid, delta, channels):
    """H by one window per event, assembled through from_triplets."""
    from ppfilt.sparse import from_triplets

    points = grid.points
    support = delta.support
    rows_out, cols_out = [], []
    for chan_pos, channel in enumerate(channels):
        for sigma in trial.events[channel]:
            lo = np.searchsorted(points, sigma, side="right")
            hi = np.searchsorted(points, sigma + support, side="right")
            while hi < len(points) and points[hi] - sigma <= support:
                hi += 1
            if lo >= hi:
                continue
            rows = np.arange(lo, hi)
            lags = points[lo:hi] - sigma
            ok = (lags > 0.0) & (lags <= support)
            rows, lags = rows[ok], lags[ok]
            bins = np.searchsorted(delta.points, lags, side="right") - 1
            bins[lags == support] = delta.n_bins - 1
            rows_out.append(rows)
            cols_out.append(chan_pos * delta.n_bins + bins)
    rows = np.concatenate(rows_out) if rows_out else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols_out) if cols_out else np.empty(0, dtype=np.int64)
    return from_triplets(grid.n + 1, len(channels) * delta.n_bins, (rows, cols, np.ones(len(rows))))


def loop_build_z(h, basis_eval, n_channels):
    """Z from H by a loop over lag bins, assembled through from_triplets."""
    from ppfilt.sparse import from_triplets

    n_bins, q = basis_eval.shape
    if h.ncols != n_channels * n_bins:
        raise ValueError("H column count does not match channels x bins")
    h_rows = np.repeat(np.arange(h.nrows), np.diff(h.row_ptr))
    chan = h.col_idx // n_bins
    bins = h.col_idx % n_bins
    rows_out, cols_out, vals_out = [], [], []
    # expand every H entry through the <= 4 nonzeros of its bin's basis row
    nz_cols = [np.flatnonzero(basis_eval[k]) for k in range(n_bins)]
    order = np.argsort(bins, kind="stable")
    sorted_bins = bins[order]
    group_starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_bins)) + 1, [len(sorted_bins)]]
    )
    for g in range(len(group_starts) - 1):
        sel = order[group_starts[g] : group_starts[g + 1]]
        if len(sel) == 0:
            continue
        k = int(bins[sel[0]])
        js = nz_cols[k]
        if len(js) == 0:
            continue
        bvals = basis_eval[k, js]
        rows_out.append(np.repeat(h_rows[sel], len(js)))
        cols_out.append(
            (chan[sel][:, None] * q + js[None, :]).ravel()
        )
        vals_out.append((h.values[sel][:, None] * bvals[None, :]).ravel())
    if rows_out:
        rows = np.concatenate(rows_out)
        cols = np.concatenate(cols_out)
        vals = np.concatenate(vals_out)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0)
    return from_triplets(h.nrows, n_channels * q, (rows, cols, vals))


def keysort_coordinate_counts(nrows, ncols, rows, cols):
    """Pair counts by one sort of the keys r * ncols + c, written straight into CSR."""
    from ppfilt.sparse import SparseCsr

    keys = np.sort(np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys)).astype(np.float64)
    keys = keys[starts]
    row_ptr = np.searchsorted(keys, np.arange(nrows + 1, dtype=np.int64) * ncols)
    return SparseCsr(
        nrows, ncols, row_ptr.astype(np.int32), (keys % ncols).astype(np.int32), counts
    )


def concat_vstack(blocks):
    """Row groups stacked by concatenating the CSR arrays and offsetting row_ptr."""
    from ppfilt.sparse import SparseCsr

    ptr = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for b in blocks:
        ptr.append(b.row_ptr[1:].astype(np.int64) + offset)
        offset += b.nnz
    return SparseCsr(
        sum(b.nrows for b in blocks),
        blocks[0].ncols,
        np.concatenate(ptr).astype(np.int32),
        np.concatenate([b.col_idx for b in blocks]),
        np.concatenate([b.values for b in blocks]),
    )
