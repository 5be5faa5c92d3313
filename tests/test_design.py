"""Lag binning and model matrices against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from ppfilt.bench import hawkes_like_data
from ppfilt.design import build_h, build_z, make_delta_grid, multi_hit_count
from ppfilt.events import Trial, make_time_grid
from ppfilt.sparse import from_coordinate_counts
from ppfilt.splines import basis_eval_matrix, make_basis

from oracles import exact_lag_z, from_triplets, loop_build_z, triplet_lag_counts


def brute_force_h(trial, grid, delta, channels):
    """Direct triple loop over (row, channel, bin) from the count definition."""
    n_bins = delta.n_bins
    out = np.zeros((grid.n + 1, len(channels) * n_bins))
    for l, t_l in enumerate(grid.points):
        for i, ch in enumerate(channels):
            for sigma in trial.events[ch]:
                if not sigma < t_l:
                    continue
                lag = t_l - sigma
                if lag == delta.support:
                    out[l, i * n_bins + n_bins - 1] += 1
                    continue
                for k in range(n_bins):
                    if delta.points[k] <= lag < delta.points[k + 1]:
                        out[l, i * n_bins + k] += 1
    return out


def assert_same_csr(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    for name in ("row_ptr", "col_idx", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_same_z(got, want):
    """Same sparsity pattern bitwise; values equal up to the order of summation."""
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    for name in ("row_ptr", "col_idx"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    np.testing.assert_allclose(got.values, want.values, rtol=1e-15, atol=0.0)


class TestDeltaGrid:
    def test_fine_grid_spacing(self):
        delta = make_delta_grid(0.4, 200)
        assert delta.points[1] - delta.points[0] == pytest.approx(0.002)
        assert len(delta.points) == 201

    def test_small_grids(self):
        np.testing.assert_allclose(
            make_delta_grid(0.5, 5).points, [0, 0.1, 0.2, 0.3, 0.4, 0.5]
        )
        np.testing.assert_allclose(make_delta_grid(1.0, 2).points, [0, 0.5, 1.0])

    def test_minimum_bins(self):
        with pytest.raises(ValueError):
            make_delta_grid(1.0, 1)


class TestBuildH:
    def test_single_event_bin(self):
        trial = Trial(t_end=1.0, events={"a": [0.3]})
        grid = make_time_grid(trial, "a", base_n=10)
        delta = make_delta_grid(0.5, 5)
        h = build_h(trial, grid, delta, ["a"]).toarray()
        # at t_l = 0.4 the lag 0.1 falls in [0.1, 0.2): bin k = 1
        row = int(np.where(grid.points == 0.4)[0][0])
        assert h[row, 1] == 1.0
        assert h[row].sum() == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            trial = Trial(
                t_end=1.0,
                events={
                    "a": np.unique(rng.uniform(0.01, 0.99, size=6)),
                    "b": np.unique(rng.uniform(0.01, 0.99, size=4)),
                },
            )
            grid = make_time_grid(trial, "a", base_n=17)
            delta = make_delta_grid(0.37, 7)
            h = build_h(trial, grid, delta, ["a", "b"]).toarray()
            np.testing.assert_array_equal(h, brute_force_h(trial, grid, delta, ["a", "b"]))

    def test_non_anticipation(self):
        # event exactly at a grid time contributes nothing to that row
        trial = Trial(t_end=1.0, events={"a": [0.3]})
        grid = make_time_grid(trial, "a", base_n=10)
        delta = make_delta_grid(0.5, 5)
        h = build_h(trial, grid, delta, ["a"]).toarray()
        row = int(np.where(grid.points == 0.3)[0][0])
        assert np.all(h[row] == 0.0)

    def test_closed_last_bin(self):
        # sigma = t_l - A exactly: counted once, in the last bin
        trial = Trial(t_end=1.0, events={"a": [0.25]})
        grid = make_time_grid(trial, "a", base_n=4)  # grid 0, 0.25, 0.5, 0.75, 1
        delta = make_delta_grid(0.5, 4)
        h = build_h(trial, grid, delta, ["a"]).toarray()
        row = int(np.where(grid.points == 0.75)[0][0])
        assert h[row, 3] == 1.0
        assert h[row].sum() == 1.0
        # and one bin width past the support: nothing
        row_past = int(np.where(grid.points == 1.0)[0][0])
        assert np.all(h[row_past] == 0.0)

    def test_row_locality(self):
        # rows depend only on events inside (t_l - A, t_l) plus the closed endpoint
        base = Trial(t_end=2.0, events={"a": [0.4, 1.9]})
        moved = Trial(t_end=2.0, events={"a": [0.4, 1.95]})
        delta = make_delta_grid(0.5, 5)
        grid = make_time_grid(base, "a", base_n=20)
        grid_moved = make_time_grid(moved, "a", base_n=20)
        h = build_h(base, grid, delta, ["a"]).toarray()
        h_moved = build_h(moved, grid_moved, delta, ["a"]).toarray()
        # rows for t_l <= 1.4 see neither late event; identical in both grids
        keep = grid.points <= 1.4
        keep_moved = grid_moved.points <= 1.4
        np.testing.assert_array_equal(h[keep], h_moved[keep_moved])

    @given(
        st.lists(
            st.lists(st.integers(1, 63) | st.floats(0.01, 3.99), max_size=10),
            min_size=2, max_size=2,
        ),
        st.integers(2, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_triplet_builder(self, raw, n_bins):
        # integers are multiples of the 1/16 grid spacing: events on grid points,
        # and lags of exactly A = 1/4 (an exact binary fraction)
        events = {
            ch: np.unique([v / 16.0 if isinstance(v, int) else v for v in vals])
            for ch, vals in zip(("a", "b"), raw)
        }
        trial = Trial(t_end=4.0, events=events)
        grid = make_time_grid(trial, "a", base_n=64)
        delta = make_delta_grid(0.25, n_bins)
        assert_same_csr(
            build_h(trial, grid, delta, ["a", "b"]),
            triplet_lag_counts(trial, grid, delta, ["a", "b"]),
        )

    def test_bitwise_equal_to_triplet_builder_on_hawkes_data(self):
        data = hawkes_like_data(p=3, t_end=40.0, seed=5)
        trial = data.trials[0]
        grid = make_time_grid(trial, "c0", 16000)
        delta = make_delta_grid(0.4, 400)
        h = build_h(trial, grid, delta, data.channels)
        assert multi_hit_count(h) > 0  # duplicates are summed, as by the triplet builder
        assert_same_csr(h, triplet_lag_counts(trial, grid, delta, data.channels))

    def test_no_channels(self):
        trial = Trial(t_end=1.0, events={"a": [0.5]})
        grid = make_time_grid(trial, "a", base_n=4)
        h = build_h(trial, grid, make_delta_grid(0.5, 5), [])
        assert (h.nrows, h.ncols, h.nnz) == (grid.n + 1, 0, 0)

    def test_multi_hit_counter(self):
        trial = Trial(t_end=1.0, events={"a": [0.30, 0.31]})
        grid = make_time_grid(trial, "a", base_n=4)
        coarse = make_delta_grid(0.5, 2)
        h = build_h(trial, grid, coarse, ["a"])
        assert multi_hit_count(h) > 0
        fine = make_delta_grid(0.5, 128)
        h_fine = build_h(trial, grid, fine, ["a"])
        assert multi_hit_count(h_fine) == 0


class TestBuildZ:
    def test_zero_rows_stay_zero(self):
        trial = Trial(t_end=1.0, events={"a": [0.9]})
        grid = make_time_grid(trial, "a", base_n=5)
        delta = make_delta_grid(0.2, 5)
        basis = make_basis(0.2, 5)
        h = build_h(trial, grid, delta, ["a"])
        z = build_z(h, basis_eval_matrix(basis, delta.bin_lags), 1).toarray()
        h_dense = h.toarray()
        zero_rows = ~h_dense.any(axis=1)
        assert np.all(z[zero_rows] == 0.0)

    def test_one_hot_copies_basis_row(self):
        delta = make_delta_grid(0.5, 5)
        basis = make_basis(0.5, 5)
        b_eval = basis_eval_matrix(basis, delta.bin_lags)
        h = from_triplets(3, 5, [(1, 2, 1.0)])
        z = build_z(h, b_eval, 1).toarray()
        np.testing.assert_allclose(z[1], b_eval[2])
        assert np.all(z[[0, 2]] == 0.0)

    def test_matches_dense_triple_loop(self):
        rng = np.random.default_rng(3)
        n_rows, n_bins, q, p = 8, 5, 4, 2
        entries = [
            (int(rng.integers(0, n_rows)), int(rng.integers(0, p * n_bins)), 1.0)
            for _ in range(12)
        ]
        h = from_triplets(n_rows, p * n_bins, entries)
        basis = make_basis(0.5, q)
        b_eval = basis_eval_matrix(basis, make_delta_grid(0.5, n_bins).bin_lags)
        z = build_z(h, b_eval, p).toarray()
        h_dense = h.toarray()
        expected = np.zeros((n_rows, p * q))
        for l in range(n_rows):
            for i in range(p):
                for k in range(n_bins):
                    for j in range(q):
                        expected[l, i * q + j] += h_dense[l, i * n_bins + k] * b_eval[k, j]
        np.testing.assert_allclose(z, expected, rtol=1e-14, atol=1e-14)

    @given(
        st.integers(1, 3),
        st.integers(2, 12),
        st.integers(4, 9),
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 35)), max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_pattern_as_bin_loop(self, p, n_bins, q, pairs):
        # repeated (row, column) pairs give multi-hit counts above 1
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        cols = np.array([c % (p * n_bins) for _, c in pairs], dtype=np.int64)
        h = from_coordinate_counts(16, p * n_bins, rows, cols)
        b_eval = basis_eval_matrix(make_basis(0.5, q), make_delta_grid(0.5, n_bins).bin_lags)
        assert_same_z(build_z(h, b_eval, p), loop_build_z(h, b_eval, p))

    def test_same_pattern_as_bin_loop_on_hawkes_data(self):
        data = hawkes_like_data(p=3, t_end=40.0, seed=5)
        trial = data.trials[0]
        grid = make_time_grid(trial, "c0", 16000)
        delta = make_delta_grid(0.4, 400)
        h = build_h(trial, grid, delta, data.channels)
        assert multi_hit_count(h) > 0
        b_eval = basis_eval_matrix(make_basis(0.4, 33), delta.bin_lags)
        assert_same_z(build_z(h, b_eval, 3), loop_build_z(h, b_eval, 3))

    def test_matches_dense_blockdiag(self):
        rng = np.random.default_rng(12)
        rows, cols = rng.integers(0, 12, 30), rng.integers(0, 12, 30)
        h = from_triplets(12, 3 * 4, (rows, cols, rng.normal(size=30)))
        block_map = rng.normal(size=(4, 2))
        block_map[1, 0] = 0.0
        z = build_z(h, block_map, 3)
        expected = h.toarray() @ block_diag(block_map, block_map, block_map)
        assert (z.nrows, z.ncols) == (12, 6)
        assert z.row_ptr.dtype == z.col_idx.dtype == np.int32
        np.testing.assert_allclose(z.toarray(), expected, rtol=1e-14, atol=1e-15)

    def test_columns_sorted_and_exact_zeros_dropped(self):
        # row 0 cancels to an exact zero; row 1 fills both columns
        h = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 2.0), (1, 0, 1.0)])
        z = build_z(h, np.array([[1.0, 1.0], [-1.0, 3.0]]), 1)
        assert z.row_ptr.tolist() == [0, 1, 3]
        assert z.col_idx.tolist() == [1, 0, 1]
        assert z.values.tolist() == [4.0, -1.0, 7.0]

    def test_no_channels(self):
        z = build_z(from_triplets(3, 0, []), np.ones((4, 2)), 0)
        assert (z.nrows, z.ncols, z.nnz) == (3, 0, 0)

    def test_width_mismatch(self):
        h = from_triplets(2, 10, [])
        basis = make_basis(0.5, 4)
        b_eval = basis_eval_matrix(basis, make_delta_grid(0.5, 4).bin_lags)
        with pytest.raises(ValueError):
            build_z(h, b_eval, 3)


class TestBuildZDirect:
    """Binned Z against Z evaluated at the exact lags (oracles.exact_lag_z)."""

    def test_no_events_zero(self):
        trial = Trial(t_end=1.0, events={"a": []})
        grid = make_time_grid(trial, "a", base_n=6)
        basis = make_basis(0.5, 5)
        delta = make_delta_grid(0.5, 4)
        h = build_h(trial, grid, delta, ["a"])
        assert build_z(h, basis_eval_matrix(basis, delta.bin_lags), 1).nnz == 0
        assert not exact_lag_z(trial, grid, basis, ["a"]).any()

    def test_grid_aligned_events_match_binned(self):
        # power-of-two spacings so lags are exact floats
        trial = Trial(t_end=1.0, events={"a": [0.25, 0.5]})
        grid = make_time_grid(trial, "a", base_n=8)
        delta = make_delta_grid(0.5, 4)
        basis = make_basis(0.5, 5)
        h = build_h(trial, grid, delta, ["a"])
        z_binned = build_z(h, basis_eval_matrix(basis, delta.bin_lags), 1).toarray()
        z_direct = exact_lag_z(trial, grid, basis, ["a"])
        # binned evaluation uses the left bin edge; at exact-lag events the
        # lag IS a bin edge, except lag = A which the closed bin maps to
        # delta_{N-1} while the direct path evaluates at A itself.
        exact = np.abs(z_direct - z_binned)
        lag_half = grid.points[:, None] - np.array([[0.25, 0.5]])
        rows_with_boundary = np.any(lag_half == 0.5, axis=1)
        assert np.max(exact[~rows_with_boundary]) <= 1e-12

    def test_off_grid_gap_bounded_by_lipschitz(self):
        trial = Trial(t_end=1.0, events={"a": [0.237]})
        grid = make_time_grid(trial, "a", base_n=16)
        delta = make_delta_grid(0.5, 8)
        basis = make_basis(0.5, 6)
        h = build_h(trial, grid, delta, ["a"])
        z_binned = build_z(h, basis_eval_matrix(basis, delta.bin_lags), 1).toarray()
        z_direct = exact_lag_z(trial, grid, basis, ["a"])
        fine = np.linspace(0, 0.5, 20_001)
        d1 = basis_eval_matrix(basis, fine, order=1)
        lipschitz = np.abs(d1).max()
        bin_width = 0.5 / 8
        assert np.abs(z_direct - z_binned).max() <= lipschitz * bin_width * (1 + 1e-9)
