"""Sparse CSR construction, products against dense oracles and memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppfilt import sparse
from ppfilt.design import build_h, build_z, make_delta_grid
from ppfilt.events import Trial, make_time_grid
from ppfilt.sparse import (
    SparseCsr,
    from_coordinate_counts,
    from_triplets,
    memory_footprint,
    spmv,
    spmv_t,
    vstack,
)

from oracles import concat_vstack, keysort_coordinate_counts


def dense_from_triplets(nrows, ncols, entries):
    out = np.zeros((nrows, ncols))
    for r, c, v in entries:
        out[int(r), int(c)] += v
    return out


def random_triplets(rng, nrows, ncols, k):
    rows = rng.integers(0, nrows, size=k)
    cols = rng.integers(0, ncols, size=k)
    vals = rng.normal(size=k)
    return list(zip(rows.tolist(), cols.tolist(), vals.tolist()))


def assert_same_csr(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    for name in ("row_ptr", "col_idx", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.row_ptr.dtype == got.col_idx.dtype == np.int32


@st.composite
def csr_blocks(draw):
    """1-4 random CSR matrices of one width; zero-row and empty blocks included."""
    ncols = draw(st.integers(1, 5))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        nrows = draw(st.integers(0, 5))
        cell = st.tuples(
            st.integers(0, max(nrows - 1, 0)),
            st.integers(0, ncols - 1),
            st.floats(-4.0, 4.0, allow_nan=False),
        )
        entries = draw(st.lists(cell, max_size=12)) if nrows else []
        blocks.append(from_triplets(nrows, ncols, entries))
    return blocks


class TestFromTriplets:
    def test_duplicates_summed(self):
        a = from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 1.0)])
        assert a.nnz == 1
        assert a.values[0] == 2.0

    def test_empty(self):
        a = from_triplets(3, 4, [])
        assert a.nnz == 0
        assert np.all(a.toarray() == 0.0)

    def test_zeros_dropped(self):
        a = from_triplets(2, 2, [(0, 0, 0.0), (1, 1, 2.0), (1, 1, -2.0)])
        assert a.nnz == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_triplets(2, 2, [(2, 0, 1.0)])
        with pytest.raises(ValueError):
            from_triplets(2, 2, [(0, -1, 1.0)])

    def test_matches_dense_accumulation(self):
        rng = np.random.default_rng(7)
        entries = random_triplets(rng, 50, 50, 400)
        a = from_triplets(50, 50, entries)
        np.testing.assert_allclose(a.toarray(), dense_from_triplets(50, 50, entries), rtol=1e-14)

    @given(st.permutations(list(range(12))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, perm):
        rng = np.random.default_rng(3)
        entries = random_triplets(rng, 4, 4, 12)
        base = from_triplets(4, 4, entries)
        shuffled = from_triplets(4, 4, [entries[i] for i in perm])
        np.testing.assert_array_equal(base.values, shuffled.values)
        np.testing.assert_array_equal(base.col_idx, shuffled.col_idx)
        np.testing.assert_array_equal(base.row_ptr, shuffled.row_ptr)

    def test_within_row_columns_sorted(self):
        rng = np.random.default_rng(11)
        a = from_triplets(20, 30, random_triplets(rng, 20, 30, 200))
        for r in range(a.nrows):
            cols = a.col_idx[a.row_ptr[r] : a.row_ptr[r + 1]]
            assert np.all(np.diff(cols) > 0)


class TestProducts:
    def test_identity_pattern(self):
        eye = from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
        x = np.arange(4.0)
        np.testing.assert_array_equal(spmv(eye, x), x)
        np.testing.assert_array_equal(spmv_t(eye, x), x)

    def test_zero_matrix(self):
        zero = from_triplets(3, 5, [])
        assert np.all(spmv(zero, np.ones(5)) == 0.0)
        assert np.all(spmv_t(zero, np.ones(3)) == 0.0)

    def test_spmv_matches_dense(self):
        rng = np.random.default_rng(1)
        entries = random_triplets(rng, 30, 20, 150)
        a = from_triplets(30, 20, entries)
        x = rng.normal(size=20)
        expected = dense_from_triplets(30, 20, entries) @ x
        np.testing.assert_allclose(spmv(a, x), expected, rtol=1e-14, atol=1e-14)

    def test_spmv_t_matches_dense_transpose(self):
        rng = np.random.default_rng(2)
        entries = random_triplets(rng, 30, 20, 150)
        a = from_triplets(30, 20, entries)
        y = rng.normal(size=30)
        expected = dense_from_triplets(30, 20, entries).T @ y
        np.testing.assert_allclose(spmv_t(a, y), expected, rtol=1e-14, atol=1e-14)

    def test_symmetric_round_trip_equals_dense_square(self):
        rng = np.random.default_rng(4)
        entries = random_triplets(rng, 15, 15, 60)
        sym = entries + [(c, r, v) for r, c, v in entries]
        a = from_triplets(15, 15, sym)
        dense = dense_from_triplets(15, 15, sym)
        x = rng.normal(size=15)
        np.testing.assert_allclose(spmv_t(a, spmv(a, x)), dense @ dense @ x, rtol=1e-12)

    def test_dimension_mismatch(self):
        a = from_triplets(3, 4, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            spmv(a, np.ones(3))
        with pytest.raises(ValueError):
            spmv_t(a, np.ones(4))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(5)
        entries = random_triplets(rng, 40, 40, 500)
        a = from_triplets(40, 40, entries)
        x = rng.normal(size=40)
        first = spmv(a, x)
        for _ in range(3):
            np.testing.assert_array_equal(spmv(a, x), first)


class TestMemoryAndDump:
    def test_reference_scale_dense_bytes(self):
        # H at n = 50,000 grid rows, p = 3 channels, N = 400 lag bins
        h = from_triplets(50_000, 1200, [(0, 0, 1.0)])
        _, dense = memory_footprint(h)
        assert dense == 50_000 * 1200 * 8  # 480e6 bytes; reference figure 465e6
        # Z at q = 100 basis functions
        z = from_triplets(50_000, 300, [(0, 0, 1.0)])
        _, dense_z = memory_footprint(z)
        assert dense_z == 50_000 * 300 * 8  # 120e6 bytes; reference figure 119e6

    def test_empty_matrix_bytes(self):
        a = from_triplets(10, 10, [])
        sparse_bytes, _ = memory_footprint(a)
        assert sparse_bytes == a.row_ptr.nbytes

    def test_sparse_bytes_exact(self):
        rng = np.random.default_rng(6)
        a = from_triplets(20, 20, random_triplets(rng, 20, 20, 50))
        sparse_bytes, _ = memory_footprint(a)
        assert sparse_bytes == a.row_ptr.nbytes + a.col_idx.nbytes + a.values.nbytes


class TestVstack:
    def test_stacks_row_groups(self):
        a = from_triplets(2, 3, [(0, 0, 1.0), (1, 2, 2.0)])
        b = from_triplets(1, 3, [(0, 1, 5.0)])
        stacked = vstack([a, b])
        expected = np.vstack([a.toarray(), b.toarray()])
        np.testing.assert_array_equal(stacked.toarray(), expected)

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            vstack([from_triplets(1, 2, []), from_triplets(1, 3, [])])

    @given(csr_blocks())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_concatenation(self, blocks):
        assert_same_csr(vstack(blocks), concat_vstack(blocks))

    def test_zero_row_blocks(self):
        empty = from_triplets(0, 3, [])
        row = from_triplets(1, 3, [(0, 2, 1.5)])
        assert_same_csr(vstack([empty, row, empty]), concat_vstack([empty, row, empty]))
        assert vstack([empty, empty]).nrows == 0


class TestFromCoordinateCounts:
    @given(
        st.integers(0, 7),
        st.integers(1, 5),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_key_sort(self, nrows, ncols, pairs):
        # small ranges make repeated pairs common; nrows = 0 leaves only empty input
        kept = [(r, c % ncols) for r, c in pairs if r < nrows]
        rows = np.array([r for r, _ in kept], dtype=np.int64)
        cols = np.array([c for _, c in kept], dtype=np.int64)
        got = from_coordinate_counts(nrows, ncols, rows, cols)
        assert_same_csr(got, keysort_coordinate_counts(nrows, ncols, rows, cols))

    def test_empty_and_repeated(self):
        none = np.empty(0, dtype=np.int64)
        got = from_coordinate_counts(3, 2, none, none)
        assert got.nnz == 0
        assert_same_csr(got, keysort_coordinate_counts(3, 2, none, none))
        rows, cols = np.array([1, 1, 1, 0]), np.array([1, 1, 1, 0])
        got = from_coordinate_counts(2, 2, rows, cols)
        assert got.values.tolist() == [1.0, 3.0]
        assert_same_csr(got, keysort_coordinate_counts(2, 2, rows, cols))

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_equals_triplets_of_ones(self, pairs):
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        cols = np.array([c for _, c in pairs], dtype=np.int64)
        got = from_coordinate_counts(7, 5, rows, cols)
        want = from_triplets(7, 5, (rows, cols, np.ones(len(rows))))
        for name in ("row_ptr", "col_idx", "values"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="row"):
            from_coordinate_counts(2, 2, np.array([2]), np.array([0]))
        with pytest.raises(ValueError, match="column"):
            from_coordinate_counts(2, 2, np.array([0]), np.array([2]))


class TestIndexWidth:
    """Sizes beyond int32 raise OverflowError; checked on a lowered limit, not real allocations."""

    def test_limit_is_int32(self):
        assert sparse._INDEX_MAX == 2**31 - 1

    def test_from_triplets(self, monkeypatch):
        monkeypatch.setattr(sparse, "_INDEX_MAX", 4)
        entries = [(i, i, 1.0) for i in range(4)]
        assert from_triplets(4, 4, entries).nnz == 4
        with pytest.raises(OverflowError, match="nnz"):
            from_triplets(4, 4, entries + [(0, 1, 1.0)])
        with pytest.raises(OverflowError, match="nrows"):
            from_triplets(5, 4, [])
        with pytest.raises(OverflowError, match="ncols"):
            from_triplets(4, 5, [])

    def test_vstack(self, monkeypatch):
        monkeypatch.setattr(sparse, "_INDEX_MAX", 4)
        row = from_triplets(1, 2, [(0, 0, 1.0), (0, 1, 1.0)])
        assert vstack([row, row]).nnz == 4
        with pytest.raises(OverflowError, match="nnz"):
            vstack([row, row, row])
        empty = from_triplets(1, 2, [])
        assert vstack([empty] * 4).nrows == 4
        with pytest.raises(OverflowError, match="nrows"):
            vstack([empty] * 5)

    def test_from_coordinate_counts(self, monkeypatch):
        monkeypatch.setattr(sparse, "_INDEX_MAX", 4)
        rows = np.array([0, 0, 1, 1, 1])
        cols = np.array([0, 0, 1, 2, 3])
        assert from_coordinate_counts(4, 4, rows, cols).nnz == 4  # repeats are one entry
        with pytest.raises(OverflowError, match="nnz"):
            from_coordinate_counts(4, 4, rows, np.array([0, 1, 1, 2, 3]))
        with pytest.raises(OverflowError, match="nrows"):
            from_coordinate_counts(5, 4, rows, cols)

    def test_build_h(self, monkeypatch):
        trial = Trial(t_end=1.0, events={"a": [0.3, 0.6]})
        grid = make_time_grid(trial, "a", base_n=10)
        delta = make_delta_grid(0.5, 5)
        nnz = build_h(trial, grid, delta, ["a"]).nnz
        monkeypatch.setattr(sparse, "_INDEX_MAX", nnz - 1)
        with pytest.raises(OverflowError):
            build_h(trial, grid, delta, ["a"])

    def test_build_z(self, monkeypatch):
        h = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
        assert build_z(h, np.ones((2, 2)), 1).nnz == 4
        monkeypatch.setattr(sparse, "_INDEX_MAX", 3)
        with pytest.raises(OverflowError, match="nnz"):
            build_z(h, np.ones((2, 2)), 1)
        with pytest.raises(OverflowError, match="ncols"):
            build_z(h, np.ones((2, 4)), 1)
        monkeypatch.setattr(sparse, "_INDEX_MAX", 1)
        with pytest.raises(OverflowError, match="nrows"):
            build_z(h, np.ones((2, 2)), 1)
