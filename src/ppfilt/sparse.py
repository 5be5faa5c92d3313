"""Compressed sparse row matrices sized for event-history design matrices.

Only the operations the likelihood machinery needs are provided: triplet
assembly, direct assembly of count matrices, products with block-diagonal
maps, matrix-vector products in both directions and memory accounting.
The heavy products are delegated to scipy's CSR kernels, which accumulate
each row in column order, so results are bitwise reproducible run to run.
Indices are stored as int32; every constructor that casts to them raises
OverflowError when a row count, column count or nnz does not fit, instead
of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

_INDEX_MAX = int(np.iinfo(np.int32).max)


def _check_index_width(nrows: int, ncols: int, nnz: int) -> None:
    """Raise OverflowError unless int32 row/column indices and row offsets can hold the sizes."""
    for what, size in (("nrows", nrows), ("ncols", ncols), ("nnz", nnz)):
        if size > _INDEX_MAX:
            raise OverflowError(f"{what} = {size} exceeds the int32 index range of SparseCsr")


@dataclass(frozen=True)
class SparseCsr:
    """CSR matrix: ``row_ptr`` offsets, ``col_idx`` per-row sorted columns, ``values``."""

    nrows: int
    ncols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _sp: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.row_ptr.shape != (self.nrows + 1,):
            raise ValueError("row_ptr must have length nrows + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise ValueError("row_ptr endpoints inconsistent with nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values length mismatch")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= self.ncols):
            raise ValueError("column index out of range")
        mat = sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr),
            shape=(self.nrows, self.ncols),
            copy=False,
        )
        object.__setattr__(self, "_sp", mat)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def toarray(self) -> np.ndarray:
        return self._sp.toarray()

    def _n_blocks(self, width: int) -> int:
        """Number of consecutive column blocks of the given width."""
        n_blocks, rem = divmod(self.ncols, width)
        if rem:
            raise ValueError(f"column count {self.ncols} is not a multiple of {width}")
        return n_blocks

    def block_product(self, lo: int, hi: int, block_map: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write rows lo:hi times blockdiag(block_map, ..., block_map) into ``out``.

        The columns form k consecutive blocks of block_map's row count w; each
        block is multiplied by the dense (w, q) block_map, giving the dense
        (hi - lo, k * q) ``out``.  No dense copy of the sparse rows is made.
        """
        width, q = block_map.shape
        n_blocks = self._n_blocks(width)
        rows = self._sp[lo:hi]
        for i in range(n_blocks):
            out[:, i * q : (i + 1) * q] = rows[:, i * width : (i + 1) * width] @ block_map
        return out

    def block_diag_product(self, block_map: np.ndarray) -> "SparseCsr":
        """The whole matrix times blockdiag(block_map, ..., block_map), kept sparse.

        One scipy CSR product with the block-diagonal matrix of the nonzeros
        of block_map.  scipy's product stores no entry whose sum is exactly
        zero; its columns come out unsorted, so each row is sorted here.
        """
        n_blocks = self._n_blocks(block_map.shape[0])
        right = sp.kron(sp.eye(n_blocks, format="csr"), sp.csr_matrix(block_map), format="csr")
        prod = self._sp @ right
        prod.sort_indices()
        _check_index_width(prod.shape[0], prod.shape[1], prod.nnz)
        return SparseCsr(
            prod.shape[0],
            prod.shape[1],
            prod.indptr.astype(np.int32),
            prod.indices.astype(np.int32),
            prod.data,
        )


def from_triplets(
    nrows: int, ncols: int, entries: tuple[np.ndarray, np.ndarray, np.ndarray] | list
) -> SparseCsr:
    """Assemble a CSR matrix from (row, col, value) triplets.

    Accepts a list of (row, col, value) tuples or a tuple of three parallel
    arrays.  Duplicate coordinates are summed and exact zeros dropped.
    Triplets are ordered by (row, col, value) before accumulation, so the
    result does not depend on the input ordering, even in floating point.
    """
    if (
        isinstance(entries, tuple)
        and len(entries) == 3
        and all(isinstance(e, np.ndarray) for e in entries)
    ):
        rows, cols, vals = entries
    else:
        arr = np.asarray(list(entries), dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("entries must be (row, col, value) triplets")
        rows, cols, vals = arr[:, 0], arr[:, 1], arr[:, 2]
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if rows.shape != cols.shape or rows.shape != vals.shape:
        raise ValueError("triplet arrays must have equal length")
    if len(rows):
        if rows.min() < 0 or rows.max() >= nrows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ValueError("column index out of range")
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_group)
        summed = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
        keep = summed != 0.0
        rows, cols, summed = rows[keep], cols[keep], summed[keep]
    else:
        summed = vals
    _check_index_width(nrows, ncols, len(summed))
    row_ptr = np.zeros(nrows + 1, dtype=np.int32)
    np.add.at(row_ptr, rows + 1, 1)
    row_ptr = np.cumsum(row_ptr, dtype=np.int64).astype(np.int32)
    return SparseCsr(nrows, ncols, row_ptr, cols.astype(np.int32), summed)


def from_coordinate_counts(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray) -> SparseCsr:
    """CSR whose entry (r, c) is the number of times the pair (r, c) occurs.

    The pairs are sorted once on the linear key r * ncols + c, so the columns
    of each row come out sorted and repeated pairs adjacent; each run of
    equal keys becomes one stored count.  Counts are exact integers, so the
    result does not depend on the input ordering.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("row and column arrays must have equal length")
    if len(rows):
        if rows.min() < 0 or rows.max() >= nrows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ValueError("column index out of range")
    _check_index_width(nrows, ncols, 0)  # also keeps the int64 keys below from overflowing
    keys = rows * ncols + cols
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    keys = keys[starts]
    _check_index_width(nrows, ncols, len(keys))
    counts = np.diff(starts, append=len(first)).astype(np.float64)
    row_ptr = np.searchsorted(keys, np.arange(nrows + 1, dtype=np.int64) * ncols)
    return SparseCsr(
        nrows, ncols, row_ptr.astype(np.int32), (keys % ncols).astype(np.int32), counts
    )


def vstack(blocks: list[SparseCsr]) -> SparseCsr:
    """Stack matrices with a common column count as consecutive row groups."""
    if not blocks:
        raise ValueError("nothing to stack")
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("column counts differ")
    nrows = sum(b.nrows for b in blocks)
    _check_index_width(nrows, ncols, sum(b.nnz for b in blocks))
    ptr = [np.zeros(1, dtype=np.int32)]
    offset = 0
    for b in blocks:
        ptr.append(b.row_ptr[1:].astype(np.int64) + offset)
        offset += b.nnz
    return SparseCsr(
        nrows,
        ncols,
        np.concatenate(ptr).astype(np.int32),
        np.concatenate([b.col_idx for b in blocks]),
        np.concatenate([b.values for b in blocks]),
    )


def spmv(a: SparseCsr, x: np.ndarray) -> np.ndarray:
    """y = A x with per-row accumulation in column order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"expected vector of length {a.ncols}, got {x.shape}")
    return a._sp @ x


def spmv_t(a: SparseCsr, y: np.ndarray) -> np.ndarray:
    """x = A^T y."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (a.nrows,):
        raise ValueError(f"expected vector of length {a.nrows}, got {y.shape}")
    return a._sp.T @ y


def memory_footprint(a: SparseCsr) -> tuple[int, int]:
    """(bytes of the three stored arrays, bytes of the dense float64 equivalent)."""
    sparse_bytes = a.row_ptr.nbytes + a.col_idx.nbytes + a.values.nbytes
    dense_bytes = a.nrows * a.ncols * 8
    return sparse_bytes, dense_bytes
