"""Compressed sparse row storage with int32 indices for event-history design matrices.

SparseCsr holds the three CSR arrays and the scipy matrix over them,
``csr``; scipy does the assembly and the products.  Count matrices come
from scipy's COO-to-CSR conversion, which sums repeated pairs, stacking from
scipy.sparse.vstack, and callers multiply ``csr`` directly.  scipy's CSR
kernels accumulate each row in column order, so results are bitwise
reproducible run to run.  Every scipy result is stored through one guard: a
row or column count that does not fit int32 raises OverflowError before
scipy allocates, an nnz that does not fit raises after, instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
    csr: sp.csr_matrix = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "csr", mat)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()


def _scipy_result(nrows: int, ncols: int, build: Callable[[], sp.csr_matrix]) -> SparseCsr:
    """Store the (nrows, ncols) CSR matrix that ``build`` makes with scipy.

    The int32 guard runs on nrows and ncols before ``build`` allocates and
    on nnz after.  Each row's columns are sorted.
    """
    _check_index_width(nrows, ncols, 0)
    mat = build()
    mat.sort_indices()
    _check_index_width(nrows, ncols, mat.nnz)
    row_ptr, col_idx = np.asarray(mat.indptr, np.int32), np.asarray(mat.indices, np.int32)
    return SparseCsr(nrows, ncols, row_ptr, col_idx, mat.data)


def from_coordinate_counts(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray) -> SparseCsr:
    """CSR whose entry (r, c) is the number of times the pair (r, c) occurs.

    One scipy COO-to-CSR conversion with a unit value per pair; repeated
    pairs are summed into one stored count.  Counts are exact integers, so
    the result does not depend on the input ordering.
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
    return _scipy_result(
        nrows,
        ncols,
        lambda: sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(nrows, ncols)).tocsr(),
    )


def vstack(blocks: list[SparseCsr]) -> SparseCsr:
    """Stack matrices with a common column count as consecutive row groups."""
    if not blocks:
        raise ValueError("nothing to stack")
    return _scipy_result(
        sum(b.nrows for b in blocks),
        blocks[0].ncols,
        lambda: sp.vstack([b.csr for b in blocks], format="csr"),
    )


def spmv(a: SparseCsr, x: np.ndarray) -> np.ndarray:
    """y = A x with per-row accumulation in column order."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"expected vector of length {a.ncols}, got {x.shape}")
    return a.csr @ x


def spmv_t(a: SparseCsr, y: np.ndarray) -> np.ndarray:
    """x = A^T y."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (a.nrows,):
        raise ValueError(f"expected vector of length {a.nrows}, got {y.shape}")
    return a.csr.T @ y


def memory_footprint(a: SparseCsr) -> tuple[int, int]:
    """(bytes of the three stored arrays, bytes of the dense float64 equivalent)."""
    sparse_bytes = a.row_ptr.nbytes + a.col_idx.nbytes + a.values.nbytes
    dense_bytes = a.nrows * a.ncols * 8
    return sparse_bytes, dense_bytes
