"""Compressed Sparse Row matrix implemented from scratch on numpy storage.

This is the workhorse format of the reproduction: the RSQP hardware model
streams matrix non-zeros row by row, exactly the order CSR stores them in,
so the sparsity-string encoding (:mod:`repro.encoding`) and the SpMV pack
scheduler (:mod:`repro.customization`) are both defined directly over a
:class:`CSRMatrix`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .kernels import CSRKernel

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A sparse matrix in Compressed Sparse Row format.

    Parameters
    ----------
    shape:
        ``(m, n)`` matrix dimensions.
    data:
        Non-zero values, length ``nnz``, row-major order.
    indices:
        Column index of each non-zero, length ``nnz``.
    indptr:
        Row pointer array of length ``m + 1``; row ``i`` occupies
        ``data[indptr[i]:indptr[i+1]]``.

    Invariants (checked on construction): ``indptr`` is non-decreasing,
    starts at 0 and ends at ``nnz``; column indices are in range and
    strictly increasing within each row (canonical form).
    """

    __slots__ = ("shape", "data", "indices", "indptr", "_kernel")

    def __init__(self, shape, data, indices, indptr, *, check: bool = True):
        m, n = int(shape[0]), int(shape[1])
        self.shape = (m, n)
        # Contiguous storage lets the SpMV kernel view it, not copy it.
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._kernel = None
        if check:
            self._check()

    def __getstate__(self):
        # The cached kernel holds C pointers; the receiver rebuilds it.
        return self.shape, self.data, self.indices, self.indptr

    def __setstate__(self, state):
        self.shape, self.data, self.indices, self.indptr = state
        self._kernel = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"expected 2-D array, got ndim={arr.ndim}")
        m, n = arr.shape
        indptr = np.zeros(m + 1, dtype=np.int64)
        rows, cols = np.nonzero(arr)
        counts = np.bincount(rows, minlength=m)
        indptr[1:] = np.cumsum(counts)
        return cls((m, n), arr[rows, cols], cols, indptr, check=False)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CSRMatrix":
        """Build from coordinate triples; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeError("rows, cols and vals must have identical shapes")
        m, n = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            raise ShapeError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ShapeError("column index out of range")
        # Sort lexicographically by (row, col), then merge duplicates.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group_id = np.cumsum(keep) - 1
            merged = np.zeros(group_id[-1] + 1, dtype=np.float64)
            np.add.at(merged, group_id, vals)
            rows, cols, vals = rows[keep], cols[keep], merged
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(rows, minlength=m))
        return cls((m, n), vals, cols, indptr, check=False)

    @classmethod
    def zeros(cls, shape) -> "CSRMatrix":
        """An all-zero matrix with no stored entries."""
        m = int(shape[0])
        return cls(shape, np.zeros(0), np.zeros(0, dtype=np.int64),
                   np.zeros(m + 1, dtype=np.int64), check=False)

    # ------------------------------------------------------------------
    # invariants & basic properties
    # ------------------------------------------------------------------
    def _check(self) -> None:
        m, n = self.shape
        if self.indptr.shape != (m + 1,):
            raise ShapeError("indptr must have length m + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ShapeError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ShapeError("indices and data must have equal length")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= n):
            raise ShapeError("column index out of range")
        for i in range(m):
            row = self.indices[self.indptr[i]:self.indptr[i + 1]]
            if row.size > 1 and np.any(np.diff(row) <= 0):
                raise ShapeError(f"row {i} column indices not strictly "
                                 "increasing (non-canonical CSR)")

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries in each row (length ``m``)."""
        return np.diff(self.indptr)

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(self.shape, self.data.copy(), self.indices.copy(),
                         self.indptr.copy(), check=False)

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """This pattern carrying ``data``, a contiguous float64 array of
        ``nnz`` values, kept by reference and not checked (a per-load
        copy of a bound structure)."""
        mat = CSRMatrix.__new__(CSRMatrix)
        mat.shape, mat.indices, mat.indptr = (self.shape, self.indices,
                                              self.indptr)
        mat.data, mat._kernel = data, None
        return mat

    # ------------------------------------------------------------------
    # linear operations
    # ------------------------------------------------------------------
    def kernel(self) -> CSRKernel:
        """This matrix's SpMV kernel (:mod:`repro.sparse.kernels`).

        Cached while the storage arrays keep their identity; in-place
        value writes into ``data`` reach it without a rebuild.
        """
        kernel = self._kernel
        if kernel is None or not kernel.views(self.data, self.indices,
                                              self.indptr):
            kernel = self._kernel = CSRKernel(self.shape, self.data,
                                              self.indices, self.indptr)
        return kernel

    def matvec(self, x) -> np.ndarray:
        """Compute ``A @ x``, each row summed left to right from
        ``+0.0`` — the accelerator's order, on every host (see
        :mod:`repro.sparse.kernels`)."""
        return self.kernel().apply(x)

    def rmatvec(self, y) -> np.ndarray:
        """Compute ``A.T @ y`` without materializing the transpose."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.shape[0],):
            raise ShapeError(
                f"rmatvec: expected vector of length {self.shape[0]}, "
                f"got shape {y.shape}")
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out = np.zeros(self.shape[1])
        np.add.at(out, self.indices, self.data * y[row_of])
        return out

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector of length ``min(m, n)``."""
        k = min(self.shape)
        out = np.zeros(k)
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        on_diag = (row_of == self.indices) & (self.indices < k)
        out[self.indices[on_diag]] = self.data[on_diag]
        return out

    def column_sq_sums(self) -> np.ndarray:
        """Per-column sums of squared entries, ``diag(A.T A)``.

        Needed by the Jacobi preconditioner of the reduced KKT operator
        ``P + sigma I + rho A^T A`` without ever forming ``A^T A``.
        """
        out = np.zeros(self.shape[1])
        np.add.at(out, self.indices, self.data ** 2)
        return out

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRMatrix":
        """Return ``A.T`` as a new canonical CSR matrix."""
        order, indices, indptr = self.transpose_pattern()
        # `+ 0.0` flushes -0.0 entries exactly like the COO-merge
        # accumulation this replaces, keeping old transposes bitwise.
        return CSRMatrix(self.shape[::-1], self.data[order] + 0.0, indices,
                         indptr, check=False)

    def transpose_pattern(self) -> tuple:
        """``(order, indices, indptr)`` of ``A.T``: its pattern, and the
        permutation that gathers its values, ``data[order]``."""
        m, n = self.shape
        row_of = np.repeat(np.arange(m), np.diff(self.indptr))
        # Entries are already row-ordered, so a stable sort by column
        # yields exactly the (col, row) lexicographic order of the
        # transpose — a pure permutation, no COO round trip.
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(self.indices, minlength=n))
        return order, row_of[order], indptr

    def permute_rows(self, perm) -> "CSRMatrix":
        """Return the matrix with row ``perm[i]`` of ``self`` as new row ``i``."""
        perm = _validated_perm(perm, self.shape[0])
        counts = np.diff(self.indptr)[perm]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        data = np.empty_like(self.data)
        indices = np.empty_like(self.indices)
        for new_i, old_i in enumerate(perm):
            s, e = self.indptr[old_i], self.indptr[old_i + 1]
            t = indptr[new_i]
            data[t:t + (e - s)] = self.data[s:e]
            indices[t:t + (e - s)] = self.indices[s:e]
        return CSRMatrix(self.shape, data, indices, indptr, check=False)

    def permute_cols(self, perm) -> "CSRMatrix":
        """Return the matrix with column ``perm[j]`` of ``self`` as new column ``j``."""
        perm = _validated_perm(perm, self.shape[1])
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        rows, cols, vals = self.to_coo()
        return CSRMatrix.from_coo(rows, inv[cols], vals, self.shape)

    def scale_rows(self, d) -> "CSRMatrix":
        """Return ``diag(d) @ A``."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.shape[0],):
            raise ShapeError("row scaling vector has wrong length")
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return CSRMatrix(self.shape, self.data * d[row_of],
                         self.indices.copy(), self.indptr.copy(), check=False)

    def scale_cols(self, d) -> "CSRMatrix":
        """Return ``A @ diag(d)``."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.shape[1],):
            raise ShapeError("column scaling vector has wrong length")
        return CSRMatrix(self.shape, self.data * d[self.indices],
                         self.indices.copy(), self.indptr.copy(), check=False)

    def prune(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|value| <= tol``."""
        keep = np.abs(self.data) > tol
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return CSRMatrix.from_coo(row_of[keep], self.indices[keep],
                                  self.data[keep], self.shape)

    def triu(self, k: int = 0) -> "CSRMatrix":
        """Upper triangle (entries with ``col - row >= k``)."""
        rows, cols, vals = self.to_coo()
        keep = (cols - rows) >= k
        return CSRMatrix.from_coo(rows[keep], cols[keep], vals[keep],
                                  self.shape)

    def tril(self, k: int = 0) -> "CSRMatrix":
        """Lower triangle (entries with ``col - row <= k``)."""
        rows, cols, vals = self.to_coo()
        keep = (cols - rows) <= k
        return CSRMatrix.from_coo(rows[keep], cols[keep], vals[keep],
                                  self.shape)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[row_of, self.indices] = self.data
        return out

    def to_coo(self):
        """Return ``(rows, cols, vals)`` coordinate arrays."""
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return row_of, self.indices.copy(), self.data.copy()

    def row(self, i: int):
        """Return ``(cols, vals)`` of row ``i`` as views."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    # ------------------------------------------------------------------
    # arithmetic helpers
    # ------------------------------------------------------------------
    def __add__(self, other: "CSRMatrix") -> "CSRMatrix":
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError("matrix addition requires equal shapes")
        r1, c1, v1 = self.to_coo()
        r2, c2, v2 = other.to_coo()
        return CSRMatrix.from_coo(np.concatenate([r1, r2]),
                                  np.concatenate([c1, c2]),
                                  np.concatenate([v1, v2]), self.shape)

    def __mul__(self, scalar: float) -> "CSRMatrix":
        return CSRMatrix(self.shape, self.data * float(scalar),
                         self.indices.copy(), self.indptr.copy(), check=False)

    __rmul__ = __mul__

    def __matmul__(self, x):
        if isinstance(x, CSRMatrix):
            return self.matmul(x)
        if not isinstance(x, (np.ndarray, list, tuple)) \
                and hasattr(x, "__rmatmul__"):
            return NotImplemented  # defer to e.g. modeling expressions
        return self.matvec(x)

    def matmul(self, other: "CSRMatrix") -> "CSRMatrix":
        """Sparse matrix product ``A @ B`` (row-wise accumulation).

        Intended for the modest matrices of problem construction, not
        for the solver hot path — the solver never forms matrix
        products (see :class:`repro.qp.ReducedKKTOperator`).
        """
        if not isinstance(other, CSRMatrix):
            raise ShapeError("matmul expects a CSRMatrix")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"cannot multiply {self.shape} by {other.shape}")
        rows_out, cols_out, vals_out = [], [], []
        for i in range(self.shape[0]):
            cols_a, vals_a = self.row(i)
            if cols_a.size == 0:
                continue
            acc: dict = {}
            for col_a, val_a in zip(cols_a.tolist(), vals_a.tolist()):
                cols_b, vals_b = other.row(col_a)
                for col_b, val_b in zip(cols_b.tolist(),
                                        vals_b.tolist()):
                    acc[col_b] = acc.get(col_b, 0.0) + val_a * val_b
            for col, val in acc.items():
                rows_out.append(i)
                cols_out.append(col)
                vals_out.append(val)
        if not rows_out:
            return CSRMatrix.zeros((self.shape[0], other.shape[1]))
        return CSRMatrix.from_coo(rows_out, cols_out, vals_out,
                                  (self.shape[0], other.shape[1]))

    def allclose(self, other: "CSRMatrix", *, atol: float = 1e-12) -> bool:
        """Numerically compare two matrices independent of stored zeros."""
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense(), atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz})")


def _validated_perm(perm, size: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (size,):
        raise ShapeError(f"permutation must have length {size}")
    if not np.array_equal(np.sort(perm), np.arange(size)):
        raise ShapeError("not a permutation of 0..size-1")
    return perm
