"""Compressed Sparse Column matrix.

The direct LDL^T factorization (:mod:`repro.linalg.ldl`) operates on the
upper triangle of a symmetric matrix stored in CSC form, following the
layout used by OSQP's QDLDL routine.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .csr import CSRMatrix, _validated_perm
from .kernels import CSRKernel

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """A sparse matrix in Compressed Sparse Column format.

    Storage mirrors :class:`~repro.sparse.csr.CSRMatrix` with the roles of
    rows and columns swapped: column ``j`` occupies
    ``data[indptr[j]:indptr[j+1]]`` with row indices ``indices[...]`` in
    strictly increasing order.
    """

    __slots__ = ("shape", "data", "indices", "indptr")

    def __init__(self, shape, data, indices, indptr, *, check: bool = True):
        m, n = int(shape[0]), int(shape[1])
        self.shape = (m, n)
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        if check:
            self._check()

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array) -> "CSCMatrix":
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"expected 2-D array, got ndim={arr.ndim}")
        return cls.from_csr(CSRMatrix.from_dense(arr))

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "CSCMatrix":
        """Build from coordinate triples; duplicates are summed."""
        return cls.from_csr(CSRMatrix.from_coo(rows, cols, vals, shape))

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSCMatrix":
        """Convert a CSR matrix; O(nnz log nnz)."""
        rows, cols, vals = csr.to_coo()
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        m, n = csr.shape
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(cols, minlength=n))
        return cls((m, n), vals, rows, indptr, check=False)

    def to_csr(self) -> CSRMatrix:
        rows, cols, vals = self.to_coo()
        return CSRMatrix.from_coo(rows, cols, vals, self.shape)

    # ------------------------------------------------------------------
    def _check(self) -> None:
        m, n = self.shape
        if self.indptr.shape != (n + 1,):
            raise ShapeError("indptr must have length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ShapeError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ShapeError("indices and data must have equal length")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= m):
            raise ShapeError("row index out of range")
        for j in range(n):
            col = self.indices[self.indptr[j]:self.indptr[j + 1]]
            if col.size > 1 and np.any(np.diff(col) <= 0):
                raise ShapeError(f"column {j} row indices not strictly "
                                 "increasing (non-canonical CSC)")

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def col_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(self.shape, self.data.copy(), self.indices.copy(),
                         self.indptr.copy(), check=False)

    # ------------------------------------------------------------------
    def matvec(self, x) -> np.ndarray:
        """Compute ``A @ x`` by scatter-add over columns."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ShapeError(
                f"matvec: expected vector of length {self.shape[1]}, "
                f"got shape {x.shape}")
        col_of = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        out = np.zeros(self.shape[0])
        np.add.at(out, self.indices, self.data * x[col_of])
        return out

    def rmatvec(self, y) -> np.ndarray:
        """Compute ``A.T @ y``, each column summed top to bottom in the
        sequential order of :mod:`repro.sparse.kernels`."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.shape[0],):
            raise ShapeError(
                f"rmatvec: expected vector of length {self.shape[0]}, "
                f"got shape {y.shape}")
        m, n = self.shape
        return CSRKernel((n, m), self.data, self.indices,
                         self.indptr).apply(y)

    def __matmul__(self, x):
        return self.matvec(x)

    def col(self, j: int):
        """Return ``(rows, vals)`` of column ``j`` as views."""
        s, e = self.indptr[j], self.indptr[j + 1]
        return self.indices[s:e], self.data[s:e]

    def diagonal(self) -> np.ndarray:
        k = min(self.shape)
        out = np.zeros(k)
        col_of = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        on_diag = (col_of == self.indices) & (self.indices < k)
        out[col_of[on_diag]] = self.data[on_diag]
        return out

    # ------------------------------------------------------------------
    def symmetric_permute_upper(self, perm) -> "CSCMatrix":
        """Symmetric permutation of an upper-triangular matrix.

        ``self`` stores the upper triangle of a symmetric matrix ``M``;
        the result stores the upper triangle of ``M[perm][:, perm]``
        (entries landing in the lower triangle are mirrored back up).
        """
        n = self.shape[0]
        if self.shape[0] != self.shape[1]:
            raise ShapeError("symmetric permutation requires a square matrix")
        perm = _validated_perm(perm, n)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n)
        rows, cols, vals = self.to_coo()
        new_r, new_c = inv[rows], inv[cols]
        swap = new_r > new_c
        new_r[swap], new_c[swap] = new_c[swap], new_r[swap].copy()
        return CSCMatrix.from_coo(new_r, new_c, vals, self.shape)

    def to_coo(self):
        col_of = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return self.indices.copy(), col_of, self.data.copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        col_of = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        out[self.indices, col_of] = self.data
        return out

    def allclose(self, other: "CSCMatrix", *, atol: float = 1e-12) -> bool:
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense(), atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
