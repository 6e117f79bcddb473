"""Quadratic program container.

The canonical problem form of the paper (eq. 1):

.. math::

    \\text{minimize } (1/2) x^T P x + q^T x
    \\quad \\text{subject to } l \\le A x \\le u

with :math:`P` positive semi-definite, :math:`A \\in R^{m \\times n}` and
possibly infinite bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ShapeError
from ..sparse import CSRMatrix

__all__ = ["QProblem", "updated_vectors"]


@dataclass
class QProblem:
    """A convex QP ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u``.

    Attributes
    ----------
    P:
        Symmetric objective matrix, shape ``(n, n)``. Stored full (both
        triangles); builders that only have the upper triangle should
        symmetrize first.
    q:
        Linear objective, length ``n``.
    A:
        Constraint matrix, shape ``(m, n)``.
    l, u:
        Lower/upper bounds, length ``m``; ``-inf``/``+inf`` entries
        encode one-sided constraints.
    name:
        Optional label (used by the benchmark suite and reports).
    """

    P: CSRMatrix
    q: np.ndarray
    A: CSRMatrix
    l: np.ndarray
    u: np.ndarray
    name: str = field(default="qp")

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.l = np.asarray(self.l, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        n = self.P.shape[0]
        m = self.A.shape[0]
        if self.P.shape != (n, n):
            raise ShapeError("P must be square")
        if self.q.shape != (n,):
            raise ShapeError(f"q must have length n={n}")
        if self.A.shape[1] != n:
            raise ShapeError("A must have n columns")
        if self.l.shape != (m,) or self.u.shape != (m,):
            raise ShapeError(f"l and u must have length m={m}")
        if np.any(np.isnan(self.l)) or np.any(np.isnan(self.u)):
            raise ShapeError("bounds must not contain NaN")
        if np.any(self.l > self.u):
            raise ShapeError("every lower bound must satisfy l <= u")
        if not self._structurally_symmetric():
            raise ShapeError("P must be symmetric")

    @classmethod
    def _trusted(cls, P: CSRMatrix, q: np.ndarray, A: CSRMatrix,
                 l: np.ndarray, u: np.ndarray, name: str = "qp") -> "QProblem":
        """Construct without validation.

        For internally derived problems only — e.g. diagonally scaled
        copies of an already-validated problem, where symmetry, bound
        ordering and shapes are preserved by construction. The vector
        arguments must already be float64 ndarrays of the right length.
        """
        self = cls.__new__(cls)
        self.P = P
        self.q = q
        self.A = A
        self.l = l
        self.u = u
        self.name = name
        return self

    def _structurally_symmetric(self, tol: float = 1e-9) -> bool:
        """Check P == P^T by comparing canonical COO forms (O(nnz log nnz))."""
        r1, c1, v1 = self.P.to_coo()
        pt = self.P.transpose()
        r2, c2, v2 = pt.to_coo()
        if r1.size != r2.size:
            return False
        return (np.array_equal(r1, r2) and np.array_equal(c1, c2)
                and np.allclose(v1, v2, atol=tol))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of decision variables."""
        return self.P.shape[0]

    @property
    def m(self) -> int:
        """Number of constraints."""
        return self.A.shape[0]

    @property
    def nnz(self) -> int:
        """Total non-zeros ``nnz(P) + nnz(A)`` — the paper's size measure."""
        return self.P.nnz + self.A.nnz

    def objective(self, x) -> float:
        """Objective value ``1/2 x'Px + q'x``."""
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * np.dot(x, self.P.matvec(x)) + np.dot(self.q, x))

    def primal_residual(self, x, z=None) -> float:
        """Infinity norm of the constraint violation of ``Ax`` (or ``z``)."""
        ax = self.A.matvec(x) if z is None else np.asarray(z)
        below = np.maximum(self.l - ax, 0.0)
        above = np.maximum(ax - self.u, 0.0)
        viol = np.maximum(below, above)
        return float(viol.max()) if viol.size else 0.0

    def equality_mask(self) -> np.ndarray:
        """Boolean mask of rows with ``l == u`` (equality constraints)."""
        return self.l == self.u

    def is_feasible(self, x, tol: float = 1e-6) -> bool:
        return self.primal_residual(x) <= tol

    # ------------------------------------------------------------------
    def permute_variables(self, perm) -> "QProblem":
        """Symmetric variable permutation (paper §4.4).

        Returns the problem over ``x_new = x_old[perm]``: ``P`` is
        permuted symmetrically and the columns of ``A`` follow. Constraint
        rows are untouched, so ``l``/``u`` are shared.
        """
        perm = np.asarray(perm, dtype=np.int64)
        p_new = self.P.permute_rows(perm).permute_cols(perm)
        return QProblem(P=p_new, q=self.q[perm],
                        A=self.A.permute_cols(perm),
                        l=self.l.copy(), u=self.u.copy(),
                        name=self.name)

    def permute_constraints(self, perm) -> "QProblem":
        """Reorder constraint rows of ``A`` (and ``l``, ``u``) by ``perm``."""
        perm = np.asarray(perm, dtype=np.int64)
        return QProblem(P=self.P.copy(), q=self.q.copy(),
                        A=self.A.permute_rows(perm),
                        l=self.l[perm], u=self.u[perm], name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QProblem(name={self.name!r}, n={self.n}, m={self.m}, "
                f"nnz={self.nnz})")


def _vector(value, length: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (length,):
        raise ShapeError(
            f"{name} must have length {length}, got shape {arr.shape}")
    return arr


def updated_vectors(problem: QProblem, q=None, l=None, u=None):
    """``(q, l, u)`` for a numeric update of ``problem``, checked as the
    constructor checks them: lengths, NaN-free bounds, ``l <= u``.
    ``None`` keeps the current vector; raises :class:`ShapeError`."""
    q_new = problem.q if q is None else _vector(q, problem.n, "q")
    l_new = problem.l if l is None else _vector(l, problem.m, "l")
    u_new = problem.u if u is None else _vector(u, problem.m, "u")
    if l is not None or u is not None:
        if np.any(np.isnan(l_new)) or np.any(np.isnan(u_new)):
            raise ShapeError("bounds must not contain NaN")
        if np.any(l_new > u_new):
            raise ShapeError("every lower bound must satisfy l <= u")
    return q_new, l_new, u_new
