"""Shared numeric helpers for the test suite."""

import numpy as np

from repro.qp import QProblem
from repro.sparse import CSRMatrix


def random_dense(rng, m, n, density=0.3):
    """Dense array with roughly `density` fraction of non-zeros."""
    mask = rng.random((m, n)) < density
    vals = rng.standard_normal((m, n))
    vals[vals == 0.0] = 1.0
    return np.where(mask, vals, 0.0)


def random_spd_dense(rng, n, density=0.4, shift=None):
    """Dense symmetric positive-definite matrix with sparse off-diagonals."""
    a = random_dense(rng, n, n, density)
    m = (a + a.T) / 2.0
    if shift is None:
        shift = np.abs(m).sum(axis=1).max() + 1.0
    return m + shift * np.eye(n)


def random_csr(rng, m, n, density=0.3):
    return CSRMatrix.from_dense(random_dense(rng, m, n, density))


def edge_case_problem():
    """Column 1 empty in both P and A, a free row, an equality row,
    one-sided rows and ``q = 0``."""
    p = CSRMatrix.from_dense([[2.0, 0.0, 0.5], [0.0, 0.0, 0.0],
                              [0.5, 0.0, 1.0]])
    a = CSRMatrix.from_dense([[1.0, 0.0, 0.0], [0.0, 0.0, 3.0],
                              [1.0, 0.0, 1.0], [4.0, 0.0, -1.0]])
    return QProblem(P=p, q=np.zeros(3), A=a,
                    l=np.array([-np.inf, 1.0, -2.0, -np.inf]),
                    u=np.array([np.inf, 1.0, np.inf, 5.0]))
