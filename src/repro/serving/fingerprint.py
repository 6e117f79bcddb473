"""Canonical structure fingerprint of a :class:`~repro.qp.QProblem`.

The whole serving layer rests on one observation from the paper: a
customized architecture is a function of the problem's *sparsity
structure* only — the MAC-tree structure set, the SpMV schedules
(``E_p``) and the CVB layout (``E_c``) never look at numeric values.
Two problems with identical ``P``/``A`` patterns therefore share one
architecture, one compiled program and one set of cycle costs, no
matter how their data differ (MPC re-solves, lasso regularization
paths, SQP inner problems).

The fingerprint key is a stable 128-bit blake2b digest over the exact
structure:

* the dimensions ``(n, m)``,
* ``P``'s CSR pattern (``indptr`` + ``indices``),
* ``A``'s CSR pattern (``indptr`` + ``indices``).

Numeric arrays (``data``, ``q``, ``l``, ``u``) are deliberately
excluded; so are the bounds' equality/one-sided patterns, which affect
the per-solve host setup (rho vector) but never the architecture.
The KKT structure is a function of the ``P`` and ``A`` patterns, so
hashing both subsumes it; the human-readable sparsity *strings* of
``P``, ``A`` and the full KKT matrix (paper eq. 2) are carried as
metadata for observability and reports, not folded into the key —
they are bucketed (lossy) encodings and additionally depend on the
display width ``c``. Nothing on the request path reads them, so they
are derived on first access; only the digest is paid per request.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..encoding import encode_row_nnz
from ..qp import QProblem

__all__ = ["StructureFingerprint", "fingerprint_problem", "sparsity_string"]

#: Version tag mixed into the digest so a change to the hashed fields
#: can never silently alias keys from an older persistence file.
_DIGEST_VERSION = b"rsqp-structure-fingerprint-v1"


@dataclass(frozen=True)
class StructureFingerprint:
    """Structure identity of a QP plus human-readable summaries.

    ``key`` alone decides cache identity; the remaining fields describe
    the structure for logs, reports and the persistence file. The
    sparsity strings are computed from ``(P, A, c)`` on first access.
    """

    key: str
    n: int
    m: int
    nnz_p: int
    nnz_a: int
    _source: tuple = field(repr=False, compare=False)

    @cached_property
    def p_string(self) -> str:
        P, _, c = self._source
        return sparsity_string(np.diff(P.indptr), c)

    @cached_property
    def a_string(self) -> str:
        _, A, c = self._source
        return sparsity_string(np.diff(A.indptr), c)

    @cached_property
    def kkt_string(self) -> str:
        P, A, c = self._source
        return sparsity_string(_kkt_row_nnz(P, A), c)

    def __getstate__(self) -> dict:
        # Ship the strings, not the matrices they are derived from.
        state = dict(self.__dict__, _source=None)
        for name in ("p_string", "a_string", "kkt_string"):
            state[name] = getattr(self, name)
        return state

    @property
    def nnz(self) -> int:
        """Total non-zeros ``nnz(P) + nnz(A)`` — the paper's size measure."""
        return self.nnz_p + self.nnz_a

    def __str__(self) -> str:
        return (f"{self.key[:12]} (n={self.n}, m={self.m}, "
                f"nnz={self.nnz})")


def sparsity_string(row_nnz: np.ndarray, c: int) -> str:
    """Bucketed sparsity string for a sequence of per-row nnz counts.

    Same alphabet as :func:`repro.encoding.encode_row_nnz` (``a`` for
    <=1 non-zero, doubling per letter, ``$`` for full-width chunks).
    """
    return "".join(encode_row_nnz(int(k), c) for k in row_nnz)


def _kkt_row_nnz(P, A) -> np.ndarray:
    """Per-row non-zero counts of the full KKT matrix (paper eq. 2).

    ``K = [[P + sigma I, A'], [A, -rho^-1 I]]`` — derived purely from
    the ``P``/``A`` patterns without assembling the matrix:
    row ``i < n`` holds ``P``'s row-i off/on-diagonal entries, the
    regularized diagonal (merged if ``P`` stores it explicitly) and
    column ``i`` of ``A``; row ``n + j`` holds ``A``'s row ``j`` plus
    its own ``-rho^-1`` diagonal entry.
    """
    n = P.shape[0]
    p_rows = np.diff(P.indptr)
    rows, cols, _ = P.to_coo()
    diag_present = np.zeros(n, dtype=bool)
    diag_present[rows[rows == cols]] = True
    at_rows = np.bincount(A.indices, minlength=n)
    top = p_rows + np.where(diag_present, 0, 1) + at_rows
    bottom = np.diff(A.indptr) + 1
    return np.concatenate([top, bottom])


def fingerprint_problem(problem: QProblem, *,
                        c: int = 16) -> StructureFingerprint:
    """Fingerprint a QP's structure.

    Parameters
    ----------
    problem:
        The QP; only its dimensions and CSR patterns are read.
    c:
        Datapath width used for the *display* sparsity strings. It
        does not enter the key — two calls with different ``c`` return
        the same ``key`` with differently bucketed string summaries,
        so the serving cache stays consistent however the width is
        later chosen.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(_DIGEST_VERSION)
    h.update(np.int64(problem.n).tobytes())
    h.update(np.int64(problem.m).tobytes())
    for matrix in (problem.P, problem.A):
        h.update(np.ascontiguousarray(matrix.indptr, dtype=np.int64)
                 .tobytes())
        h.update(np.ascontiguousarray(matrix.indices, dtype=np.int64)
                 .tobytes())
    return StructureFingerprint(
        key=h.hexdigest(),
        n=problem.n,
        m=problem.m,
        nnz_p=problem.P.nnz,
        nnz_a=problem.A.nnz,
        _source=(problem.P, problem.A, c),
    )
