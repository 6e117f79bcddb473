"""Modified Ruiz equilibration, as used by OSQP.

Scaling replaces the problem ``(P, q, A, l, u)`` with

.. math::

    \\bar P = c D P D, \\quad \\bar q = c D q, \\quad
    \\bar A = E A D, \\quad \\bar l = E l, \\quad \\bar u = E u

where ``D``/``E`` are positive diagonal matrices equilibrating the
infinity norms of the columns of the stacked matrix ``[[P, A'], [A, 0]]``
and ``c`` normalizes the cost. Solutions map back as ``x = D x̄``,
``z = E^{-1} z̄``, ``y = E ȳ / c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError
from ..sparse import CSRMatrix, kernels
from .problem import QProblem, check_same_structure

__all__ = ["Scaling", "RuizPlan", "ruiz_equilibrate", "ruiz_equilibrate_batch",
           "numpy_ruiz"]

#: Bounds on individual scaling factors (same spirit as OSQP's limits).
_MIN_SCALE = 1e-4
_MAX_SCALE = 1e4


@dataclass
class Scaling:
    """Result of equilibration: the scaled problem plus the scaling data."""

    problem: QProblem
    d: np.ndarray      # variable scaling (length n)
    e: np.ndarray      # constraint scaling (length m)
    c: float           # cost scaling
    plan: "RuizPlan"   # the structure's plan the scaling was derived with

    @property
    def dinv(self) -> np.ndarray:
        return 1.0 / self.d

    @property
    def einv(self) -> np.ndarray:
        return 1.0 / self.e

    # -- mapping scaled iterates back to the original space ------------
    def unscale_x(self, x_bar) -> np.ndarray:
        return self.d * x_bar

    def unscale_z(self, z_bar) -> np.ndarray:
        return self.einv * z_bar

    def unscale_y(self, y_bar) -> np.ndarray:
        return self.e * y_bar / self.c

    # -- mapping original-space values into the scaled space -----------
    def scale_x(self, x) -> np.ndarray:
        return self.dinv * x

    def scale_z(self, z) -> np.ndarray:
        return self.e * z

    def scale_y(self, y) -> np.ndarray:
        return self.c * self.einv * y

    def scale_bounds(self, l, u) -> tuple[np.ndarray, np.ndarray]:
        """``(E l, E u)`` with infinite bounds kept infinite."""
        return _scale_bounds(self.e, l, u)


def _scale_bounds(e, l, u) -> tuple[np.ndarray, np.ndarray]:
    """``(E l, E u)`` with infinite bounds kept infinite; elementwise,
    so lane-minor ``(m, B)`` operands scale every lane at once."""
    with np.errstate(invalid="ignore"):
        l_s = e * l
        u_s = e * u
    l_s[np.isneginf(l)] = -np.inf
    u_s[np.isposinf(u)] = np.inf
    return l_s, u_s


def _limit(v: np.ndarray) -> np.ndarray:
    """Guard scaling factors: unit scale for empty rows/cols, clamp range."""
    v = np.where(v == 0.0, 1.0, v)
    return np.minimum(np.maximum(v, _MIN_SCALE), _MAX_SCALE)


def _segment_plan(group_ids: np.ndarray, size: int):
    """Precompute a grouping of entries by ``group_ids`` for segment maxima.

    Returns ``(order, starts, present, size)``: ``order`` sorts entries
    by group, ``starts`` marks each group's first sorted position, and
    ``present`` lists the group ids that actually occur. The sparsity
    pattern is loop invariant, so one plan serves every equilibration
    iteration.
    """
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    if sorted_ids.size:
        starts = np.flatnonzero(
            np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    else:
        starts = np.zeros(0, dtype=np.intp)
    return order, starts, sorted_ids[starts], size


def _segment_max(values: np.ndarray, plan) -> np.ndarray:
    """Per-group maxima over ``values`` (1-D solo or ``(nnz, B)`` batch).

    Max over a set is order-insensitive, so regrouping cannot change
    any bit relative to an entry-order scan; groups with no entries
    report 0.0, matching an ``np.maximum.at`` accumulation into zeros.
    """
    order, starts, present, size = plan
    out = np.zeros((size,) + values.shape[1:])
    if starts.size:
        out[present] = np.maximum.reduceat(values[order], starts, axis=0)
    return out


@dataclass
class RuizPlan:
    """Pattern-derived index plans for :func:`ruiz_equilibrate`.

    Everything here depends only on the sparsity structure of ``(P, A)``,
    so a bound accelerator (:meth:`repro.hw.accelerator.Accelerator.
    refresh`) or a batched one (:class:`repro.batch.BatchAccelerator`)
    computes it once and reuses it for every numeric refresh of the
    same structure. That includes ``A'``: its pattern and the
    permutation gathering its values from ``A``'s.
    """

    structure: QProblem       # the problem the plan was derived from
    nnz_p: int
    rid: np.ndarray           # per-entry row-factor index into [d, e]
    cid: np.ndarray           # per-entry column-factor index into d
    a_row: np.ndarray         # row of each A entry
    p_diag: np.ndarray        # positions of P's diagonal entries
    stacked_by_col: tuple     # segment plan over P&A entries by column
    a_by_row: tuple           # segment plan over A entries by row
    p_by_col: tuple           # segment plan over P entries by column
    at_pattern: tuple         # A.transpose_pattern(): A' and its gather

    @classmethod
    def for_problem(cls, problem: QProblem) -> "RuizPlan":
        n, m = problem.n, problem.m
        P, A = problem.P, problem.A
        p_row = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
        a_row = np.repeat(np.arange(m, dtype=np.int64), np.diff(A.indptr))
        # int64 and contiguous: the engine's k_ruiz reads them.
        rid = np.concatenate([p_row, n + a_row])
        cid = np.concatenate([P.indices, A.indices]).astype(np.int64)
        return cls(structure=problem, nnz_p=P.nnz, rid=rid, cid=cid,
                   a_row=a_row,
                   p_diag=np.flatnonzero(p_row == P.indices),
                   stacked_by_col=_segment_plan(cid, n),
                   a_by_row=_segment_plan(a_row, m),
                   p_by_col=_segment_plan(P.indices, n),
                   at_pattern=A.transpose_pattern())

    def at_values(self, a_vals: np.ndarray) -> np.ndarray:
        """``A'``'s values from ``A``'s, lane-minor: ``(nnz,)`` or
        ``(nnz, B)``. The gather :meth:`CSRMatrix.transpose` does,
        bit for bit."""
        return a_vals[self.at_pattern[0]] + 0.0

    def transpose(self, a_vals: np.ndarray) -> CSRMatrix:
        """``A'`` of the structure's ``A`` carrying the values
        ``a_vals``, without re-deriving the pattern."""
        _, indices, indptr = self.at_pattern
        m, n = self.structure.A.shape
        return CSRMatrix((n, m), self.at_values(a_vals), indices, indptr,
                         check=False)


def _ruiz(vals: np.ndarray, q: np.ndarray, plan: RuizPlan,
          iterations: int):
    """The modified Ruiz iteration over lane-minor values.

    ``vals`` stacks P's and A's values (``vals[:nnz_p]`` is P) and ``q``
    is the cost vector: 1-D for one problem, ``(nnz, B)`` / ``(n, B)``
    for B problems of the plan's structure. Returns the scaled
    ``(vals, q)``, the stacked scaling ``[d, e]`` and the cost scale
    ``c`` (a float for one problem, ``(B,)`` for B); ``vals`` and ``q``
    belong to the caller and may be scaled in place.

    With a C compiler this is one call of the engine's ``k_ruiz``
    (:mod:`repro.hw.cjit`), whose lane-minor loop is the solo loop at
    ``B == 1``; without one, :func:`numpy_ruiz`. Both give the same
    bits.
    """
    library = kernels.engine()
    if library is None:
        return numpy_ruiz(vals, q, plan, iterations)
    n, m, nnz = plan.structure.n, plan.structure.m, plan.rid.size
    lanes = vals.shape[1:]
    if vals.shape != (nnz,) + lanes or q.shape != (n,) + lanes:
        raise ShapeError(f"ruiz: plan is for nnz={nnz}, n={n}; got values "
                         f"{vals.shape} and q {q.shape}")
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    width = lanes[0] if lanes else 1
    de = np.empty((n + m,) + lanes)
    c = np.empty(width)
    # Scratch per call: a plan may be shared between threads.
    work = np.empty((2 * n + m + 1) * width)
    buf = library.ffi.from_buffer
    library.lib.k_ruiz(
        buf("double[]", vals), buf("double[]", q), buf("double[]", de),
        buf("double[]", c), buf("long[]", plan.rid),
        buf("long[]", plan.cid), n, m, plan.nnz_p, nnz, width, iterations,
        _MIN_SCALE, _MAX_SCALE, buf("double[]", work))
    return vals, q, de, (c if lanes else c[0])


def numpy_ruiz(vals: np.ndarray, q: np.ndarray, plan: RuizPlan,
               iterations: int):
    """The no-compiler implementation of :func:`_ruiz`, same bits.

    Every step is elementwise per lane or an order-free maximum, and
    each lane's cost mean reduces a contiguous row, so lane ``b`` of a
    batched call is the solo call on lane ``b``'s data, bit for bit.
    """
    n, m, nnz_p = plan.structure.n, plan.structure.m, plan.nnz_p
    lanes = vals.shape[1:]
    # `de` holds [delta for the n variables, delta for the m
    # constraints]; `rid` maps each entry to its row factor in it (A
    # rows offset by n) and `cid` to its column factor.
    de = np.ones((n + m,) + lanes)
    c = 1.0
    rid, cid = plan.rid, plan.cid
    for _ in range(iterations):
        # Column infinity norms of the stacked matrix [[P, A'], [A, 0]]:
        # the first n columns see P's and A's columns, the last m see
        # A's rows.
        abs_vals = np.abs(vals)
        norm_n = _segment_max(abs_vals, plan.stacked_by_col)
        norm_m = _segment_max(abs_vals[nnz_p:], plan.a_by_row)
        ext = 1.0 / np.sqrt(_limit(np.concatenate([norm_n, norm_m])))
        delta_n = ext[:n]

        vals = (vals * ext[rid]) * delta_n[cid]
        q = q * delta_n
        de *= ext

        # Cost normalization (OSQP's gamma step) applies to P only.
        if not n:
            continue
        p_col_norms = _segment_max(np.abs(vals[:nnz_p]), plan.p_by_col)
        mean_p = np.add.reduce(np.ascontiguousarray(p_col_norms.T),
                               axis=-1) / n
        # Per lane: max(mean_p, q_norm), a NaN q_norm losing; a zero
        # denominator (P and q vanish) leaves the cost unscaled. Plain
        # ufuncs, so a solo call stays on cheap numpy scalars.
        denominator = np.maximum(mean_p,
                                 np.fmax(np.abs(q).max(axis=0), 0.0))
        denominator = denominator + (denominator == 0.0)
        gamma = 1.0 / np.minimum(np.maximum(denominator, _MIN_SCALE),
                                 _MAX_SCALE)
        vals[:nnz_p] *= gamma
        q = q * gamma
        c = c * gamma
    return vals, q, de, c


def _scaled(problem: QProblem, vals: np.ndarray, q: np.ndarray,
            de: np.ndarray, c, plan: RuizPlan, l: np.ndarray,
            u: np.ndarray) -> Scaling:
    """One problem's :class:`Scaling` from its share of :func:`_ruiz`
    and its scaled bounds ``l`` / ``u``."""
    n = problem.n
    P, A = problem.P, problem.A
    nnz_p = P.nnz
    scaling = Scaling(problem=None, d=np.ascontiguousarray(de[:n]),
                      e=np.ascontiguousarray(de[n:]), c=float(c), plan=plan)
    p_mat = CSRMatrix(P.shape, np.ascontiguousarray(vals[:nnz_p]),
                      P.indices.copy(), P.indptr.copy(), check=False)
    a_mat = CSRMatrix(A.shape, np.ascontiguousarray(vals[nnz_p:]),
                      A.indices.copy(), A.indptr.copy(), check=False)
    # Diagonal scaling of a validated problem preserves every QProblem
    # invariant, so skip re-validation (it would transpose P per call).
    scaling.problem = QProblem._trusted(
        p_mat, np.ascontiguousarray(q), a_mat, np.ascontiguousarray(l),
        np.ascontiguousarray(u), problem.name)
    return scaling


def ruiz_equilibrate(problem: QProblem, iterations: int = 10, *,
                     plan: RuizPlan | None = None) -> Scaling:
    """Equilibrate a QP with ``iterations`` rounds of modified Ruiz scaling.

    ``iterations == 0`` returns an identity scaling (useful to disable
    scaling uniformly through one code path).

    The iteration works on raw value arrays with index plans computed
    once from the (loop-invariant) sparsity pattern: the row/column
    scalings are the same two elementwise multiplies
    ``data * delta[row_of]`` then ``data * delta[indices]`` that
    :meth:`CSRMatrix.scale_rows` / ``scale_cols`` perform, and the
    infinity norms are order-insensitive maxima — so the result is
    bit-identical to equilibrating through matrix objects while doing
    none of the per-iteration structure copies. With a C compiler the
    whole iteration is one engine call (:func:`_ruiz`). This function
    sits on the session re-solve hot path (:mod:`repro.serving.session`);
    callers that equilibrate one structure repeatedly pass a cached
    :class:`RuizPlan` to skip even the pattern analysis. A problem of
    another structure than the plan's raises :class:`ShapeError`.
    """
    if plan is None:
        plan = RuizPlan.for_problem(problem)
    else:
        check_same_structure(plan.structure, problem)
    vals, q, de, c = _ruiz(np.concatenate([problem.P.data, problem.A.data]),
                           problem.q.copy(), plan, iterations)
    return _scaled(problem, vals, q, de, c, plan,
                   *_scale_bounds(de[problem.n:], problem.l, problem.u))


def ruiz_equilibrate_batch(problems, iterations: int = 10, *,
                           plan: RuizPlan | None = None) -> tuple:
    """Equilibrate B problems of one sparsity structure in one pass.

    The lanes' values run through the solo iteration stacked
    lane-minor, ``(nnz, B)``, so each lane's :class:`Scaling` is
    bit-identical to :func:`ruiz_equilibrate` on that problem alone.
    Returns ``(scalings, vals, q, l, u)``: the B scalings and the
    lane-minor arrays they were cut from — the scaled ``P`` then ``A``
    values ``(nnz, B)``, costs ``(n, B)`` and bounds ``(m, B)``.
    ``plan`` is derived from the first problem when omitted; every
    problem is checked against the plan's structure before any scaling
    runs (:class:`ShapeError` on a mismatch).
    """
    problems = list(problems)
    if not problems:
        raise ValueError("ruiz_equilibrate_batch needs at least one problem")
    if plan is None:
        plan = RuizPlan.for_problem(problems[0])
    for pr in problems:
        check_same_structure(plan.structure, pr)
    vals = np.stack([np.concatenate([pr.P.data, pr.A.data])
                     for pr in problems], axis=1)
    q = np.stack([pr.q for pr in problems], axis=1)
    vals, q, de, c = _ruiz(vals, q, plan, iterations)
    c = np.broadcast_to(c, len(problems))
    l, u = _scale_bounds(de[plan.structure.n:],
                         np.stack([pr.l for pr in problems], axis=1),
                         np.stack([pr.u for pr in problems], axis=1))
    scalings = [_scaled(pr, vals[:, b], q[:, b], de[:, b], c[b], plan,
                        l[:, b], u[:, b])
                for b, pr in enumerate(problems)]
    return scalings, vals, q, l, u
