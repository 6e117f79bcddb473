"""Modified Ruiz equilibration, as used by OSQP.

Scaling replaces the problem ``(P, q, A, l, u)`` with

.. math::

    \\bar P = c D P D, \\quad \\bar q = c D q, \\quad
    \\bar A = E A D, \\quad \\bar l = E l, \\quad \\bar u = E u

where ``D``/``E`` are positive diagonal matrices equilibrating the
infinity norms of the columns of the stacked matrix ``[[P, A'], [A, 0]]``
and ``c`` normalizes the cost. Solutions map back as ``x = D x̄``,
``z = E^{-1} z̄``, ``y = E ȳ / c``. One body scales B problems of one
structure lane-minor (:func:`ruiz_equilibrate_batch`); the reference
solvers' :func:`ruiz_equilibrate` is its one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ShapeError
from ..sparse import CSRMatrix, kernels
from .problem import QProblem

__all__ = ["Scaling", "RuizPlan", "ruiz_equilibrate", "ruiz_equilibrate_batch",
           "lane_minor", "numpy_ruiz"]

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
    l_s[l == -np.inf] = -np.inf
    u_s[u == np.inf] = np.inf
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
    so a bound card (:class:`repro.hw.card.BatchAccelerator`, solo or
    batched) computes it once and reuses it for every numeric refresh
    of the same structure. That includes ``A'``: its pattern and the
    permutation gathering its values from ``A``'s. Every lane's scaled
    matrices share the structure's index arrays.
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
    #: The power iteration's start vectors (:func:`repro.solver.host.
    #: power_start`), drawn on first use.
    power_start: tuple | None = field(default=None, repr=False,
                                      compare=False)
    #: The last accepted problem's index arrays, keyed by ``id`` of the
    #: structure's array they equal.
    _accepted: dict = field(default_factory=dict, repr=False,
                            compare=False)

    @classmethod
    def for_problem(cls, problem: QProblem) -> "RuizPlan":
        n, m = problem.n, problem.m
        P, A = problem.P, problem.A
        p_row = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
        a_row = np.repeat(np.arange(m, dtype=np.int64), np.diff(A.indptr))
        # int64 and contiguous: the engine's k_ruiz reads them, and
        # k_power reads the A' pattern with P's and A's own.
        rid = np.concatenate([p_row, n + a_row])
        cid = np.concatenate([P.indices, A.indices]).astype(np.int64)
        order, at_indices, at_indptr = A.transpose_pattern()
        return cls(structure=problem, nnz_p=P.nnz, rid=rid, cid=cid,
                   a_row=a_row,
                   p_diag=np.flatnonzero(p_row == P.indices),
                   stacked_by_col=_segment_plan(cid, n),
                   a_by_row=_segment_plan(a_row, m),
                   p_by_col=_segment_plan(P.indices, n),
                   at_pattern=(order,
                               np.ascontiguousarray(at_indices,
                                                    dtype=np.int64),
                               np.ascontiguousarray(at_indptr,
                                                    dtype=np.int64)))

    def check(self, problem: QProblem) -> None:
        """Raise :class:`ShapeError` unless ``problem`` has the plan's
        dimensions and ``P`` / ``A`` patterns. An index array that *is*
        the plan's, or the last accepted problem's, passes without a
        value comparison (index arrays are never mutated in place)."""
        structure = self.structure
        if problem.n != structure.n or problem.m != structure.m:
            raise ShapeError(
                f"bound to n={structure.n}, m={structure.m}; got "
                f"n={problem.n}, m={problem.m}")
        accepted = self._accepted
        for name, arr, known in (
                ("P", problem.P.indptr, structure.P.indptr),
                ("P", problem.P.indices, structure.P.indices),
                ("A", problem.A.indptr, structure.A.indptr),
                ("A", problem.A.indices, structure.A.indices)):
            if arr is known or accepted.get(id(known)) is arr:
                continue
            if not np.array_equal(arr, known):
                raise ShapeError(
                    f"sparsity pattern of {name} changed; a bound machine "
                    "only accepts same-structure numeric updates")
            accepted[id(known)] = arr

    def at_values(self, a_vals: np.ndarray) -> np.ndarray:
        """``A'``'s values from ``A``'s, lane-minor: ``(nnz,)`` or
        ``(nnz, B)``. The gather :meth:`CSRMatrix.transpose` does,
        bit for bit."""
        return a_vals[self.at_pattern[0]] + 0.0


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
    c = np.ones(lanes)
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


def lane_minor(problems) -> tuple:
    """``(vals, q, l, u)`` of problems of one structure, lane-minor:
    ``P`` then ``A`` values ``(nnz, B)``, costs ``(n, B)``, bounds
    ``(m, B)``. ``vals`` and ``q`` are new arrays (the Ruiz pass scales
    them in place); at one lane the bounds are views, not stacks."""
    columns = [(np.concatenate([pr.P.data, pr.A.data]), pr.q, pr.l, pr.u)
               for pr in problems]
    if len(columns) == 1:
        vals, q, l, u = columns[0]
        return vals[:, None], q[:, None].copy(), l[:, None], u[:, None]
    return tuple(np.stack(arrays, axis=1) for arrays in zip(*columns))


def _scaled(problem: QProblem, vals: np.ndarray, q: np.ndarray,
            de: np.ndarray, c: float, plan: RuizPlan, l: np.ndarray,
            u: np.ndarray) -> Scaling:
    """One problem's :class:`Scaling` from its lane of :func:`_ruiz`
    and its scaled bounds ``l`` / ``u``, over the plan's pattern."""
    n = problem.n
    P, A = plan.structure.P, plan.structure.A
    nnz_p = plan.nnz_p
    scaling = Scaling(problem=None, d=np.ascontiguousarray(de[:n]),
                      e=np.ascontiguousarray(de[n:]), c=float(c), plan=plan)
    p_mat = CSRMatrix(P.shape, np.ascontiguousarray(vals[:nnz_p]),
                      P.indices, P.indptr, check=False)
    a_mat = CSRMatrix(A.shape, np.ascontiguousarray(vals[nnz_p:]),
                      A.indices, A.indptr, check=False)
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
    scalings are the elementwise multiplies :meth:`CSRMatrix.
    scale_rows` / ``scale_cols`` perform and the infinity norms are
    order-insensitive maxima, so the result is bit-identical to
    equilibrating through matrix objects. It is the one-lane
    :func:`ruiz_equilibrate_batch`; a cached :class:`RuizPlan` skips
    the pattern analysis (a problem of another structure than the
    plan's raises :class:`ShapeError`).
    """
    return ruiz_equilibrate_batch([problem], iterations, plan=plan)[0][0]


def ruiz_equilibrate_batch(problems, iterations: int = 10, *,
                           plan: RuizPlan | None = None) -> tuple:
    """Equilibrate B problems of one sparsity structure in one pass.

    The lanes' values run through one iteration stacked lane-minor,
    ``(nnz, B)``, so each lane's :class:`Scaling` is bit-identical to
    the one-lane call on that problem alone. Returns ``(scalings, vals,
    q, l, u)``: the B scalings and the lane-minor arrays they were cut
    from — the scaled ``P`` then ``A`` values ``(nnz, B)``, costs
    ``(n, B)`` and bounds ``(m, B)``. ``plan`` is derived from the first
    problem when omitted; every problem is checked against the plan's
    structure before any scaling runs (:class:`ShapeError` on a
    mismatch, see :meth:`RuizPlan.check`).
    """
    problems = list(problems)
    if not problems:
        raise ValueError("ruiz_equilibrate_batch needs at least one problem")
    if plan is None:
        plan = RuizPlan.for_problem(problems[0])
    for pr in problems:
        plan.check(pr)
    vals, q, l, u = lane_minor(problems)
    vals, q, de, c = _ruiz(vals, q, plan, iterations)
    l, u = _scale_bounds(de[plan.structure.n:], l, u)
    scalings = [_scaled(pr, vals[:, b], q[:, b], de[:, b], c[b], plan,
                        l[:, b], u[:, b])
                for b, pr in enumerate(problems)]
    return scalings, vals, q, l, u
