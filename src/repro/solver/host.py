"""Host setup shared by the reference solvers and the accelerators.

In the paper's deployment the CPU host scales the problem, picks the
step sizes and downloads the data; the card runs only the loop. These
plain functions are that step-size choice (initial and between
segments) and the parametric vector update, called by
:class:`~repro.solver.OSQPSolver`, :class:`~repro.solver.PDQPSolver`
and both simulated cards (:mod:`repro.hw.accelerator`,
:mod:`repro.hw.pdqp`), so one place decides how the host derives
device data whatever the front door. Ruiz scaling itself is
:func:`repro.qp.ruiz_equilibrate`.

The step functions work over lane-minor data: bounds ``(m,)`` and
matrix values ``(nnz,)`` for one problem, ``(m, B)`` and ``(nnz, B)``
for B problems of one structure (column ``b`` is lane ``b``). Every
operation is elementwise per lane or a per-lane accumulation in entry
order, so lane ``b`` of a stacked call is the one-problem call on lane
``b``'s data, bit for bit — the batched card's refresh is one call.

PDQP's operator norms are one such call for every lane of a load:
:func:`estimate_operator_norms` runs the whole power iteration in the
engine's ``k_power`` (:mod:`repro.hw.cjit`), or in its numpy twin
:func:`numpy_power` without a compiler, and sums every product and
norm in the kernels' sequential order (:mod:`repro.sparse.kernels`),
never through BLAS; the reference :class:`~repro.solver.PDQPSolver`
makes the one-lane call. Its start vectors are drawn once per
structure and kept on the :class:`~repro.qp.RuizPlan`
(:func:`power_start`).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..exceptions import ShapeError
from ..qp import QProblem, RuizPlan, Scaling, updated_vectors
from ..sparse import kernels
from ..sparse.kernels import CSRKernel, numpy_dot
from .settings import RHO_EQ_FACTOR, RHO_MAX, RHO_MIN

__all__ = ["balanced_step", "rho_vector", "admm_initial_step",
           "jacobi_preconditioner", "admm_step_vectors", "power_start",
           "estimate_operator_norms", "numpy_power", "pdqp_step_sizes",
           "pdqp_initial_steps", "pdqp_step_registers", "apply_update"]

DIV_GUARD = 1e-15


def balanced_step(step: float, rp: float, rdual: float, npz: float,
                  nd_all: float, lo: float, hi: float) -> float:
    """Residual-balanced step-size estimate from the primal / dual
    residuals ``rp`` / ``rdual`` and their norms ``npz`` / ``nd_all``:
    OSQP's adaptive-rho rule, also PDQP's primal-weight rule, clipped
    to ``[lo, hi]``."""
    pri_norm = max(npz, DIV_GUARD)
    dua_norm = max(nd_all, DIV_GUARD)
    ratio = (rp / pri_norm) / max(rdual / dua_norm, DIV_GUARD)
    # np.sqrt's and np.clip's results on Python floats: a negative ratio
    # gives NaN, and a NaN estimate passes through the clip.
    estimate = step * (math.sqrt(ratio) if ratio >= 0.0 else math.nan)
    return float(min(max(estimate, lo), hi))


def rho_vector(l: np.ndarray, u: np.ndarray, rho) -> np.ndarray:
    """Per-constraint ADMM step for the scaled bounds ``l`` / ``u``
    (lane-minor; ``rho`` one float, or ``(B,)`` per lane): ``rho``
    clipped to ``[RHO_MIN, RHO_MAX]``, stiffened by ``RHO_EQ_FACTOR``
    on equality rows and ``RHO_MIN`` on free rows."""
    rho = np.minimum(np.maximum(rho, RHO_MIN), RHO_MAX)
    vec = np.where(l == u, np.minimum(np.maximum(rho * RHO_EQ_FACTOR,
                                                 RHO_MIN), RHO_MAX), rho)
    vec[(l == -np.inf) & (u == np.inf)] = RHO_MIN
    return vec


def admm_initial_step(l: np.ndarray, u: np.ndarray,
                      settings) -> Tuple[float, np.ndarray]:
    """``(rho, rho_vec)`` an ADMM solve on the scaled bounds ``l`` /
    ``u`` starts from (``settings.rho``)."""
    rho = float(settings.rho)
    return rho, rho_vector(l, u, rho)


def jacobi_preconditioner(plan: RuizPlan, p_vals: np.ndarray,
                          a_vals: np.ndarray, sigma: float,
                          rho_vec: np.ndarray) -> np.ndarray:
    """``1 / diag(K)`` for ``K = P + sigma I + A' diag(rho) A``, with
    the sparsity pattern of ``plan``'s structure carrying the
    lane-minor values ``p_vals`` / ``a_vals`` (P's diagonal entries and
    A's row ids come from the plan). The same float ops as
    :meth:`repro.qp.ReducedKKTOperator.diagonal`: ``A``'s columns
    accumulate their squared weighted entries in entry order."""
    P, A = plan.structure.P, plan.structure.A
    n, lanes = P.shape[0], np.shape(p_vals)[1:]
    width = lanes[0] if lanes else 1
    diag_k = np.zeros((n,) + lanes)
    diag_k[P.indices[plan.p_diag]] = p_vals[plan.p_diag]
    # (entry, lane) bins, entry-major: each lane sums in entry order.
    bins = (A.indices if width == 1 else
            (A.indices[:, None] * width + np.arange(width)).ravel())
    col_sq = np.bincount(
        bins, weights=np.ravel((a_vals * np.sqrt(rho_vec)[plan.a_row]) ** 2),
        minlength=n * width).reshape((n,) + lanes)
    return 1.0 / (diag_k + sigma + col_sq)


def admm_step_vectors(plan: RuizPlan, p_vals: np.ndarray,
                      a_vals: np.ndarray, sigma: float,
                      rho_vec: np.ndarray) -> dict:
    """The HBM vectors an ADMM step puts on the card (lane-minor): the
    rho vector, its inverse and the Jacobi preconditioner."""
    return {"rho": rho_vec, "rho_inv": 1.0 / rho_vec,
            "minv": jacobi_preconditioner(plan, p_vals, a_vals, sigma,
                                          rho_vec)}


def power_start(plan: RuizPlan) -> tuple:
    """``(start_a, start_p)``: the start vectors of the power iteration
    over ``plan``'s structure, drawn on first use and kept on the plan.

    ``np.random.default_rng(0).standard_normal``: the ``A`` pass's ``n``
    draws (only when there are rows and columns), then the ``P``
    pass's. NumPy does not promise a Generator's stream across versions
    (NEP 19); ``tests/test_host_steps.py`` pins the first values, so a
    stream change shows as a failure there and not as moved step
    sizes.
    """
    start = plan.power_start
    if start is None:
        n, m = plan.structure.n, plan.structure.m
        rng = np.random.default_rng(0)
        start_a = rng.standard_normal(n) if m > 0 and n > 0 else np.zeros(n)
        start = plan.power_start = (start_a, rng.standard_normal(n))
    return start


def estimate_operator_norms(plan: RuizPlan, vals: np.ndarray,
                            at: np.ndarray, *, iterations: int = 50
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Power-iteration estimates of ``||A||_2`` and ``lambda_max(P)``,
    one per lane: two ``(B,)`` arrays.

    ``vals`` are the lanes' ``P`` then ``A`` values and ``at`` their
    ``A'`` values (:meth:`RuizPlan.at_values`), lane-minor ``(nnz, B)``
    over ``plan``'s structure. Each pass starts from the plan's fixed
    vectors (:func:`power_start`), so a structure always gets the same
    step sizes for the same values — the property the serving cache and
    the bit-identity tests rely on. Every product and every norm sums in
    the kernels' sequential order (:mod:`repro.sparse.kernels`), and a
    lane stops once its iterate vanishes (norm ``<= DIV_GUARD``).

    With a C compiler this is one call of the engine's ``k_power``
    (:mod:`repro.hw.cjit`), whose lane-minor loop is the solo loop at
    ``B == 1``; without one, :func:`numpy_power`. Both give the same
    bits, and lane ``b`` is the one-lane call on lane ``b``'s data.
    """
    P, A = plan.structure.P, plan.structure.A
    width = np.shape(vals)[1]
    if np.shape(vals) != (plan.rid.size, width) or \
            np.shape(at) != (A.nnz, width):
        raise ShapeError(f"power iteration: plan is for nnz={plan.rid.size}"
                         f" (A: {A.nnz}); got values {np.shape(vals)} and "
                         f"A' {np.shape(at)}")
    library = kernels.engine()
    if library is None:
        return numpy_power(plan, vals, at, iterations)
    n, m = P.shape[0], A.shape[0]
    _, at_col, at_ip = plan.at_pattern
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    at = np.ascontiguousarray(at, dtype=np.float64)
    start_a, start_p = power_start(plan)
    norm_a, lam_p = np.empty(width), np.empty(width)
    # Scratch per call: a plan may be shared between threads.
    work = np.empty((2 * n + m + 2) * width)
    buf = library.ffi.from_buffer
    library.lib.k_power(
        buf("double[]", vals), buf("double[]", at),
        buf("long[]", P.indptr), buf("long[]", P.indices),
        buf("long[]", A.indptr), buf("long[]", A.indices),
        buf("long[]", at_ip), buf("long[]", at_col),
        buf("double[]", start_a), buf("double[]", start_p), n, m,
        plan.nnz_p, width, iterations, DIV_GUARD, buf("double[]", norm_a),
        buf("double[]", lam_p), buf("double[]", work))
    return norm_a, lam_p


def numpy_power(plan: RuizPlan, vals: np.ndarray, at: np.ndarray,
                iterations: int) -> Tuple[np.ndarray, np.ndarray]:
    """The no-compiler implementation of :func:`estimate_operator_norms`,
    same bits: the products are :meth:`CSRKernel.numpy_apply`, the norms
    ``sqrt`` of :func:`~repro.sparse.kernels.numpy_dot`, and a stopped
    lane's vector is kept by masked writes."""
    P, A = plan.structure.P, plan.structure.A
    n, m = P.shape[0], A.shape[0]
    width = np.shape(vals)[1]
    start_a, start_p = power_start(plan)
    norm_a, lam_p = np.zeros(width), np.zeros(width)
    if m > 0 and n > 0:
        _, at_col, at_ip = plan.at_pattern
        a_op = CSRKernel(A.shape, vals[plan.nnz_p:], A.indices, A.indptr)
        at_op = CSRKernel((n, m), at, at_col, at_ip)
        av, atav = np.empty((m, width)), np.empty((n, width))
        norm_a = np.sqrt(_numpy_power_pass(
            lambda v: at_op.numpy_apply(a_op.numpy_apply(v, av), atav),
            start_a, width, iterations))
    if n > 0:
        p_op = CSRKernel(P.shape, vals[:plan.nnz_p], P.indices, P.indptr)
        pv = np.empty((n, width))
        lam_p = _numpy_power_pass(lambda v: p_op.numpy_apply(v, pv),
                                  start_p, width, iterations)
    return norm_a, lam_p


def _numpy_power_pass(apply, start: np.ndarray, width: int,
                      iterations: int) -> np.ndarray:
    """``||v||`` per lane after up to ``iterations`` rounds of
    normalizing ``v`` (``start`` in every lane) and replacing it by
    ``apply(v)``; a lane stops, keeping ``v``, once its norm is
    ``<= DIV_GUARD``."""
    v = np.repeat(start[:, None], width, axis=1)
    live = np.ones(width, dtype=bool)
    for _ in range(iterations):
        nv = np.sqrt(numpy_dot(v, v))
        live &= ~(nv <= DIV_GUARD)
        if not live.any():
            break
        np.divide(v, nv, out=v, where=live)
        np.copyto(v, apply(v), where=live)
    return np.sqrt(numpy_dot(v, v))


def pdqp_step_sizes(omega: float, norm_a: float, lam_p: float,
                    tau_scale: float) -> Tuple[float, float]:
    """(tau, sigma) satisfying the Condat-Vu condition for ``omega``."""
    if norm_a <= DIV_GUARD:
        # No (or zero) constraints: pure gradient descent on the
        # quadratic; sigma is inert but must stay finite.
        sigma = omega
    else:
        sigma = omega / norm_a
    denom = omega * norm_a + lam_p
    tau = tau_scale / max(denom, DIV_GUARD)
    return tau, sigma


def pdqp_step_registers(tau, sigma) -> dict:
    """The scalar registers a PDQP step puts on the card: floats for
    one problem, ``(B,)`` arrays for B."""
    return {"neg_tau": -tau, "sigma": sigma, "sigma_inv": 1.0 / sigma,
            "neg_sigma": -sigma}


def pdqp_initial_steps(plan: RuizPlan, vals: np.ndarray, at: np.ndarray,
                       settings) -> list:
    """Per lane, ``(norm_a, lam_p, omega, tau, sigma)`` a PDQP solve
    starts from: the operator norms of the scaled problems whose ``P``
    then ``A`` values ``vals`` and ``A'`` values ``at`` are lane-minor
    ``(nnz, B)`` over ``plan``'s structure (one
    :func:`estimate_operator_norms` call), and the step sizes for
    ``settings.omega``."""
    norm_a, lam_p = estimate_operator_norms(
        plan, vals, at, iterations=settings.power_iterations)
    omega = float(settings.omega)
    return [(a, p, omega) + pdqp_step_sizes(omega, a, p, settings.tau_scale)
            for a, p in zip(norm_a.tolist(), lam_p.tolist())]


def apply_update(problem: QProblem, scaling: Scaling, q=None, l=None,
                   u=None) -> bool:
    """Install new ``q`` / ``l`` / ``u`` on ``problem`` and its scaled
    copy ``scaling.problem`` (the reference solvers' ``update``).

    Validates exactly as :func:`repro.qp.updated_vectors` does — a
    wrong length, a NaN bound or ``l > u`` raises
    :class:`~repro.exceptions.ShapeError` before anything changes.
    Returns whether the bounds changed.
    """
    q_new, l_new, u_new = updated_vectors(problem, q, l, u)
    work = scaling.problem
    if q is not None:
        problem.q = q_new.copy()
        work.q = scaling.c * scaling.d * q_new
    if l is None and u is None:
        return False
    problem.l = l_new.copy()
    problem.u = u_new.copy()
    work.l, work.u = scaling.scale_bounds(l_new, u_new)
    return True
