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
"""

from __future__ import annotations

import math
from functools import partial
from typing import Tuple

import numpy as np

from ..qp import QProblem, RuizPlan, Scaling, updated_vectors
from .settings import RHO_EQ_FACTOR, RHO_MAX, RHO_MIN

__all__ = ["balanced_step", "rho_vector", "admm_initial_step",
           "jacobi_preconditioner", "admm_step_vectors",
           "estimate_operator_norms", "pdqp_step_sizes",
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
    estimate = step * np.sqrt((rp / pri_norm)
                              / max(rdual / dua_norm, DIV_GUARD))
    return float(np.clip(estimate, lo, hi))


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


def estimate_operator_norms(p_mat, a_mat, at_mat, *,
                            iterations: int = 50,
                            seed: int = 0) -> Tuple[float, float]:
    """Power-iteration estimates of ``||A||_2`` and ``lambda_max(P)``.

    Deterministic (fixed seed) so a given structure always produces
    the same step sizes — the property the serving cache and the
    bit-identity tests rely on. Each product is a kernel closure bound
    once over persistent buffers (:meth:`repro.sparse.kernels.
    CSRKernel.bind`); a norm is ``sqrt(v.dot(v))``, which is what
    ``np.linalg.norm`` computes for a 1-D float64 vector.
    """
    rng = np.random.default_rng(seed)
    n = p_mat.shape[0]
    m = a_mat.shape[0]

    norm_a = 0.0
    if m > 0 and n > 0:
        v = rng.standard_normal(n)
        av = np.empty(m)
        norm_a = float(np.sqrt(max(_power_norm(
            v, (a_mat.kernel().bind(v, av), at_mat.kernel().bind(av, v)),
            iterations), 0.0)))

    lam_p = 0.0
    if n > 0:
        v = rng.standard_normal(n)
        pv = np.empty(n)
        lam_p = float(_power_norm(
            v, (p_mat.kernel().bind(v, pv), partial(np.copyto, v, pv)),
            iterations))
    return norm_a, lam_p


def _power_norm(v: np.ndarray, steps: tuple, iterations: int):
    """``||v||`` after up to ``iterations`` rounds of normalizing ``v``
    and running ``steps``, which leave the operator applied to it in
    ``v``; stops early once ``v`` vanishes."""
    for _ in range(iterations):
        nv = math.sqrt(v.dot(v))  # np.sqrt's bits, without its overhead
        if nv <= DIV_GUARD:
            break
        v /= nv
        for step in steps:
            step()
    return np.sqrt(v.dot(v))


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


def pdqp_initial_steps(work: QProblem, at, settings) -> tuple:
    """``(norm_a, lam_p, omega, tau, sigma)`` a PDQP solve starts from:
    the operator norms of the scaled problem ``work`` (``at`` is its
    ``A'``) and the step sizes for ``settings.omega``."""
    norm_a, lam_p = estimate_operator_norms(
        work.P, work.A, at, iterations=settings.power_iterations)
    omega = float(settings.omega)
    tau, sigma = pdqp_step_sizes(omega, norm_a, lam_p, settings.tau_scale)
    return norm_a, lam_p, omega, tau, sigma


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
