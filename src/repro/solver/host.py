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
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..qp import QProblem, Scaling, updated_vectors
from .settings import RHO_EQ_FACTOR, RHO_MAX, RHO_MIN

__all__ = ["balanced_step", "rho_vector", "admm_initial_step",
           "estimate_operator_norms", "pdqp_step_sizes",
           "pdqp_initial_steps", "apply_update"]

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


def rho_vector(work: QProblem, rho: float) -> np.ndarray:
    """Per-constraint ADMM step: ``rho`` clipped to ``[RHO_MIN,
    RHO_MAX]``, stiffened by ``RHO_EQ_FACTOR`` on equality rows and
    ``RHO_MIN`` on free rows of the scaled problem ``work``."""
    rho = float(np.clip(rho, RHO_MIN, RHO_MAX))
    vec = np.full(work.m, rho)
    vec[work.equality_mask()] = np.clip(rho * RHO_EQ_FACTOR, RHO_MIN,
                                        RHO_MAX)
    vec[np.isneginf(work.l) & np.isposinf(work.u)] = RHO_MIN
    return vec


def admm_initial_step(work: QProblem, settings) -> Tuple[float, np.ndarray]:
    """``(rho, rho_vec)`` an ADMM solve starts from (``settings.rho``)."""
    rho = float(settings.rho)
    return rho, rho_vector(work, rho)


def estimate_operator_norms(p_mat, a_mat, at_mat, *,
                            iterations: int = 50,
                            seed: int = 0) -> Tuple[float, float]:
    """Power-iteration estimates of ``||A||_2`` and ``lambda_max(P)``.

    Deterministic (fixed seed) so a given structure always produces
    the same step sizes — the property the serving cache and the
    bit-identity tests rely on.
    """
    rng = np.random.default_rng(seed)
    n = p_mat.shape[0]
    m = a_mat.shape[0]

    norm_a = 0.0
    if m > 0 and n > 0:
        v = rng.standard_normal(n)
        for _ in range(iterations):
            nv = float(np.linalg.norm(v))
            if nv <= DIV_GUARD:
                break
            v /= nv
            v = at_mat.matvec(a_mat.matvec(v))
        norm_a = float(np.sqrt(max(np.linalg.norm(v), 0.0)))

    lam_p = 0.0
    if n > 0:
        v = rng.standard_normal(n)
        for _ in range(iterations):
            nv = float(np.linalg.norm(v))
            if nv <= DIV_GUARD:
                break
            v /= nv
            v = p_mat.matvec(v)
        lam_p = float(np.linalg.norm(v))
    return norm_a, lam_p


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
