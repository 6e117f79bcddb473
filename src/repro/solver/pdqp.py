"""Restarted accelerated PDHG for QP (the PDQP algorithm), from scratch.

A factorization-free peer of the ADMM path (Lu & Yang, "A Practical
and Optimal First-Order Method for Large-Scale Convex Quadratic
Programming"): primal-dual hybrid gradient with the quadratic handled
by linearization (Condat-Vu), Halpern anchoring for the accelerated
O(1/k) residual rate, adaptive restarts, and a primal weight balanced
from the residual ratio. The method touches the problem only through
``P x``, ``A x``, ``A' y`` and the box projection — exactly the kernel
set of the RSQP datapath, which is why
:func:`repro.hw.compiler.compile_pdqp_program` can lower this loop
onto the customized accelerator without assembling a KKT system.

One iteration on the (Ruiz-scaled) problem, with step sizes
``sigma = omega / ||A||`` and ``tau = tau_scale / (omega ||A|| +
lambda_max(P))`` so the Condat-Vu condition ``tau (sigma ||A||^2 +
lambda_max(P)) < 1`` holds:

.. code-block:: text

    x+ = x - tau (P x + q + A' y)          # linearized primal step
    xb = 2 x+ - x                          # extrapolation
    v  = y + sigma (A xb)
    y+ = v - sigma clip(v / sigma, l, u)   # prox of the box conjugate
    (x, y) <- lam (x0, y0) + (1 - lam) (x+, y+)   # Halpern anchor

with ``lam = 1 / (k + 2)`` reset (together with the anchor
``(x0, y0)``) at every restart. Termination follows the OSQP
convention on unscaled residuals with ``z = clip(A x, l, u)``; the
method carries no infeasibility certificates (an infeasible problem
terminates at ``max_iter``).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..qp import QProblem, ruiz_equilibrate
from .algorithms import SolverAlgorithm, register_algorithm
from .host import (DIV_GUARD, apply_update, balanced_step,
                   pdqp_initial_steps, pdqp_step_sizes)
from .results import SolverInfo, SolverResult, SolverStatus
from .settings import OMEGA_MAX, OMEGA_MIN, PDQPSettings

__all__ = ["PDQPSolver", "solve_pdqp"]

#: Residuals within this factor of the tolerance at max_iter still count
#: as an (inaccurate) solution — same convention as the ADMM solver.
_INACCURATE_FACTOR = 10.0


class PDQPSolver:
    """Reusable PDQP solver: setup once, solve (and re-solve) many times.

    Mirrors :class:`repro.solver.OSQPSolver`'s shape: Ruiz scaling at
    construction, ``warm_start`` in the unscaled space, termination on
    unscaled residuals with the shared ``eps_abs``/``eps_rel``
    convention, and a :class:`~repro.solver.results.SolverResult`
    return value.
    """

    def __init__(self, problem: QProblem,
                 settings: Optional[PDQPSettings] = None):
        t0 = time.perf_counter()
        self.problem = problem
        self.settings = settings if settings is not None else PDQPSettings()
        self.scaling = ruiz_equilibrate(problem, self.settings.scaling)
        self.work = self.scaling.problem
        self.at = self.work.A.transpose()
        # The card's one-lane step-size call, over the same values.
        vals = np.concatenate([self.work.P.data, self.work.A.data])[:, None]
        (self.norm_a, self.lam_p, self.omega, self.tau,
         self.sigma) = pdqp_initial_steps(self.scaling.plan, vals,
                                          self.at.data[:, None],
                                          self.settings)[0]
        n, m = problem.n, problem.m
        self.x = np.zeros(n)
        self.y = np.zeros(m)
        self._l = np.nan_to_num(self.work.l, neginf=-1e30)
        self._u = np.nan_to_num(self.work.u, posinf=1e30)
        self._setup_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    def warm_start(self, x=None, y=None) -> None:
        """Provide initial iterates in the *original* (unscaled) space."""
        if x is not None:
            self.x = self.scaling.scale_x(np.asarray(x, dtype=np.float64))
        if y is not None:
            self.y = self.scaling.scale_y(np.asarray(y, dtype=np.float64))

    def update_omega(self, omega: float) -> None:
        """Install a new primal weight (recomputes both step sizes)."""
        self.omega = float(np.clip(omega, OMEGA_MIN, OMEGA_MAX))
        self.tau, self.sigma = pdqp_step_sizes(
            self.omega, self.norm_a, self.lam_p, self.settings.tau_scale)

    def update(self, q=None, l=None, u=None) -> None:
        """Update problem vectors in place (parametric re-solve).

        The peer of :meth:`repro.solver.OSQPSolver.update`: matrices —
        and therefore the operator-norm estimates and step sizes built
        from them — stay fixed while the cost vector and/or bounds
        change between solves. The current iterates (and the adapted
        primal weight) are kept, so the next :meth:`solve` is
        warm-started automatically.
        """
        if apply_update(self.problem, self.scaling, q, l, u):
            # The iteration's box projections read the clipped copies.
            self._l = np.nan_to_num(self.work.l, neginf=-1e30)
            self._u = np.nan_to_num(self.work.u, posinf=1e30)

    # ------------------------------------------------------------------
    def _residuals(self, px_s, aty_s):
        """Unscaled KKT residuals with ``z = clip(A x, l, u)``.

        Matches ``OSQPSolver._residuals`` conventions (inf-norms,
        unscaled unless ``settings.scaled_termination``), reusing the
        ``P x`` / ``A' y`` products the iteration maintains.
        """
        s = self.scaling
        ax_s = self.work.A.matvec(self.x)
        z_s = np.clip(ax_s, self._l, self._u)

        if self.settings.scaled_termination:
            pri_vec = ax_s - z_s
            pri_res = _abs_max(pri_vec)
            pri_norm = max(_abs_max(ax_s), _abs_max(z_s))
            dua_vec = px_s + self.work.q + aty_s
            dua_res = _abs_max(dua_vec)
            dua_norm = max(_abs_max(px_s), _abs_max(aty_s),
                           _abs_max(self.work.q))
            return pri_res, dua_res, pri_norm, dua_norm, z_s

        ax = s.einv * ax_s
        z = s.einv * z_s
        pri_res = _abs_max(ax - z)
        pri_norm = max(_abs_max(ax), _abs_max(z))

        inv_c = 1.0 / s.c
        px = inv_c * s.dinv * px_s
        aty = inv_c * s.dinv * aty_s
        q = inv_c * s.dinv * self.work.q
        dua_res = _abs_max(px + q + aty)
        dua_norm = max(_abs_max(px), _abs_max(aty), _abs_max(q))
        return pri_res, dua_res, pri_norm, dua_norm, z_s

    # ------------------------------------------------------------------
    def solve(self) -> SolverResult:
        """Run restarted Halpern PDHG to termination (unscaled result)."""
        t0 = time.perf_counter()
        settings = self.settings
        work = self.work
        p_mat, a_mat, at_mat = work.P, work.A, self.at
        q = work.q
        info = SolverInfo(rho_final=self.omega)
        status = None
        out_of_time = False

        x0 = self.x.copy()
        y0 = self.y.copy()
        halpern_k = 0
        since_restart = 0
        last_restart_worst = np.inf
        z_s = np.clip(a_mat.matvec(self.x), self._l, self._u)
        px = p_mat.matvec(self.x)
        aty = at_mat.matvec(self.y)

        for k in range(1, settings.max_iter + 1):
            xp = self.x - self.tau * (px + q + aty)
            xb = 2.0 * xp - self.x
            v = self.y + self.sigma * a_mat.matvec(xb)
            yp = v - self.sigma * np.clip(v / self.sigma, self._l, self._u)
            lam = 1.0 / (halpern_k + 2.0)
            self.x = lam * x0 + (1.0 - lam) * xp
            self.y = lam * y0 + (1.0 - lam) * yp
            halpern_k += 1
            since_restart += 1
            px = p_mat.matvec(self.x)
            aty = at_mat.matvec(self.y)
            info.iterations = k

            if k % settings.check_termination == 0 or k == settings.max_iter:
                pri_res, dua_res, pri_norm, dua_norm, z_s = \
                    self._residuals(px, aty)
                info.pri_res, info.dua_res = pri_res, dua_res
                if settings.record_history:
                    info.history.append((k, pri_res, dua_res, self.omega))
                eps_prim = settings.eps_abs + settings.eps_rel * pri_norm
                eps_dual = settings.eps_abs + settings.eps_rel * dua_norm
                if pri_res <= eps_prim and dua_res <= eps_dual:
                    status = SolverStatus.SOLVED
                    break
                if settings.verbose:  # pragma: no cover - logging only
                    print(f"iter {k:6d}  pri {pri_res:.3e}  "
                          f"dua {dua_res:.3e}  omega {self.omega:.3e}")

                worst = max(pri_res / max(eps_prim, DIV_GUARD),
                            dua_res / max(eps_dual, DIV_GUARD))
                if self._should_restart(since_restart, worst,
                                        last_restart_worst):
                    x0 = self.x.copy()
                    y0 = self.y.copy()
                    halpern_k = 0
                    since_restart = 0
                    last_restart_worst = worst
                    info.restarts += 1
                    if settings.omega_adaptive:
                        estimate = balanced_step(
                            self.omega, pri_res, dua_res, pri_norm,
                            dua_norm, OMEGA_MIN, OMEGA_MAX)
                        tol = settings.omega_tolerance
                        if (estimate > tol * self.omega
                                or estimate < self.omega / tol):
                            self.update_omega(estimate)
                            info.omega_updates += 1

            if (settings.time_limit > 0.0
                    and time.perf_counter() - t0 > settings.time_limit):
                out_of_time = True
                break

        if status is None:
            pri_res, dua_res, pri_norm, dua_norm, z_s = \
                self._residuals(px, aty)
            info.pri_res, info.dua_res = pri_res, dua_res
            eps_prim = settings.eps_abs + settings.eps_rel * pri_norm
            eps_dual = settings.eps_abs + settings.eps_rel * dua_norm
            near = (pri_res <= _INACCURATE_FACTOR * eps_prim
                    and dua_res <= _INACCURATE_FACTOR * eps_dual)
            if near:
                status = SolverStatus.SOLVED_INACCURATE
            elif out_of_time:
                status = SolverStatus.TIME_LIMIT_REACHED
            else:
                status = SolverStatus.MAX_ITER_REACHED

        x = self.scaling.unscale_x(self.x)
        y = self.scaling.unscale_y(self.y)
        z = self.scaling.unscale_z(z_s)
        info.rho_final = self.omega
        info.obj_val = self.problem.objective(x)
        info.setup_seconds = self._setup_seconds
        info.solve_seconds = time.perf_counter() - t0
        return SolverResult(x=x, y=y, z=z, status=status, info=info)

    def _should_restart(self, since_restart: int, worst: float,
                        last_restart_worst: float) -> bool:
        mode = self.settings.restart
        if mode == "none":
            return False
        if since_restart >= self.settings.restart_interval:
            return True
        if mode == "adaptive":
            return worst <= self.settings.restart_beta * last_restart_worst
        return False


def solve_pdqp(problem: QProblem,
               settings: Optional[PDQPSettings] = None) -> SolverResult:
    """One-shot convenience wrapper around :class:`PDQPSolver`."""
    return PDQPSolver(problem, settings).solve()


def _abs_max(vec: np.ndarray) -> float:
    return float(np.abs(vec).max()) if vec.size else 0.0


class PDQPAlgorithm(SolverAlgorithm):
    """Registry adapter for the PDQP reference solver."""

    name = "pdqp"
    settings_type = PDQPSettings
    solver_type = PDQPSolver


register_algorithm(PDQPAlgorithm())
