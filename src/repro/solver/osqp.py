"""The OSQP ADMM solver (Algorithm 1 of the paper), from scratch.

The solver operates on a Ruiz-equilibrated copy of the problem, checks
termination on *unscaled* residuals, adapts the step size ``rho``, and
detects primal/dual infeasibility from the iterate differences — the
same loop the RSQP hardware executes, which is why the compiled
instruction stream in :mod:`repro.hw.compiler` mirrors this file.
"""

from __future__ import annotations

import time

import numpy as np

from ..qp import QProblem, ruiz_equilibrate
from .algorithms import SolverAlgorithm, register_algorithm
from .host import (admm_initial_step, apply_update, balanced_step,
                   rho_vector)
from .infeasibility import is_dual_infeasible, is_primal_infeasible
from .linsys import make_backend
from .polish import polish
from .results import OSQPResult, SolverInfo, SolverStatus
from .settings import RHO_MAX, RHO_MIN, OSQPSettings

__all__ = ["OSQPSolver", "solve", "ADMMAlgorithm"]

#: Residuals within this factor of the tolerance at max_iter still count
#: as an (inaccurate) solution.
_INACCURATE_FACTOR = 10.0


class OSQPSolver:
    """Reusable solver object: setup once, solve (and re-solve) many times.

    Parameters
    ----------
    problem:
        The QP to solve.
    settings:
        Optional :class:`OSQPSettings`; defaults follow OSQP.

    Examples
    --------
    >>> from repro.sparse import CSRMatrix
    >>> from repro.qp import QProblem
    >>> p = QProblem(P=CSRMatrix.from_dense([[2.0]]), q=[1.0],
    ...              A=CSRMatrix.from_dense([[1.0]]), l=[-1.0], u=[1.0])
    >>> result = OSQPSolver(p).solve()
    >>> result.status.is_optimal
    True
    """

    def __init__(self, problem: QProblem,
                 settings: OSQPSettings | None = None):
        t0 = time.perf_counter()
        self.problem = problem
        self.settings = settings if settings is not None else OSQPSettings()
        self.scaling = ruiz_equilibrate(problem, self.settings.scaling)
        self.work = self.scaling.problem
        self.rho, self.rho_vec = admm_initial_step(self.work.l, self.work.u,
                                                   self.settings)
        self.at = self.work.A.transpose()
        self.backend = make_backend(self.work.P, self.work.A, self.work.q,
                                    self.settings, self.rho_vec,
                                    a_transpose=self.at)
        n, m = problem.n, problem.m
        self.x = np.zeros(n)
        self.z = np.zeros(m)
        self.y = np.zeros(m)
        self._setup_seconds = time.perf_counter() - t0

    def warm_start(self, x=None, y=None) -> None:
        """Provide initial iterates in the *original* (unscaled) space."""
        if x is not None:
            x = np.asarray(x, dtype=np.float64)
            self.x = self.scaling.scale_x(x)
            self.z = self.work.A.matvec(self.x)
        if y is not None:
            y = np.asarray(y, dtype=np.float64)
            self.y = self.scaling.scale_y(y)

    def update_rho(self, rho: float) -> None:
        """Install a new step size (refactorize / refresh the operator)."""
        self.rho = float(np.clip(rho, RHO_MIN, RHO_MAX))
        self.rho_vec = rho_vector(self.work.l, self.work.u, self.rho)
        self.backend.update_rho(self.rho_vec)

    def update(self, q=None, l=None, u=None) -> None:
        """Update problem vectors in place (parametric re-solve).

        Matches OSQP's ``update`` API: the matrices (and therefore any
        problem-specific accelerator built for their sparsity) stay
        fixed while the cost vector and/or bounds change between
        solves. The current iterates are kept, so the next
        :meth:`solve` is warm-started automatically.
        """
        bounds = apply_update(self.problem, self.scaling, q, l, u)
        if q is not None:
            self.backend.q = self.work.q
        if bounds:
            # Equality/loose-row pattern may have changed with the bounds.
            new_rho_vec = rho_vector(self.work.l, self.work.u, self.rho)
            if not np.array_equal(new_rho_vec, self.rho_vec):
                self.rho_vec = new_rho_vec
                self.backend.update_rho(new_rho_vec)

    # ------------------------------------------------------------------
    def _residuals(self):
        """Residuals and the norms entering the tolerances.

        Unscaled by default; with ``settings.scaled_termination`` the
        check runs directly on the scaled iterates (cheaper, as OSQP's
        option of the same name).
        """
        s = self.scaling
        ax_s = self.work.A.matvec(self.x)
        px_s = self.work.P.matvec(self.x)
        aty_s = self.at.matvec(self.y)

        if self.settings.scaled_termination:
            ax = ax_s
            z = self.z
            pri_vec = ax - z
            pri_res = float(np.abs(pri_vec).max()) if pri_vec.size else 0.0
            pri_norm = max(_abs_max(ax), _abs_max(z))
            dua_vec = px_s + self.work.q + aty_s
            dua_res = float(np.abs(dua_vec).max()) if dua_vec.size else 0.0
            dua_norm = max(_abs_max(px_s), _abs_max(aty_s),
                           _abs_max(self.work.q))
            return pri_res, dua_res, pri_norm, dua_norm

        ax = s.einv * ax_s
        z = s.einv * self.z
        pri_vec = ax - z
        pri_res = float(np.abs(pri_vec).max()) if pri_vec.size else 0.0
        pri_norm = max(_abs_max(ax), _abs_max(z))

        inv_c = 1.0 / s.c
        px = inv_c * s.dinv * px_s
        aty = inv_c * s.dinv * aty_s
        q = inv_c * s.dinv * self.work.q
        dua_vec = px + q + aty
        dua_res = float(np.abs(dua_vec).max()) if dua_vec.size else 0.0
        dua_norm = max(_abs_max(px), _abs_max(aty), _abs_max(q))
        return pri_res, dua_res, pri_norm, dua_norm

    # ------------------------------------------------------------------
    def solve(self) -> OSQPResult:
        """Run ADMM to termination and return the (unscaled) result."""
        t0 = time.perf_counter()
        settings = self.settings
        work = self.work
        info = SolverInfo(rho_final=self.rho)
        status = None
        prim_cert = None
        dual_cert = None
        out_of_time = False

        for k in range(1, settings.max_iter + 1):
            x_tilde, z_tilde, pcg_iters = self.backend.solve(
                self.x, self.z, self.y)
            info.pcg_iterations += pcg_iters
            info.pcg_per_admm.append(pcg_iters)

            alpha = settings.alpha
            x_new = alpha * x_tilde + (1.0 - alpha) * self.x
            z_relaxed = alpha * z_tilde + (1.0 - alpha) * self.z
            z_new = np.clip(z_relaxed + self.y / self.rho_vec,
                            work.l, work.u)
            y_new = self.y + self.rho_vec * (z_relaxed - z_new)

            delta_x = x_new - self.x
            delta_y = y_new - self.y
            self.x, self.z, self.y = x_new, z_new, y_new
            info.iterations = k

            if k % settings.check_termination == 0 or k == settings.max_iter:
                pri_res, dua_res, pri_norm, dua_norm = self._residuals()
                info.pri_res, info.dua_res = pri_res, dua_res
                if settings.record_history:
                    info.history.append((k, pri_res, dua_res, self.rho))
                eps_prim = settings.eps_abs + settings.eps_rel * pri_norm
                eps_dual = settings.eps_abs + settings.eps_rel * dua_norm
                if pri_res <= eps_prim and dua_res <= eps_dual:
                    status = SolverStatus.SOLVED
                    break

                dy_un = self.scaling.unscale_y(delta_y)
                if is_primal_infeasible(dy_un, self.problem.A,
                                        self.problem.l, self.problem.u,
                                        settings.eps_prim_inf):
                    status = SolverStatus.PRIMAL_INFEASIBLE
                    prim_cert = dy_un
                    break
                dx_un = self.scaling.unscale_x(delta_x)
                if is_dual_infeasible(dx_un, self.problem.P, self.problem.q,
                                      self.problem.A, self.problem.l,
                                      self.problem.u, settings.eps_dual_inf):
                    status = SolverStatus.DUAL_INFEASIBLE
                    dual_cert = dx_un
                    break

                if hasattr(self.backend, "set_tolerance_from_residuals"):
                    self.backend.set_tolerance_from_residuals(pri_res, dua_res)

                if (settings.adaptive_rho
                        and settings.adaptive_rho_interval > 0
                        and k % settings.adaptive_rho_interval == 0):
                    estimate = balanced_step(self.rho, pri_res, dua_res,
                                             pri_norm, dua_norm,
                                             RHO_MIN, RHO_MAX)
                    tol = settings.adaptive_rho_tolerance
                    if (estimate > tol * self.rho
                            or estimate < self.rho / tol):
                        self.update_rho(estimate)
                        info.rho_updates += 1

                if settings.verbose:  # pragma: no cover - logging only
                    print(f"iter {k:5d}  pri {pri_res:.3e}  dua {dua_res:.3e}"
                          f"  rho {self.rho:.3e}  pcg {pcg_iters}")

            if (settings.time_limit > 0.0
                    and time.perf_counter() - t0 > settings.time_limit):
                out_of_time = True
                break

        if status is None:
            pri_res, dua_res, pri_norm, dua_norm = self._residuals()
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
        z = self.scaling.unscale_z(self.z)
        info.rho_final = self.rho
        info.obj_val = self.problem.objective(x)
        info.setup_seconds = self._setup_seconds
        info.solve_seconds = time.perf_counter() - t0

        result = OSQPResult(x=x, y=y, z=z, status=status, info=info,
                            prim_inf_cert=prim_cert, dual_inf_cert=dual_cert)
        if settings.polish and status.is_optimal:
            result = polish(self.problem, result, settings)
        return result


def solve(problem: QProblem,
          settings: OSQPSettings | None = None) -> OSQPResult:
    """One-shot convenience wrapper around :class:`OSQPSolver`."""
    return OSQPSolver(problem, settings).solve()


def _abs_max(vec: np.ndarray) -> float:
    return float(np.abs(vec).max()) if vec.size else 0.0


class ADMMAlgorithm(SolverAlgorithm):
    """Registry adapter for the OSQP/ADMM reference solver."""

    name = "admm"
    settings_type = OSQPSettings
    solver_type = OSQPSolver


register_algorithm(ADMMAlgorithm())
