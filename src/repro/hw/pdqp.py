"""Host-side hooks: run PDQP end-to-end on the simulated RSQP card.

The second algorithm on the customized datapaths: restarted Halpern
PDHG (:mod:`repro.solver.pdqp`) lowered by
:func:`repro.hw.compiler.compile_pdqp_program`. The host performs the
setup the reference solver does, through the same functions (Ruiz
scaling, power-iteration step sizes, then the data download) in the
one host load of the card at any width (:class:`repro.hw.card.
BatchAccelerator`; this class supplies only the step hooks). The step
sizes of every lane of a load come from one power-iteration call
(:func:`repro.solver.host.estimate_operator_norms`: the engine's
``k_power``, or its numpy twin) over the ``P``, ``A`` and ``A'``
values the load writes to the card, summed in the kernels' order. The
card runs the anchored PDHG loop in fixed-length segments, and the host
performs the restart between segments — anchor refresh, Halpern-counter
reset and optional primal weight rebalancing — through the segment
driver every card shares (:class:`repro.hw.driver.SegmentDriver`).
Both the interpreter and the compiled backend (one lane of a batch
machine) execute the same instruction stream bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..customization import ProblemCustomization
from ..qp import QProblem
from ..solver.host import (DIV_GUARD, balanced_step, pdqp_initial_steps,
                           pdqp_step_registers, pdqp_step_sizes,
                           power_start)
from ..solver.settings import OMEGA_MAX, OMEGA_MIN
from .accelerator import Accelerator, attach_customization_costs
from .compiler import PDHG_LOOP, CompiledProgram, compile_pdqp_program

__all__ = ["PDQPAccelerator", "compile_pdqp_for_customization"]


class PDQPAccelerator(Accelerator):
    """Simulated RSQP card solving one QP structure with PDQP.

    Shares the ADMM card's driver (:class:`repro.hw.accelerator.
    Accelerator`: same ``backend`` / ``verify`` / fault / deadline
    machinery and parameters) so the serving layer can dispatch to
    either from one artifact, plus:

    settings:
        :class:`~repro.solver.settings.PDQPSettings`; the accelerator
        honors ``omega`` / ``tau_scale`` / ``power_iterations`` for
        step sizes, ``restart_interval`` as the on-card segment length,
        ``omega_adaptive`` / ``omega_tolerance`` for host rebalancing
        and the shared termination fields.
    """

    algorithm = "pdqp"
    loop_name = PDHG_LOOP
    sections = ("prologue", "pdhg_body", "epilogue")
    download_hbm = frozenset({"q", "l", "u", "x", "y", "x0", "y0"})
    download_scalars = frozenset({"neg_tau", "sigma", "sigma_inv",
                                  "neg_sigma", "hk", "one", "eps_rel",
                                  "eps_abs_m", "eps_abs_n", "nq"})
    primal_iterates = ("x", "x0")
    dual_iterates = ("y", "y0")
    # The iterates, the Halpern anchors and the maintained products.
    state_names = ("x", "y", "x0", "y0", "px", "aty")
    reload_names = ("q", "l", "u")
    anchors = (("x0", "x"), ("y0", "y"))
    restart_scalars = (("hk", 2.0),)  # Halpern k + 2, k = 0
    step_name = "omega"

    @classmethod
    def compile_program(cls, customization, n, m, *, max_iter,
                        max_pcg_iter):
        return compile_pdqp_for_customization(customization, n, m,
                                              max_iter=max_iter)

    @property
    def omega_updates(self) -> int:
        """Host-driven primal-weight changes in the last run."""
        return self.step_updates

    def refresh_numeric(self, problem: QProblem, *,
                        carry_omega: bool = False) -> None:
        """Rebind the card to new numeric data on the same structure
        (see :meth:`Accelerator.refresh`). With ``carry_omega`` the
        adapted primal weight survives the refresh (step sizes are
        re-derived from it against the new operator norms), which is
        the warm-start-friendly default for streaming re-solves."""
        self.refresh(problem, carry_step=carry_omega)

    def _constant_registers(self, n, m):
        # Halpern k + 2, k = 0.
        return {**super()._constant_registers(n, m), "hk": 2.0, "one": 1.0}

    def _warm_vectors(self, scaling, x=None, y=None):
        """The iterates, with the anchors following them."""
        vectors = {}
        if x is not None:
            x_s = scaling.scale_x(np.asarray(x, dtype=np.float64))
            vectors.update(x=x_s, x0=x_s)
        if y is not None:
            y_s = scaling.scale_y(np.asarray(y, dtype=np.float64))
            vectors.update(y=y_s, y0=y_s)
        return vectors

    def _start_lanes(self, lanes, plan, vals, at, l, u, carried=None):
        # One power iteration for every lane, over the load's P, A and
        # A' values.
        steps = pdqp_initial_steps(plan, vals, at, self.settings)
        for b, (lane, step) in enumerate(zip(lanes, steps)):
            lane.norm_a, lane.lam_p, lane.omega, lane.tau, lane.sigma = step
            if carried is not None:
                lane._adopt_step(carried[b])
        return {}, pdqp_step_registers(
            np.array([lane.tau for lane in lanes]),
            np.array([lane.sigma for lane in lanes]))

    def _load_fields(self, plan, machine):
        s = self.settings
        start_a, start_p = power_start(plan)
        scalars = machine.scalars
        return {"pdqp": 1, "step": float(s.omega),
                "tau_scale": float(s.tau_scale), "guard": DIV_GUARD,
                "power_iterations": s.power_iterations,
                "start_a": start_a, "start_p": start_p,
                "neg_tau": scalars["neg_tau"], "sig": scalars["sigma"],
                "sig_inv": scalars["sigma_inv"],
                "neg_sig": scalars["neg_sigma"]}, 5

    def _take_steps(self, lanes, steps, carried):
        # The rows are norm_a, lam_p, omega, tau and sigma.
        for lane, step in zip(lanes, steps.T.tolist()):
            lane.norm_a, lane.lam_p, lane.omega, lane.tau, lane.sigma = step

    # -- restart + primal-weight rebalance -------------------------------
    # Every segment boundary is a restart (the fixed-frequency flavor),
    # with the optional residual-balanced primal weight on top; the new
    # step sizes are scalar registers, free host writes.
    def _segment_length(self) -> int:
        return self.settings.restart_interval

    def _rebalance(self, rp, rdual, npz, nd_all) -> bool:
        if not self.settings.omega_adaptive:
            return False
        estimate = balanced_step(self.omega, rp, rdual, npz, nd_all,
                                 OMEGA_MIN, OMEGA_MAX)
        tol = self.settings.omega_tolerance
        if not (estimate > tol * self.omega or estimate < self.omega / tol):
            return False
        self._adopt_step(estimate)
        self.step_updates += 1
        return True

    def _adopt_step(self, step: float) -> None:
        self.omega = step
        self.tau, self.sigma = pdqp_step_sizes(
            step, self.norm_a, self.lam_p, self.settings.tau_scale)

    def _step_data(self) -> tuple[dict, dict]:
        return {}, pdqp_step_registers(self.tau, self.sigma)

    def estimate_cycles(self, iterations: int, restarts: int = 0) -> int:
        """Analytic cycle count (exact; see :mod:`repro.hw.compiler`).

        ``restarts`` charges the store/load anchor round-trip each
        host-driven restart costs.
        """
        return self._card.driver.estimate({PDHG_LOOP: iterations},
                                          restarts=restarts)


def compile_pdqp_for_customization(customization: ProblemCustomization,
                                   n: int, m: int, *,
                                   max_iter: int) -> CompiledProgram:
    """Compile the PDQP program and attach a customization's cycle costs.

    Depends only on the problem structure (like the ADMM flavor), so
    serving can cache and share it across structurally identical
    problems.
    """
    return attach_customization_costs(
        compile_pdqp_program(n, m, max_iter=max_iter), customization, n, m)
