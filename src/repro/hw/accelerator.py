"""Host-side drivers: run a QP algorithm end-to-end on the simulated card.

Mirrors the paper's deployment, whatever the algorithm: the CPU host
performs setup (Ruiz scaling, step-size choice, data download) and the
FPGA executes the iteration loop from its instruction ROM, in fixed-
length segments with a host step between them. The setup is the
reference solvers' own: :func:`repro.qp.ruiz_equilibrate_batch` and the
step functions of :mod:`repro.solver.host`, with no solver object built.
One card class owns the machine, segment driver and host load at every
width (:class:`repro.hw.card.BatchAccelerator`); an :class:`Accelerator`
is lane 0 of that card at width 1 — solo is a batch of one — on the
``"interpret"`` backend's :class:`~repro.hw.machine.Machine`, the
oracle, or a one-lane :class:`~repro.hw.batched.BatchMachine`. Each
algorithm subclasses it with only its hooks: the step sizes, the
download set, warm start and the between-segment step, which the card
and the driver call for every lane, and which are all a batch lane is
(:meth:`Accelerator.lane`). :class:`RSQPAccelerator` runs OSQP's ADMM +
PCG loop with host-side adaptive rho; :class:`repro.hw.pdqp.
PDQPAccelerator` runs restarted PDHG. Results are *unscaled*, with the
cycle statistics of the performance model. An armed fault injector
lives on the machine only.
"""

from __future__ import annotations

import math
import time
from typing import Any, ClassVar

import numpy as np

from ..customization import ProblemCustomization, customize_problem
from ..exceptions import DeadlineExceededError, FaultDetectedError
from ..qp import QProblem, RuizPlan
from ..solver import OSQPSettings
from ..solver.algorithms import get_algorithm
from ..solver.host import admm_step_vectors, balanced_step, rho_vector
from ..solver.settings import RHO_EQ_FACTOR, RHO_MAX, RHO_MIN
from ..sparse import kernels
from .card import MATRICES, BatchAccelerator
from .compiled import validate_backend
from .compiler import (ADMM_LOOP, PCG_LOOP, CompiledProgram, attach_costs,
                       compile_osqp_program)
from .driver import LANE_DEADLINE, LANE_FAULT, RSQPResult, write_lane

__all__ = ["RSQPResult", "Accelerator", "RSQPAccelerator",
           "compile_for_customization", "attach_customization_costs"]


#: What :func:`numpy.nan_to_num` writes for an infinity by default.
_MAX_FLOAT = float(np.finfo(np.float64).max)


def _finite(v: np.ndarray, posinf: float, neginf: float) -> np.ndarray:
    """``np.nan_to_num(v, posinf=posinf, neginf=neginf)``, bit for bit,
    in a third of the numpy calls: the download bounds the card reads."""
    out = np.array(v, dtype=np.float64)
    out[v == np.inf] = posinf
    out[v == -np.inf] = neginf
    out[v != v] = 0.0
    return out


class Accelerator:
    """Simulated RSQP card solving one QP structure.

    A subclass runs one algorithm: it declares the program layout and
    host protocol as class data and implements the algorithm's hooks:
    its step sizes, the download, warm start and the between-segment
    step. A batch lane is the host half of this class (:meth:`lane`),
    and a solo instance is lane 0 of the width-1 card; the card's load
    and the segment driver call the same hooks for every lane, over
    lane-minor data, so B lanes load in one call.

    Parameters
    ----------
    problem:
        The QP to solve (unscaled; the host scales it during setup).
    customization:
        A :class:`ProblemCustomization`; pass the output of
        :func:`repro.customization.customize_problem` for the customized
        design or :func:`repro.customization.baseline_customization` for
        the reference architecture. Defaults to the customized design at
        ``c = 16``. The customization is built against the raw ``P`` /
        ``A`` / ``A'`` structures, so one customized architecture serves
        every algorithm.
    settings:
        The algorithm's settings (see the subclass).
    compiled:
        Optional pre-compiled program with costs already attached (a
        cached artifact from :mod:`repro.serving`). Must have been
        compiled for the same algorithm, dimensions, width and
        ``max_pcg_iter``; a mismatch raises :class:`ValueError`. When
        given, the compile + cost-attachment stage of construction is
        skipped — the warm path that the serving layer's architecture
        cache amortizes across structurally identical problems.
    backend:
        ``"compiled"`` (default) runs the program on a one-lane
        :class:`~repro.hw.batched.BatchMachine` through fused numpy
        closures and whole-loop C units with bulk cycle accounting
        (see :mod:`repro.hw.compiled`); ``"interpret"`` executes
        through the per-instruction interpreter. Both produce
        bit-identical solutions and identical cycle statistics; the
        interpreter is kept as the differential-testing oracle.
    verify:
        When True (default), statically verify the program against
        the host download contract before any execution (see
        :mod:`repro.verify`) and raise
        :class:`~repro.exceptions.VerificationError` carrying the
        diagnostics instead of failing mid-solve. The check walks the
        instruction stream once; disable only in tight benchmark
        loops that construct accelerators per iteration.
    scaling:
        Optional precomputed :func:`~repro.qp.ruiz_equilibrate` of
        ``problem``; the load then skips its Ruiz pass.
    """

    #: Registry name; an injected program's ``algorithm`` must match.
    algorithm: ClassVar[str] = ""
    #: The outer iteration loop, and the sections a program carries.
    loop_name: ClassVar[str] = ""
    sections: ClassVar[tuple[str, ...]] = ()
    #: Download contract: the HBM vectors and scalar registers
    #: ``_device_image`` provides (what :mod:`repro.verify` checks).
    download_hbm: ClassVar[frozenset[str]] = frozenset()
    download_scalars: ClassVar[frozenset[str]] = frozenset()
    #: The HBM iterates a cold download zeroes, of length n and of m.
    primal_iterates: ClassVar[tuple[str, ...]] = ()
    dual_iterates: ClassVar[tuple[str, ...]] = ()
    #: VB buffers carrying persistent state across segments (the
    #: rollback checkpoint) and the HBM vectors a rollback reloads.
    state_names: ClassVar[tuple[str, ...]] = ()
    reload_names: ClassVar[tuple[str, ...]] = ()
    #: HBM vectors the card reloads after a step-size change, and the
    #: host attribute holding the adapted step (carried by ``refresh``).
    step_reload: ClassVar[tuple[str, ...]] = ()
    step_name: ClassVar[str] = ""
    #: Restart between segments: ``(anchor, iterate)`` HBM pairs the
    #: host copies, and the scalar registers it resets.
    anchors: ClassVar[tuple[tuple[str, str], ...]] = ()
    restart_scalars: ClassVar[tuple[tuple[str, float], ...]] = ()
    #: PCG tolerance and trip budget (only ADMM's program has a PCG loop).
    pcg_eps: float = 0.0
    max_pcg_iter: int = 0

    # Bound by the card's load.
    problem: QProblem
    scaling: Any
    work: Any
    # A solo instance's width-1 card (a batch lane has none).
    _card: BatchAccelerator

    def __init__(self, problem: QProblem,
                 customization: ProblemCustomization | None = None,
                 settings=None, *, c: int = 16,
                 compiled: CompiledProgram | None = None,
                 backend: str = "compiled", verify: bool = True,
                 fault_injector=None, recovery=None,
                 deadline_seconds: float | None = None, scaling=None):
        self.settings = (settings if settings is not None else
                         get_algorithm(self.algorithm).default_settings())
        if customization is None:
            customization = customize_problem(problem, c)
        self.customization = customization
        self.c = customization.c
        self.backend = validate_backend(backend)
        #: RecoveryPolicy; None with no injector disables the per-
        #: segment corruption guard entirely (the fault-free path does
        #: not pay for checkpoints it will never restore).
        self.recovery = recovery
        #: Cooperative per-solve deadline, checked between segments.
        self.deadline_seconds = (float(deadline_seconds)
                                 if deadline_seconds is not None else None)
        #: Host steps of the last run: restarts and step-size changes.
        self.restarts = self.step_updates = 0
        if compiled is None:
            compiled = self.compile_program(
                customization, problem.n, problem.m,
                max_iter=self.settings.max_iter,
                max_pcg_iter=self.max_pcg_iter)
        self.compiled: CompiledProgram = compiled
        self._card = BatchAccelerator.one_lane(
            self, problem, customization, compiled, backend=self.backend,
            verify=verify, scaling=scaling)
        #: Optional FaultInjector, armed on the machine before any
        #: execution; arms detection + checkpoint/rollback too.
        self.fault_injector = fault_injector

    @classmethod
    def compile_program(cls, customization: ProblemCustomization,
                        n: int, m: int, *, max_iter: int,
                        max_pcg_iter: int) -> CompiledProgram:
        """This algorithm's program with the customization's costs."""
        raise NotImplementedError

    @classmethod
    def bind(cls, problem: QProblem, customization, settings,
             compiled: CompiledProgram, *, pcg_eps: float = 1e-7,
             max_pcg_iter: int = 500, **arm) -> "Accelerator":
        """Construct around a prebuilt program (the serving layer):
        ``settings`` are coerced to this algorithm's type, ``pcg_eps`` /
        ``max_pcg_iter`` reach only ADMM, ``arm`` passes through."""
        return cls(problem, customization,
                   get_algorithm(cls.algorithm).coerce_settings(settings),
                   compiled=compiled, **arm)

    @classmethod
    def lane(cls, settings, *, pcg_eps: float = 1e-7) -> "Accelerator":
        """The host half of one instance, with no card: a batch lane.
        The card's load binds its ``problem``, ``scaling`` and ``work``,
        and :meth:`_start_lanes` its step state; ``pcg_eps`` reaches
        only ADMM."""
        lane = cls.__new__(cls)
        lane.settings = get_algorithm(cls.algorithm).coerce_settings(
            settings)
        lane.pcg_eps = float(pcg_eps)
        lane.restarts = lane.step_updates = 0
        return lane

    @property
    def machine(self):
        """The card's machine: the interpreter's, or one batch lane."""
        return self._card.machine

    @property
    def fault_injector(self):
        """The armed :class:`~repro.faults.FaultInjector`, or None: it
        lives on the machine, and assigning arms (or disarms) that."""
        injectors = self.machine.injectors
        return injectors[0] if injectors else None

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self.machine.injectors = None if injector is None else [injector]

    # ------------------------------------------------------------------
    def refresh(self, problem: QProblem, *,
                carry_step: bool = False) -> None:
        """Install new numeric data for the *same* structure, in place.

        The card's load (:meth:`BatchAccelerator.load`) at width 1:
        Ruiz equilibration over the bound plan (a problem of another
        structure raises :class:`~repro.exceptions.ShapeError` before
        anything changes), then the step data and download, written
        into the value blocks, HBM buffers and registers — pattern,
        schedules, compiled programs, verification and every bound C
        pointer table stay untouched. After this call the machine is
        bit-identical to a freshly constructed accelerator for
        ``problem``, except that ``carry_step`` keeps the adapted step
        size (the ``step_name`` attribute: rho, omega) instead of the
        cold-start one, and its accounting restarts at zero, so the
        next :meth:`run` reports what a fresh bind's does.
        """
        self._card.load([problem], carried=(
            [getattr(self, self.step_name)] if carry_step else None))

    # ------------------------------------------------------------------
    def _download(self, machine=None, lane: int = 0) -> None:
        """Host -> HBM data movement and scalar register setup: this
        instance's cold download into lane ``lane`` of ``machine``
        (default: its own card) — what a rollback re-writes."""
        work = self.work
        write_lane(self.machine if machine is None else machine, lane,
                   self._device_image(work.q, work.l, work.u,
                                      math.sqrt(kernels.dot(work.q, work.q)),
                                      self._step_data()))

    def _device_image(self, q, l, u, nq, step: tuple) -> tuple[dict, dict]:
        """``(hbm vectors, scalar registers)`` of a cold download: the
        scaled problem vectors ``q`` / ``l`` / ``u`` with ``q``'s norm
        ``nq``, the ``step`` data, zero iterates and the constant
        registers. Lane-minor: 1-D vectors and float registers for one
        problem, ``(len, B)`` and ``(B,)`` for a card's B lanes. The
        engine's ``k_load`` writes the same image (:mod:`repro.hw.
        cjit`)."""
        vectors, registers = step
        return ({"q": q, "l": _finite(l, _MAX_FLOAT, -1e30),
                 "u": _finite(u, 1e30, -_MAX_FLOAT),
                 **{name: np.zeros(np.shape(q))
                    for name in self.primal_iterates},
                 **{name: np.zeros(np.shape(l))
                    for name in self.dual_iterates}, **vectors},
                {**self._constant_registers(len(q), len(l)), "nq": nq,
                 **registers})

    def _constant_registers(self, n: int, m: int) -> dict:
        """The registers every load sets to one value: the termination
        tolerances every algorithm reads and a subclass's constants."""
        s = self.settings
        return {"eps_rel": s.eps_rel,
                "eps_abs_m": s.eps_abs * np.sqrt(max(m, 1)),
                "eps_abs_n": s.eps_abs * np.sqrt(max(n, 1))}

    def warm_start(self, x=None, y=None) -> None:
        """Provide initial iterates (unscaled), as for repeated solves.

        The backtesting/MPC amortization workloads solve long sequences
        of same-structure problems; warm-starting from the previous
        solution is how the host exploits that on the card.
        """
        for name, values in self._warm_vectors(self.scaling, x, y).items():
            self.machine.write_hbm_lane(name, 0, values)

    def _warm_vectors(self, scaling, x=None, y=None) -> dict:
        """The HBM iterates a warm start from ``x`` / ``y`` (unscaled)
        writes, scaled by ``scaling``."""
        raise NotImplementedError

    def _start_lanes(self, lanes: list, plan: RuizPlan, vals: np.ndarray,
                     at: np.ndarray, l: np.ndarray, u: np.ndarray,
                     carried: list | None = None) -> tuple[dict, dict]:
        """Start the step sizes of ``lanes`` — accelerators of this
        algorithm whose ``work`` holds their newly scaled problem — in
        one host pass, and return their lane-minor step data (what
        :meth:`_step_data` returns for one). ``vals`` are the lanes'
        scaled ``P`` then ``A`` values ``(nnz, B)``, ``at`` their ``A'``
        values, ``l`` / ``u`` their scaled bounds ``(m, B)``. Each lane
        starts cold, or from its entry of ``carried`` (adopted as
        :meth:`_adopt_step` would)."""
        raise NotImplementedError

    def _load_fields(self, plan: RuizPlan, machine) -> tuple[dict, int]:
        """This algorithm's fields of the engine's load table
        (``struct k_load_card`` of :mod:`repro.hw.cjit`) over
        ``machine``, whose download buffers exist, and the step rows
        ``k_load`` fills per lane."""
        raise NotImplementedError

    def _take_steps(self, lanes: list, steps: np.ndarray,
                    carried: list | None) -> None:
        """Bind the step state of ``lanes`` from their lane-minor step
        rows ``steps`` (what ``k_load`` fills) and ``carried``."""
        raise NotImplementedError

    # -- the between-segment host step ----------------------------------
    def _segment_length(self) -> int:
        """Iterations the card runs between two host steps."""
        raise NotImplementedError

    def _rebalance(self, rp: float, rdual: float, npz: float,
                   nd_all: float) -> bool:
        """If adaptive, residual-balance the step size from the
        :data:`~repro.hw.driver.RESIDUALS` read off the device; adopt
        and count it when it moves past the tolerance. The one decision
        every lane of the segment driver takes, solo or batch."""
        raise NotImplementedError

    def _adopt_step(self, step: float) -> None:
        """Make ``step`` the host's step size (no device writes)."""
        raise NotImplementedError

    def _step_data(self) -> tuple[dict, dict]:
        """``(hbm vectors, scalar registers)`` the current step size
        puts on the device."""
        raise NotImplementedError

    def run(self) -> RSQPResult:
        """Execute the solo solve: the segment driver at B=1. Returns
        the unscaled result.

        With a fault injector (or an explicit recovery policy) armed,
        each segment boundary checks the persistent state for
        non-finite values and residual divergence; a corrupted segment
        is rolled back to the last good checkpoint and re-run, at most
        ``recovery.max_rollbacks`` times, after which the run raises
        :class:`~repro.exceptions.FaultDetectedError`. A configured
        deadline is checked cooperatively between segments and raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        self.restarts = self.step_updates = 0
        deadline_at = (time.perf_counter() + self.deadline_seconds
                       if self.deadline_seconds is not None else None)
        driver = self._card.driver
        out = driver.run([self], [deadline_at], self.recovery,
                         rollback=True)
        if out.errors[0] == LANE_DEADLINE:
            raise DeadlineExceededError(
                f"solve overran its {self.deadline_seconds:.3g}s "
                f"deadline with {out.left[0]} iterations to go")
        if out.errors[0] == LANE_FAULT:
            raise FaultDetectedError(
                f"{self.loop_name.upper()} state corrupted after "
                f"{out.rollbacks[0]} rollbacks", events=driver.events(0))
        return driver.result(self, 0, self.machine.stats,
                             out.converged[0], out.rollbacks[0])


class RSQPAccelerator(Accelerator):
    """Simulated RSQP card solving one QP structure with OSQP's ADMM.

    Parameters are :class:`Accelerator`'s, plus:

    settings:
        Solver settings; the accelerator honors ``rho``, ``sigma``,
        ``alpha``, ``eps_abs``, ``eps_rel``, ``scaling`` and
        ``max_iter``. Adaptive rho runs host-side in OSQP; the
        instruction stream keeps ``rho`` fixed (the paper notes PCG
        makes rho updates cheap — a host re-download — but the ROM
        program itself is static).
    pcg_eps, max_pcg_iter:
        The inner PCG loop's tolerance and trip budget.
    """

    algorithm = "admm"
    loop_name = ADMM_LOOP
    sections = ("prologue", "admm_body", "pcg_body", "epilogue")
    download_hbm = frozenset({"q", "l", "u", "rho", "rho_inv", "minv",
                              "x", "z", "y"})
    download_scalars = frozenset({"sigma", "alpha_relax", "one_m_alpha",
                                  "eps_rel", "eps_abs_m", "eps_abs_n",
                                  "nq", "one", "tiny", "pcg_eps2"})
    primal_iterates = ("x",)
    dual_iterates = ("z", "y")
    state_names = ("x", "z", "y", "xt")
    reload_names = ("q", "l", "u", "rho", "rho_inv", "minv")
    step_reload = ("rho", "rho_inv", "minv")
    step_name = "rho"

    def __init__(self, problem: QProblem,
                 customization: ProblemCustomization | None = None,
                 settings: OSQPSettings | None = None, *,
                 pcg_eps: float = 1e-7, max_pcg_iter: int = 500, **card):
        self.pcg_eps = float(pcg_eps)
        self.max_pcg_iter = int(max_pcg_iter)
        super().__init__(problem, customization, settings, **card)

    @classmethod
    def compile_program(cls, customization, n, m, *, max_iter,
                        max_pcg_iter):
        return compile_for_customization(customization, n, m,
                                         max_admm_iter=max_iter,
                                         max_pcg_iter=max_pcg_iter)

    @classmethod
    def bind(cls, problem, customization, settings, compiled, *,
             pcg_eps=1e-7, max_pcg_iter=500, **arm):
        return cls(problem, customization, settings, pcg_eps=pcg_eps,
                   max_pcg_iter=max_pcg_iter, compiled=compiled, **arm)

    @property
    def rho_updates(self) -> int:
        """Host-driven rho changes in the last run."""
        return self.step_updates

    def _start_lanes(self, lanes, plan, vals, at, l, u, carried=None):
        rho_vec = rho_vector(l, u, np.array(
            carried or [float(self.settings.rho)] * len(lanes)))
        self._take_steps(lanes, rho_vec, carried)
        return admm_step_vectors(plan, vals[:plan.nnz_p],
                                 vals[plan.nnz_p:], self.settings.sigma,
                                 rho_vec), {}

    def _load_fields(self, plan, machine):
        hbm = machine.hbm
        return {"step": float(self.settings.rho),
                "sigma": self.settings.sigma, "rho_min": RHO_MIN,
                "rho_max": RHO_MAX, "rho_eq": RHO_EQ_FACTOR,
                "rho": hbm["rho"], "rho_inv": hbm["rho_inv"],
                "minv": hbm["minv"], "p_diag": plan.p_diag,
                "n_diag": plan.p_diag.size}, plan.structure.m

    def _take_steps(self, lanes, steps, carried):
        rhos = carried or [float(self.settings.rho)] * len(lanes)
        for lane, rho, column in zip(lanes, rhos, steps.T):
            lane.rho, lane.rho_vec = rho, column

    def refresh_numeric(self, problem: QProblem, *,
                        carry_rho: bool = False) -> None:
        """Install new numeric data for the *same* structure, in place
        (see :meth:`Accelerator.refresh`). ``carry_rho=True`` keeps
        the adapted step size from previous solves instead of the
        cold-start estimate."""
        self.refresh(problem, carry_step=carry_rho)

    def _constant_registers(self, n, m):
        s = self.settings
        return {**super()._constant_registers(n, m), "sigma": s.sigma,
                "alpha_relax": s.alpha, "one_m_alpha": 1.0 - s.alpha,
                "one": 1.0, "tiny": 1e-30, "pcg_eps2": self.pcg_eps ** 2}

    def _warm_vectors(self, scaling, x=None, y=None):
        vectors = {}
        if x is not None:
            x_s = scaling.scale_x(np.asarray(x, dtype=np.float64))
            vectors.update(x=x_s, z=scaling.problem.A.matvec(x_s))
        if y is not None:
            vectors["y"] = scaling.scale_y(np.asarray(y, dtype=np.float64))
        return vectors

    # -- adaptive rho (OSQP's rule, residuals read off-chip) -------------
    # The paper motivates PCG precisely because rho updates avoid the
    # LDL^T refactorization: the host recomputes the rho vectors and
    # the Jacobi preconditioner and the card reloads them.
    def _segment_length(self) -> int:
        return self.settings.adaptive_rho_interval

    def _rebalance(self, rp, rdual, npz, nd_all) -> bool:
        if not self.settings.adaptive_rho:
            return False
        estimate = balanced_step(self.rho, rp, rdual, npz, nd_all,
                                 RHO_MIN, RHO_MAX)
        tol = self.settings.adaptive_rho_tolerance
        if not (estimate > tol * self.rho or estimate < self.rho / tol):
            return False
        self._adopt_step(estimate)
        self.step_updates += 1
        return True

    def _adopt_step(self, step: float) -> None:
        self.rho = step
        self.rho_vec = rho_vector(self.work.l, self.work.u, step)

    def _step_data(self) -> tuple[dict, dict]:
        # rho, its inverse and the Jacobi preconditioner of
        # K = P + sigma I + A' diag(rho) A.
        work = self.work
        return admm_step_vectors(self.scaling.plan, work.P.data, work.A.data,
                                 self.settings.sigma, self.rho_vec), {}

    def estimate_cycles(self, admm_iterations: int, pcg_iterations: int,
                        rho_updates: int = 0) -> int:
        """Analytic cycle count (exact; see :mod:`repro.hw.compiler`).

        ``rho_updates`` charges the three-vector reload each host-driven
        step-size change costs.
        """
        return self._card.driver.estimate({ADMM_LOOP: admm_iterations,
                                           PCG_LOOP: pcg_iterations},
                                          step_updates=rho_updates)


def attach_customization_costs(compiled: CompiledProgram,
                               customization: ProblemCustomization,
                               n: int, m: int) -> CompiledProgram:
    """Attach a customization's SpMV costs and CVB depths to a program."""
    attach_costs(compiled, customization.c,
                 spmv={name: customization.matrices[name].spmv_cycles
                       for name in MATRICES},
                 depths={name: customization.matrices[name].duplication_cycles
                         for name in MATRICES},
                 n=n, m=m)
    return compiled


def compile_for_customization(customization: ProblemCustomization,
                              n: int, m: int, *, max_admm_iter: int,
                              max_pcg_iter: int) -> CompiledProgram:
    """Compile the OSQP program and attach a customization's cycle costs.

    The result depends only on the problem *structure* (dimensions plus
    the customization's schedules), never on numeric data, so it can be
    cached and shared across every structurally identical problem — the
    contract :mod:`repro.serving` relies on. The program is read-only
    during execution (all run state lives in the :class:`Machine`), so
    one compiled artifact may serve concurrent accelerator instances.
    """
    return attach_customization_costs(
        compile_osqp_program(n, m, max_admm_iter=max_admm_iter,
                             max_pcg_iter=max_pcg_iter),
        customization, n, m)
