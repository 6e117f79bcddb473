"""Host-side drivers: run a QP algorithm end-to-end on the simulated card.

Mirrors the paper's deployment, whatever the algorithm: the CPU host
performs setup (Ruiz scaling, step-size choice, data download) and the
FPGA executes the iteration loop from its instruction ROM, in fixed-
length segments with a host step between them. The setup is the
reference solvers' own: :func:`repro.qp.ruiz_equilibrate` and the step
functions of :mod:`repro.solver.host`, with no solver object built.
:class:`Accelerator` is that shared driver — host setup, machine bind,
backend dispatch, program checks, the segment loop with its deadline
and rollback handling, and result assembly. Each algorithm subclasses
it with only what differs: the initial step sizes, the download set,
warm start and the between-segment step.
:class:`RSQPAccelerator` runs OSQP's ADMM + PCG loop with host-side
adaptive rho; :class:`repro.hw.pdqp.PDQPAccelerator` runs restarted
PDHG. The drivers return the *unscaled* solution plus the cycle
statistics that drive the performance model.

The ``"interpret"`` backend binds a :class:`~repro.hw.machine.Machine`
and runs its instruction-at-a-time interpreter, the oracle. The
``"compiled"`` backend binds one lane of a
:class:`~repro.hw.batched.BatchMachine` — solo is a batch of one — and
runs it through :class:`~repro.hw.batched.BatchExecutor`, the executor
every batch uses. The driver reaches either machine through the same
host accessors (``write_hbm``, ``read_hbm``, ``set_scalar``,
``scalar``, ``injector``, ``reset_stats``) and restores checkpoints in
place, since the compiled machine's closures and fused loops hold its
buffers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from ..customization import ProblemCustomization, customize_problem
from ..exceptions import DeadlineExceededError, FaultDetectedError
from ..qp import QProblem, RuizPlan, ruiz_equilibrate
from ..solver import OSQPSettings
from ..solver.algorithms import get_algorithm
from ..solver.host import (admm_initial_step, admm_step_vectors,
                           balanced_step, rho_vector)
from ..solver.settings import RHO_MAX, RHO_MIN
from .batched import BatchExecutor, BatchMachine, BatchMatrixResource
from .compiled import validate_backend
from .compiler import (ADMM_LOOP, PCG_LOOP, CompiledProgram, attach_costs,
                       compile_osqp_program)
from .frequency import fmax_mhz
from .isa import DataTransfer, Loop, Program
from .machine import ExecutionStats, Machine, MatrixResource
from .power import fpga_power_watts

__all__ = ["RSQPResult", "Accelerator", "RSQPAccelerator",
           "compile_for_customization", "attach_customization_costs"]

#: Streamed matrices every algorithm binds; each owns a CVB bank group.
MATRICES = ("P", "A", "At")

#: Device residual scalars a between-segment step size is balanced on.
RESIDUALS = ("rp", "rdual", "npz", "nd_all")


@dataclass
class RSQPResult:
    """Solution and performance data from one accelerator run.

    ``admm_iterations`` counts the *outer* loop trips whatever the
    algorithm (PDHG iterations for ``algorithm="pdqp"``); the uniform
    ``status`` / ``iterations`` / ``termination_reason`` properties
    match :class:`repro.solver.results.OSQPResult`, so callers can
    treat reference and accelerator results interchangeably.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    converged: bool
    admm_iterations: int
    pcg_iterations: int
    total_cycles: int
    fmax_mhz: float
    power_watts: float
    stats: ExecutionStats
    #: Segment rollbacks the run performed (checkpoint recovery).
    rollbacks: int = 0
    #: Fault-injection event records from the run's injector, if any.
    fault_events: tuple = field(default_factory=tuple)
    #: Which algorithm produced this result ("admm" or "pdqp").
    algorithm: str = "admm"
    #: Host-driven restarts (PDQP) — 0 for the ADMM path.
    restarts: int = 0

    @property
    def solve_seconds(self) -> float:
        """Wall time at the modeled clock."""
        return self.total_cycles / (self.fmax_mhz * 1e6)

    @property
    def energy_joules(self) -> float:
        return self.solve_seconds * self.power_watts

    # -- uniform result surface (matches OSQPResult) --------------------
    @property
    def status(self) -> "SolverStatus":
        """:class:`~repro.solver.results.SolverStatus` equivalent."""
        from ..solver.results import SolverStatus
        return (SolverStatus.SOLVED if self.converged
                else SolverStatus.MAX_ITER_REACHED)

    @property
    def iterations(self) -> int:
        """Outer-loop iterations, algorithm-agnostic."""
        return self.admm_iterations

    @property
    def termination_reason(self) -> str:
        """One of :data:`repro.solver.results.TERMINATION_REASONS`."""
        return self.status.reason


class Accelerator:
    """Simulated RSQP card solving one QP structure: the shared driver.

    A subclass runs one algorithm: it declares the program layout and
    host protocol as class data and implements its initial step sizes,
    the download, warm start and the step-size hooks of the
    between-segment step. The batch runner drives its lanes through the
    same hooks, so a lane's host step is the solo one; the download
    hooks take lane-minor data, so the batch loads B lanes in one call.

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
    """

    #: Registry name; an injected program's ``algorithm`` must match.
    algorithm: ClassVar[str] = ""
    #: The outer iteration loop, and the sections a program carries.
    loop_name: ClassVar[str] = ""
    sections: ClassVar[tuple[str, ...]] = ()
    #: Download contract: the HBM vectors and scalar registers
    #: ``_download`` provides (what :mod:`repro.verify` checks against).
    download_hbm: ClassVar[frozenset[str]] = frozenset()
    download_scalars: ClassVar[frozenset[str]] = frozenset()
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
    #: PCG trip budget (only ADMM's program has a PCG loop).
    max_pcg_iter: int = 0

    # Bound by ``_host_setup``.
    scaling: Any
    work: Any
    _work_at: Any
    # Bound by ``_build_machine``: the card, and what runs its programs
    # (the interpreter runs itself).
    machine: "Machine | BatchMachine"
    _executor: "Machine | BatchExecutor"

    def __init__(self, problem: QProblem,
                 customization: ProblemCustomization | None, settings,
                 *, c: int, compiled: CompiledProgram | None,
                 backend: str, verify: bool, fault_injector, recovery,
                 deadline_seconds: float | None, scaling):
        self.problem = problem
        self.settings = settings
        if customization is None:
            customization = customize_problem(problem, c)
        self.customization = customization
        self.c = customization.c
        self.backend = validate_backend(backend)
        #: Optional FaultInjector armed on the machine before any
        #: execution; arms detection + checkpoint/rollback too.
        self.fault_injector = fault_injector
        #: RecoveryPolicy; None with no injector disables the per-
        #: segment corruption guard entirely (the fault-free path does
        #: not pay for checkpoints it will never restore).
        self.recovery = recovery
        #: Cooperative per-solve deadline, checked between segments.
        self.deadline_seconds = (float(deadline_seconds)
                                 if deadline_seconds is not None else None)
        #: Static verification on/off — covers both the pre-execution
        #: program passes and the compiled backend's codegen guard.
        self._verify = bool(verify)
        #: Host steps of the last run: restarts and step-size changes.
        self.restarts = self.step_updates = 0

        self._host_setup(scaling)
        self._build_machine()
        if compiled is None:
            compiled = self.compile_program(
                customization, self.work.n, self.work.m,
                max_iter=self.settings.max_iter,
                max_pcg_iter=self.max_pcg_iter)
        else:
            self._check_compiled(compiled)
        self.compiled: CompiledProgram = compiled
        if verify:
            self._verify_compiled(compiled)
        self._build_programs()
        self._download()

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
        """Construct around a prebuilt program (serving and batch lanes):
        ``settings`` are coerced to this algorithm's type, ``pcg_eps`` /
        ``max_pcg_iter`` reach only ADMM, ``arm`` passes through."""
        return cls(problem, customization,
                   get_algorithm(cls.algorithm).coerce_settings(settings),
                   compiled=compiled, **arm)

    # ------------------------------------------------------------------
    def _host_setup(self, scaling=None, carried_step=None) -> None:
        """Scale the problem (or adopt a precomputed ``scaling`` of it)
        and pick the step sizes, through the host functions the
        reference solvers call. The scaling's plan depends only on the
        bound sparsity pattern, so it serves every numeric refresh of
        this structure, ``A'`` included."""
        if scaling is None:
            scaling = ruiz_equilibrate(self.problem, self.settings.scaling)
        self.scaling = scaling
        self.work = scaling.problem
        self._work_at = scaling.plan.transpose(self.work.A.data)
        self._initial_step(carried_step)

    def _initial_step(self, carried_step=None) -> None:
        """Derive the step sizes from the scaled problem: the
        cold-start ones, or ``carried_step`` adopted when not None."""
        raise NotImplementedError

    def _build_machine(self) -> None:
        """Bind the (numeric) scaled matrices to the simulated card: the
        interpreter's machine, or one lane of the compiled backend's."""
        customization = self.customization
        streams = {"P": self.work.P, "A": self.work.A, "At": self._work_at}
        resources = {
            name: MatrixResource(
                name=name, matrix=streams[name],
                spmv_cycles=customization.matrices[name].spmv_cycles,
                cvb_depth=customization.matrices[name].duplication_cycles)
            for name in MATRICES}
        machine: Machine | BatchMachine
        if self.backend == "compiled":
            machine = BatchMachine(self.c, {
                name: BatchMatrixResource(name, resource, 1)
                for name, resource in resources.items()}, 1)
            for name in MATRICES:
                machine.matrices[name].update_values(streams[name].data)
            self._executor = BatchExecutor(machine, verify=self._verify)
        else:
            machine = self._executor = Machine(self.c, resources)
        machine.injector = self.fault_injector
        self.machine = machine

    def _run_program(self, program) -> ExecutionStats:
        """Execute through the selected backend (shared machine state)."""
        return self._executor.run(program)

    def _build_programs(self) -> None:
        """Construct every host-issued Program once, at bind time.

        Stability matters beyond allocation: the compiled executor
        caches lowered blocks and whole-loop fusions by instruction-
        list identity, so stable Program/Loop objects let every
        segment of every re-solve hit the same bound nodes (and keep
        the executor's cache bounded across a long-lived session).
        """
        def transfers(direction, names):
            return Program([DataTransfer(direction, name)
                            for name in names])

        sections = self.compiled._sections
        self._step_program = transfers("load", self.step_reload)
        self._reload_program = transfers("load", self.reload_names)
        self._store_program = transfers(
            "store", [iterate for _, iterate in self.anchors])
        self._anchor_program = transfers(
            "load", [anchor for anchor, _ in self.anchors])
        self._prologue_program = Program(list(sections["prologue"]))
        self._epilogue_program = Program(list(sections["epilogue"]))
        self._loop_body = sections[self.compiled.body_section]
        self._segment_programs: dict = {}

    def _segment_program(self, segment: int):
        """The Program wrapping the iteration body at this trip count."""
        program = self._segment_programs.get(segment)
        if program is None:
            program = Program([Loop(body=self._loop_body,
                                    max_iter=segment,
                                    name=self.loop_name)])
            self._segment_programs[segment] = program
        return program

    # ------------------------------------------------------------------
    def refresh(self, problem: QProblem, *,
                carry_step: bool = False) -> None:
        """:meth:`refresh_numeric` under one name for every algorithm:
        ``carry_step`` keeps the adapted step size (the ``step_name``
        attribute: rho, omega) instead of the cold-start one."""
        self._refresh(problem,
                      getattr(self, self.step_name) if carry_step else None)

    def _refresh(self, problem: QProblem, carried_step) -> None:
        """Install new numeric data for the *same* structure, in place.

        Re-runs the host setup (Ruiz equilibration depends on ``q``, so
        the scaled matrix values change even for a pure-vector update),
        rewrites the machine's matrix value banks in place — pattern,
        schedules, compiled programs, verification and every bound
        C pointer table stay untouched — and re-downloads the HBM
        vectors and scalar registers. After this call the machine is
        bit-identical to a freshly constructed accelerator for
        ``problem``, except that a ``carried_step`` (not None) replaces
        the cold-start step size, and its accounting restarts at zero,
        so the next :meth:`run` reports what a fresh bind's does.
        """
        # The plan's structure check raises before anything changes.
        scaling = ruiz_equilibrate(problem, self.settings.scaling,
                                   plan=self.scaling.plan)
        self.problem = problem
        self._host_setup(scaling, carried_step)
        self.restarts = self.step_updates = 0
        machine = self.machine
        machine.matrices["P"].update_values(self.work.P.data)
        machine.matrices["A"].update_values(self.work.A.data)
        machine.matrices["At"].update_values(self._work_at.data)
        machine.reset_stats()
        self._download()

    def _check_compiled(self, compiled: CompiledProgram) -> None:
        """Validate an injected program against this problem + width."""
        if compiled.algorithm != self.algorithm:
            raise ValueError(
                f"compiled program implements {compiled.algorithm!r}, "
                f"{type(self).__name__} needs a {self.algorithm!r} program")
        ctx = compiled.context
        if ctx.c != self.c:
            raise ValueError(
                f"compiled program was costed for C={ctx.c}, "
                f"customization has C={self.c}")
        if (ctx.vector_length("x") != self.work.n
                or ctx.vector_length("y") != self.work.m):
            raise ValueError(
                f"compiled program is for n={ctx.vector_length('x')}, "
                f"m={ctx.vector_length('y')}; problem has "
                f"n={self.work.n}, m={self.work.m}")
        for name in MATRICES:
            if ctx.spmv_cycles(name) != \
                    self.customization.matrices[name].spmv_cycles:
                raise ValueError(
                    f"compiled program's {name} SpMV cost disagrees with "
                    "the customization — was it built for this structure?")
            if ctx.cvb_depth(name) != \
                    self.customization.matrices[name].duplication_cycles:
                raise ValueError(
                    f"compiled program's {name} CVB depth disagrees with "
                    "the customization — VecDup would be mis-charged")

    def _verify_compiled(self, compiled: CompiledProgram) -> None:
        """Pre-execution static verification (def-before-use, hazards,
        cost bookkeeping); raises ``VerificationError`` on rejection."""
        # Imported lazily: repro.verify imports this package.
        from ..verify import verify_compiled_program
        report = verify_compiled_program(compiled)
        report.raise_if_failed("accelerator program rejected")

    # ------------------------------------------------------------------
    def _download(self) -> None:
        """Host -> HBM data movement and scalar register setup."""
        work = self.work
        vectors, registers = self._device_image(
            work.q, work.l, work.u, float(np.linalg.norm(work.q)),
            self._step_data())
        for name, values in vectors.items():
            self.machine.write_hbm(name, values)
        for name, value in registers.items():
            self.machine.set_scalar(name, value)

    def _device_image(self, q, l, u, nq, step: tuple) -> tuple[dict, dict]:
        """``(hbm vectors, scalar registers)`` of a cold download: the
        scaled problem vectors ``q`` / ``l`` / ``u`` with ``q``'s norm
        ``nq``, the ``step`` data, zero iterates and the constant
        registers. Lane-minor: 1-D vectors and float registers for one
        problem, ``(len, B)`` and ``(B,)`` for a batch. A subclass adds
        its iterates and constants to the problem vectors and the
        termination registers every algorithm reads, set here."""
        vectors, registers = step
        s = self.settings
        return ({"q": q, "l": np.nan_to_num(l, neginf=-1e30),
                 "u": np.nan_to_num(u, posinf=1e30), **vectors},
                {"eps_rel": s.eps_rel,
                 "eps_abs_m": s.eps_abs * np.sqrt(max(self.work.m, 1)),
                 "eps_abs_n": s.eps_abs * np.sqrt(max(self.work.n, 1)),
                 "nq": nq, **registers})

    def warm_start(self, x=None, y=None) -> None:
        """Provide initial iterates (unscaled), as for repeated solves.

        The backtesting/MPC amortization workloads solve long sequences
        of same-structure problems; warm-starting from the previous
        solution is how the host exploits that on the card.
        """
        vectors = self._warm_vectors(self.scaling, x, y)
        for name, values in vectors.items():
            self.machine.write_hbm(name, values)

    def _warm_vectors(self, scaling, x=None, y=None) -> dict:
        """The HBM iterates a warm start from ``x`` / ``y`` (unscaled)
        writes, scaled by ``scaling``."""
        raise NotImplementedError

    def _start_lanes(self, lanes: list, plan: RuizPlan, vals: np.ndarray,
                     l: np.ndarray, u: np.ndarray) -> tuple[dict, dict]:
        """Cold-start the step sizes of ``lanes`` — accelerators of this
        algorithm whose ``work`` holds their newly scaled problem — in
        one host pass, and return their lane-minor step data (what
        :meth:`_step_data` returns for one). ``vals`` are the lanes'
        scaled ``P`` then ``A`` values ``(nnz, B)``, ``l`` / ``u`` their
        scaled bounds ``(m, B)``."""
        raise NotImplementedError

    # -- the between-segment host step ----------------------------------
    def _segment_length(self) -> int:
        """Iterations the card runs between two host steps."""
        raise NotImplementedError

    def _rebalance(self, rp: float, rdual: float, npz: float,
                   nd_all: float) -> bool:
        """If adaptive, residual-balance the step size from the
        :data:`RESIDUALS` read off the device; adopt and count it when
        it moves past the tolerance. The one decision the solo driver
        and every batch lane take."""
        raise NotImplementedError

    def _adopt_step(self, step: float) -> None:
        """Make ``step`` the host's step size (no device writes)."""
        raise NotImplementedError

    def _step_data(self) -> tuple[dict, dict]:
        """``(hbm vectors, scalar registers)`` the current step size
        puts on the device."""
        raise NotImplementedError

    def _install_step(self) -> None:
        """Write the current step size's device data (host side)."""
        vectors, registers = self._step_data()
        for name, values in vectors.items():
            self.machine.write_hbm(name, values)
        for name, value in registers.items():
            self.machine.set_scalar(name, value)

    def _segment_boundary(self) -> None:
        """The host step between two segments.

        Algorithms with ``anchors`` restart first: the card stores the
        iterates to HBM (charged), the host copies them into the anchor
        slots, the card reloads the anchors (charged) and the restart
        registers reset — the next segment continues from the very same
        iterate with a fresh anchor. Then, if adaptive, the host
        rebalances the step size from the residuals read off the
        device; a change is written and the card reloads
        ``step_reload`` (charged as data transfers).
        """
        machine = self.machine
        if self.anchors:
            self._run_program(self._store_program)
            for anchor, iterate in self.anchors:
                machine.write_hbm(anchor, machine.read_hbm(iterate))
            self._run_program(self._anchor_program)
            for name, value in self.restart_scalars:
                machine.set_scalar(name, value)
            self.restarts += 1
        if self._rebalance(*(machine.scalar(name, 0.0)
                             for name in RESIDUALS)):
            self._install_step()
            if self.step_reload:
                self._run_program(self._step_program)

    # -- fault detection and recovery ----------------------------------
    def _snapshot_state(self) -> tuple:
        """Checkpoint of the cross-segment state (``state_names`` +
        scalar register values), taken at segment boundaries."""
        machine = self.machine
        vb = {name: machine.vb[name].copy()
              for name in self.state_names if name in machine.vb}
        return vb, {name: machine.scalar(name) for name in machine.scalars}

    def _state_corrupted(self, prev_worst: float, recovery) -> bool:
        """Non-finite iterates / residuals, or residual divergence."""
        machine = self.machine
        for name in self.state_names:
            buf = machine.vb.get(name)
            if buf is not None and not np.all(np.isfinite(buf)):
                return True
        worst = machine.scalar("worst")
        if worst is not None and not np.isfinite(worst):
            return True
        if (worst is not None and np.isfinite(prev_worst)
                and worst > recovery.divergence_factor
                * max(prev_worst, 1.0)):
            return True
        return False

    def _rollback(self, checkpoint: tuple) -> None:
        """Restore the last good segment boundary.

        Heals possible problem-data corruption too: the host re-
        downloads the pristine HBM vectors and the accelerator reloads
        its on-chip copies (charged as data transfers — the reload is
        the rollback's bounded cost, on top of re-running one segment).
        Buffers and registers are restored in place: the compiled
        backend's closures and fused loops hold them.
        """
        machine = self.machine
        self._download()
        self._run_program(self._reload_program)
        vb_snap, scalar_snap = checkpoint
        for name, arr in vb_snap.items():
            buf = machine.vb.get(name)
            if isinstance(buf, np.ndarray) and buf.shape == arr.shape:
                np.copyto(buf, arr)  # keep compiled stable buffers
            else:
                machine.vb[name] = arr.copy()
        for name, value in scalar_snap.items():
            machine.set_scalar(name, value)

    def run(self) -> RSQPResult:
        """Execute the solve: prologue, loop segments with the host step
        between them, epilogue. Returns the unscaled result.

        With a fault injector (or an explicit recovery policy) armed,
        each segment boundary checks the persistent state for
        non-finite values and residual divergence; a corrupted segment
        is rolled back to the last good checkpoint and re-run, at most
        ``recovery.max_rollbacks`` times, after which the run raises
        :class:`~repro.exceptions.FaultDetectedError`. A configured
        deadline is checked cooperatively between segments and raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        interval = max(self._segment_length(), 1)
        machine = self.machine
        loop_name = self.loop_name
        self.restarts = self.step_updates = 0
        guard = (self.fault_injector is not None
                 or self.recovery is not None)
        recovery = self.recovery
        if guard and recovery is None:
            from ..faults.policy import RecoveryPolicy
            recovery = RecoveryPolicy()
        deadline_at = (time.perf_counter() + self.deadline_seconds
                       if self.deadline_seconds is not None else None)
        rollbacks = 0

        def _events():
            return (tuple(self.fault_injector.events)
                    if self.fault_injector is not None else ())

        self._run_program(self._prologue_program)
        checkpoint = self._snapshot_state() if guard else None
        prev_worst = np.inf
        remaining = self.settings.max_iter
        converged = False
        while remaining > 0:
            if (deadline_at is not None
                    and time.perf_counter() > deadline_at):
                raise DeadlineExceededError(
                    f"solve overran its {self.deadline_seconds:.3g}s "
                    f"deadline with {remaining} iterations to go")
            segment = min(interval, remaining)
            before = machine.stats.loop_iterations.get(loop_name, 0)
            self._run_program(self._segment_program(segment))
            executed = machine.stats.loop_iterations.get(loop_name,
                                                         0) - before
            if guard and self._state_corrupted(prev_worst, recovery):
                if rollbacks >= recovery.max_rollbacks:
                    raise FaultDetectedError(
                        f"{loop_name.upper()} state corrupted after "
                        f"{rollbacks} rollbacks", events=_events())
                rollbacks += 1
                self._rollback(checkpoint)
                continue  # re-run the segment; budget stays
            remaining -= executed
            if machine.scalar("worst", np.inf) < 1.0:
                converged = True
                break
            if executed < segment:  # defensive: loop exited unconverged
                break
            if remaining > 0:
                self._segment_boundary()
            if guard:
                checkpoint = self._snapshot_state()
                worst = machine.scalar("worst")
                if worst is not None and np.isfinite(worst):
                    prev_worst = worst
        self._run_program(self._epilogue_program)

        stats = machine.stats
        arch = self.customization.architecture
        return RSQPResult(
            x=self.scaling.unscale_x(machine.read_hbm("x")),
            y=self.scaling.unscale_y(machine.read_hbm("y")),
            z=self.scaling.unscale_z(machine.read_hbm("z")),
            converged=converged,
            admm_iterations=stats.loop_iterations.get(loop_name, 0),
            pcg_iterations=stats.loop_iterations.get(PCG_LOOP, 0),
            total_cycles=stats.total_cycles,
            fmax_mhz=fmax_mhz(arch),
            power_watts=fpga_power_watts(arch),
            stats=stats, rollbacks=rollbacks,
            fault_events=_events(),
            algorithm=self.algorithm, restarts=self.restarts)

    def _estimate(self, loops: dict, *, restarts: int = 0,
                  step_updates: int = 0) -> int:
        """Analytic cycle count (exact; see :mod:`repro.hw.compiler`):
        the program at these loop trips, plus the transfers each
        restart and each step-size reload charge."""
        ctx = self.compiled.context

        def cycles(*programs):
            return sum(item.cycles(ctx) for program in programs
                       for item in program.instructions)

        return (self.compiled.estimate_cycles_for(loops)
                + restarts * cycles(self._store_program,
                                    self._anchor_program)
                + step_updates * cycles(self._step_program))


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
    state_names = ("x", "z", "y", "xt")
    reload_names = ("q", "l", "u", "rho", "rho_inv", "minv")
    step_reload = ("rho", "rho_inv", "minv")
    step_name = "rho"

    def __init__(self, problem: QProblem,
                 customization: ProblemCustomization | None = None,
                 settings: OSQPSettings | None = None,
                 *, c: int = 16, pcg_eps: float = 1e-7,
                 max_pcg_iter: int = 500,
                 compiled: CompiledProgram | None = None,
                 backend: str = "compiled",
                 verify: bool = True,
                 fault_injector=None,
                 recovery=None,
                 deadline_seconds: float | None = None,
                 scaling=None):
        self.pcg_eps = float(pcg_eps)
        self.max_pcg_iter = int(max_pcg_iter)
        super().__init__(
            problem, customization,
            settings if settings is not None else OSQPSettings(),
            c=c, compiled=compiled, backend=backend, verify=verify,
            fault_injector=fault_injector, recovery=recovery,
            deadline_seconds=deadline_seconds, scaling=scaling)

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

    def _initial_step(self, carried_step=None) -> None:
        if carried_step is not None:
            self._adopt_step(carried_step)
            return
        self.rho, self.rho_vec = admm_initial_step(self.work.l, self.work.u,
                                                   self.settings)

    def _start_lanes(self, lanes, plan, vals, l, u):
        rho, rho_vec = admm_initial_step(l, u, self.settings)
        for b, lane in enumerate(lanes):
            lane.rho, lane.rho_vec = rho, rho_vec[:, b]
        return admm_step_vectors(plan, vals[:plan.nnz_p],
                                 vals[plan.nnz_p:], self.settings.sigma,
                                 rho_vec), {}

    def refresh_numeric(self, problem: QProblem, *,
                        carry_rho: bool = False) -> None:
        """Install new numeric data for the *same* structure, in place
        (see :meth:`Accelerator._refresh`). ``carry_rho=True`` keeps
        the adapted step size from previous solves instead of the
        cold-start estimate."""
        self.refresh(problem, carry_step=carry_rho)

    def _device_image(self, q, l, u, nq, step):
        vectors, registers = super()._device_image(q, l, u, nq, step)
        vectors.update(x=np.zeros(np.shape(q)), z=np.zeros(np.shape(l)),
                       y=np.zeros(np.shape(l)))
        s = self.settings
        registers.update(sigma=s.sigma, alpha_relax=s.alpha,
                         one_m_alpha=1.0 - s.alpha, one=1.0, tiny=1e-30,
                         pcg_eps2=self.pcg_eps ** 2)
        return vectors, registers

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
        return self._estimate({ADMM_LOOP: admm_iterations,
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
