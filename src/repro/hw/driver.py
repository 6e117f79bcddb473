"""The host's segment driver: one loop for every run of the card.

The card runs the iteration loop in fixed-length segments and the host
steps in between them. :class:`SegmentDriver` is that loop, written
over B lanes and a lane mask: a solo accelerator drives it at B=1 (on
the interpreter's :class:`~repro.hw.machine.Machine`, the oracle, or
on the compiled one-lane :class:`~repro.hw.batched.BatchMachine`),
:class:`repro.batch.BatchAccelerator` at B. A lane is the host half of
one instance (:meth:`repro.hw.accelerator.Accelerator.lane`). The
driver reaches either machine through the lane accessors both answer
(``injectors``, ``write_hbm_lane``, ``read_hbm_lane``,
``set_scalar_lane``, ``scalar_lanes``, ``vb_lane``), and passes
``mask=None`` while every lane is live, which keeps the one-lane
machine on its width-1 paths and the interpreter free of masks.

With an injector armed (or a recovery policy given) every live lane is
guarded after each segment: non-finite state, or residual divergence.
A corrupted lane rolls back to its last segment boundary while its
budget lasts — ``recovery.max_rollbacks`` for a solo run, none for a
batch lane — and then freezes with :data:`LANE_FAULT`; a lane past its
deadline freezes with :data:`LANE_DEADLINE`. Solo
:meth:`~repro.hw.accelerator.Accelerator.run` raises the matching
typed error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .compiler import PCG_LOOP
from .frequency import fmax_mhz
from .isa import DataTransfer, Loop, Program
from .machine import ExecutionStats
from .power import fpga_power_watts

if TYPE_CHECKING:
    from ..solver.results import SolverStatus

__all__ = ["RSQPResult", "SegmentDriver", "LaneOutcome", "LANE_FAULT",
           "LANE_DEADLINE", "RESIDUALS", "write_lane"]

#: Why a lane froze before the run ended.
LANE_FAULT = "fault"
LANE_DEADLINE = "deadline"

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


def write_lane(machine, lane: int, image: tuple) -> None:
    """Write one instance's ``(hbm vectors, scalar registers)`` into
    lane ``lane`` of ``machine`` (host side, not charged)."""
    vectors, registers = image
    for name, values in vectors.items():
        machine.write_hbm_lane(name, lane, values)
    for name, value in registers.items():
        machine.set_scalar_lane(name, lane, value)


class LaneOutcome:
    """How each lane of one run ended: converged, or frozen with an
    error and ``left`` iterations to go, after its rollbacks."""

    def __init__(self, width: int):
        self.converged = np.zeros(width, dtype=bool)
        self.errors: list = [None] * width
        self.left = np.zeros(width, dtype=np.int64)
        self.rollbacks = np.zeros(width, dtype=np.int64)


class SegmentDriver:
    """The segment loop of one bound card, over its lanes.

    ``kind`` is the algorithm's accelerator class, whose class data
    shape the host-issued programs; ``executor`` runs them on
    ``machine`` (the interpreter runs itself). Clock and power depend
    only on the ``architecture``, so they are taken once, at bind.
    """

    def __init__(self, kind, compiled, architecture, machine, executor):
        self.kind = kind
        self.compiled = compiled
        self.machine = machine
        self._executor = executor
        self.fmax_mhz = fmax_mhz(architecture)
        self.power_watts = fpga_power_watts(architecture)
        self._build_programs()

    def _build_programs(self) -> None:
        """Construct every host-issued Program once, at bind: the
        compiled executor caches its lowering by instruction-list
        identity, so every segment of every re-solve hits the same
        bound nodes (and the cache stays bounded)."""
        def transfers(direction, names):
            return Program([DataTransfer(direction, name)
                            for name in names])

        kind, sections = self.kind, self.compiled._sections
        self._step_program = transfers("load", kind.step_reload)
        self._reload_program = transfers("load", kind.reload_names)
        self._store_program = transfers(
            "store", [iterate for _, iterate in kind.anchors])
        self._anchor_program = transfers(
            "load", [anchor for anchor, _ in kind.anchors])
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
                                    name=self.kind.loop_name)])
            self._segment_programs[segment] = program
        return program

    def run_program(self, program, mask=None) -> ExecutionStats:
        """Execute one program; ``mask`` (a lane mask, or None for
        every lane) reaches only an executor that takes one."""
        if mask is None:
            return self._executor.run(program)
        return self._executor.run(program, mask)

    @staticmethod
    def _mask(lanes: np.ndarray):
        """``lanes`` as a run mask: None when every lane is in it."""
        return None if lanes.all() else lanes

    # ------------------------------------------------------------------
    def run(self, lanes: list, deadline_ats: list, recovery=None, *,
            rollback: bool = False) -> LaneOutcome:
        """One run of every lane: the prologue; per segment the
        deadlines, the segment over the live lanes, the guard, the
        convergence mask and the host step; the epilogue when some
        lane has an answer to store. ``deadline_ats`` are absolute
        ``time.perf_counter()`` times (or None); with ``rollback`` a
        lane may roll back ``recovery.max_rollbacks`` times."""
        machine, loop_name = self.machine, self.kind.loop_name
        width = len(lanes)
        out = LaneOutcome(width)
        guard = machine.injectors is not None or recovery is not None
        if guard and recovery is None:
            from ..faults.policy import RecoveryPolicy
            recovery = RecoveryPolicy()
        budget = recovery.max_rollbacks if guard and rollback else 0
        timed = any(deadline is not None for deadline in deadline_ats)
        interval = max(lanes[0]._segment_length(), 1)
        active = np.ones(width, dtype=bool)
        prev_worst = np.full(width, np.inf)

        def freeze(b, error):
            active[b] = False
            out.errors[b], out.left[b] = error, remaining

        self.run_program(self._prologue_program)
        checkpoints = ([self._snapshot(b) for b in range(width)]
                       if budget else None)
        remaining = lanes[0].settings.max_iter
        while remaining > 0:
            if timed:
                now = time.perf_counter()
                for b in np.flatnonzero(active):
                    if deadline_ats[b] is not None and now > deadline_ats[b]:
                        freeze(b, LANE_DEADLINE)
                if not active.any():
                    break
            segment = min(interval, remaining)
            before = machine.stats.loop_iterations.get(loop_name, 0)
            self.run_program(self._segment_program(segment),
                             self._mask(active))
            executed = machine.stats.loop_iterations[loop_name] - before
            stepping = active  # the live lanes that take the host step
            if guard:
                rolled = np.zeros(width, dtype=bool)
                worst = machine.scalar_lanes("worst")
                for b in np.flatnonzero(active):
                    if self._corrupted(b, worst, prev_worst[b], recovery):
                        if out.rollbacks[b] < budget:
                            rolled[b] = True
                        else:
                            freeze(b, LANE_FAULT)
                if rolled.any():
                    self._rollback(lanes, rolled, checkpoints)
                    out.rollbacks += rolled
                    stepping = active & ~rolled
                    if not stepping.any():
                        continue  # re-run the segment; budget stays
            remaining -= executed
            worst = machine.scalar_lanes("worst")
            if worst is not None:
                done = stepping & (worst < 1.0)  # NaN compares False
                if done.any():
                    out.converged |= done
                    active &= ~done
                    stepping = stepping & ~done
            if not active.any() or executed < segment:
                break  # (executed < segment: defensive, an early exit)
            if remaining > 0 and stepping.any():
                self._segment_boundary(lanes, stepping)
            if guard:
                worst = machine.scalar_lanes("worst")
                for b in np.flatnonzero(stepping):
                    if checkpoints is not None:
                        checkpoints[b] = self._snapshot(b)
                    if worst is not None and np.isfinite(worst[b]):
                        prev_worst[b] = worst[b]
        if None in out.errors:  # some lane has an answer to store
            self.run_program(self._epilogue_program)
        return out

    def _segment_boundary(self, lanes: list, stepping: np.ndarray) -> None:
        """The host step between two segments, for the ``stepping``
        lanes. With ``anchors`` a restart comes first: the card stores
        the iterates, the host copies them into the anchors, the card
        reloads those and the restart registers reset. Then each lane,
        if adaptive, rebalances its step size from the residuals on the
        device; a change is written and the card reloads
        ``step_reload``. Each transfer runs once, masked (the wall pays
        it once; a lane whose step did not change reloads its bits)."""
        machine, kind = self.machine, self.kind
        mask = self._mask(stepping)
        idx = np.flatnonzero(stepping)
        if kind.anchors:
            self.run_program(self._store_program, mask)
            for b in idx:
                for anchor, iterate in kind.anchors:
                    machine.write_hbm_lane(
                        anchor, b, machine.read_hbm_lane(iterate, b))
                lanes[b].restarts += 1
            self.run_program(self._anchor_program, mask)
            for name, value in kind.restart_scalars:
                machine.set_scalar_lane(name, stepping, value)
        residuals = [machine.scalar_lanes(name) for name in RESIDUALS]
        changed = False
        for b in idx:
            lane = lanes[b]
            if lane._rebalance(*(0.0 if values is None else float(values[b])
                                 for values in residuals)):
                write_lane(machine, b, lane._step_data())
                changed = True
        if changed and kind.step_reload:
            self.run_program(self._step_program, mask)

    # -- fault detection and recovery ----------------------------------
    def _snapshot(self, b: int) -> tuple:
        """Lane ``b``'s checkpoint at a segment boundary: its
        ``state_names`` columns and every scalar register."""
        machine = self.machine
        columns = [(name, machine.vb_lane(name, b))
                   for name in self.kind.state_names]
        return ({name: column.copy() for name, column in columns
                 if column is not None},
                {name: float(machine.scalar_lanes(name)[b])
                 for name in machine.scalars})

    def _corrupted(self, b: int, worst, prev_worst: float,
                   recovery) -> bool:
        """Lane ``b``'s iterates or residuals went non-finite, or its
        residual diverged past ``recovery.divergence_factor``."""
        for name in self.kind.state_names:
            column = self.machine.vb_lane(name, b)
            if column is not None and not np.all(np.isfinite(column)):
                return True
        if worst is None:
            return False
        value = float(worst[b])
        return bool(not np.isfinite(value) or (
            np.isfinite(prev_worst)
            and value > recovery.divergence_factor * max(prev_worst, 1.0)))

    def _rollback(self, lanes: list, rolled: np.ndarray,
                  checkpoints: list) -> None:
        """Restore the ``rolled`` lanes' last segment boundary. The host
        re-downloads each lane's pristine vectors and the card reloads
        them (charged: the rollback's bounded cost, on top of re-running
        one segment), which heals corrupted problem data too. Buffers
        and registers are restored in place: the compiled backend's
        closures and fused loops hold them."""
        machine = self.machine
        idx = np.flatnonzero(rolled)
        for b in idx:
            lanes[b]._download(machine, b)
        self.run_program(self._reload_program, self._mask(rolled))
        for b in idx:
            vb, scalars = checkpoints[b]
            for name, saved in vb.items():
                machine.vb_lane(name, b)[...] = saved
            for name, value in scalars.items():
                machine.set_scalar_lane(name, b, value)

    # -- results ----------------------------------------------------------
    def events(self, b: int) -> tuple:
        """Fault-injection events of lane ``b``'s injector, if armed."""
        injectors = self.machine.injectors
        injector = injectors[b] if injectors else None
        return tuple(injector.events) if injector is not None else ()

    def result(self, lane, b: int, stats: ExecutionStats, converged,
               rollbacks: int = 0) -> RSQPResult:
        """Lane ``b``'s unscaled answer with ``stats``: the machine's
        measured stats for a solo run, a batch lane's analytic ones."""
        machine = self.machine
        scaling = lane.scaling
        loops = stats.loop_iterations
        return RSQPResult(
            x=scaling.unscale_x(machine.read_hbm_lane("x", b)),
            y=scaling.unscale_y(machine.read_hbm_lane("y", b)),
            z=scaling.unscale_z(machine.read_hbm_lane("z", b)),
            converged=bool(converged),
            admm_iterations=loops.get(self.kind.loop_name, 0),
            pcg_iterations=loops.get(PCG_LOOP, 0),
            total_cycles=stats.total_cycles,
            fmax_mhz=self.fmax_mhz, power_watts=self.power_watts,
            stats=stats, rollbacks=int(rollbacks),
            fault_events=self.events(b),
            algorithm=self.kind.algorithm, restarts=lane.restarts)

    def estimate(self, loops: dict, *, restarts: int = 0,
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
