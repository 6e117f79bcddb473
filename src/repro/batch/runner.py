"""Batched lockstep solves: B same-structure QPs as one vectorized run.

:class:`BatchAccelerator` drives the compiled program of one cached
artifact over a :class:`~repro.hw.batched.BatchMachine`: a single
instruction stream advances B problem instances in lockstep, with
per-instance convergence masking inside the ADMM / PDHG loops
(converged lanes freeze, the loop exits when the mask empties).

Each lane is a solo accelerator, built from the algorithm table
(:func:`repro.hw.accelerator_class`) exactly as the serving layer
builds one; after construction a lane is the host state of one
instance — its problem, scaling and step sizes — and its own machine
never runs. The batch machine is loaded by one lane-stacked host pass:
one Ruiz pass over the ``(nnz, B)`` values, the ``A'`` gather, the
step data of :mod:`repro.solver.host` over ``(m, B)`` bounds, and the
download image the solo card writes, built by the same hook over
lane-minor arrays. Those functions are elementwise per lane or
accumulate per lane in the solo order, so each lane's data is the
solo download bit for bit. The between-segment host step is the solo
one too — restarts, and each lane's adaptive rho / primal-weight
decision through the same :meth:`~repro.hw.accelerator.Accelerator.
_rebalance` the solo driver calls. What stays batch-specific is the
masked apply of that step, the per-lane freeze and the wall
accounting. That is what makes the batched run bit-identical to B
solo runs.

Cycle accounting: the returned :class:`BatchResult` carries the wall
stats of the B-wide virtual fleet (every lockstep trip charges the
stream once) *and* a per-lane :class:`~repro.hw.accelerator.
RSQPResult` whose ``total_cycles`` are that lane's effective cycles —
the analytic count for its own trip/refresh tallies, equal to what the
lane's solo run measures.

Faults and deadlines address lanes individually: per-lane injectors
corrupt only their lane's rows, a corrupted or deadline-expired lane
is frozen and reported in ``lane_errors`` while the rest of the batch
keeps running (the serving layer re-solves such lanes through the solo
resilient path).
"""

from __future__ import annotations

import time

import numpy as np

from ..hw import accelerator_class
from ..hw.accelerator import MATRICES, RESIDUALS, RSQPResult
from ..hw.batched import BatchExecutor, BatchMachine, BatchMatrixResource
from ..hw.compiler import PCG_LOOP
from ..hw.frequency import fmax_mhz
from ..hw.machine import ExecutionStats
from ..hw.power import fpga_power_watts
from ..qp import RuizPlan, ruiz_equilibrate_batch
from ..solver import OSQPSettings
from ..solver.algorithms import get_algorithm

__all__ = ["BatchResult", "BatchAccelerator", "bind_batch",
           "solve_batch_job"]

#: ``lane_errors`` entries a frozen lane can carry.
LANE_FAULT = "fault"
LANE_DEADLINE = "deadline"


class BatchResult:
    """Per-lane results plus wall accounting of the virtual fleet.

    ``results[b]`` is the lane's :class:`~repro.hw.accelerator.
    RSQPResult` (effective per-instance cycles), or ``None`` when the
    lane froze early — then ``lane_errors[b]`` says why
    (``"fault"`` / ``"deadline"``).
    """

    def __init__(self, results: list, lane_errors: list, *,
                 wall_stats: ExecutionStats, fmax_mhz: float,
                 power_watts: float, algorithm: str):
        self.results = results
        self.lane_errors = lane_errors
        self.batch = len(results)
        self.wall_stats = wall_stats
        self.wall_cycles = int(wall_stats.total_cycles)
        self.fmax_mhz = fmax_mhz
        self.power_watts = power_watts
        self.algorithm = algorithm

    @property
    def wall_seconds(self) -> float:
        """Modeled wall time of the whole batch at the design clock."""
        return self.wall_cycles / (self.fmax_mhz * 1e6)

    @property
    def lane_cycles(self) -> tuple:
        """Effective per-instance cycles (0 for frozen lanes)."""
        return tuple(0 if r is None else r.total_cycles
                     for r in self.results)

    @property
    def cycles_per_instance(self) -> float:
        """Wall cycles amortized over the batch."""
        return self.wall_cycles / max(self.batch, 1)

    @property
    def lockstep_speedup(self) -> float:
        """Sum of per-lane effective cycles over wall cycles — how many
        serial solo runs one batched run replaced, in cycle terms."""
        total = sum(self.lane_cycles)
        return total / self.wall_cycles if self.wall_cycles else 0.0


class BatchAccelerator:
    """One compiled instruction stream driving B lockstep instances.

    Parameters mirror the solo accelerators where they overlap;
    ``problems`` must share one structure (the artifact's fingerprint
    guarantees it on the serving path; construction and :meth:`refresh`
    raise :class:`~repro.exceptions.ShapeError` otherwise). ``settings``
    of any algorithm are coerced to ``algorithm``'s type. ``injectors``
    / ``deadline_ats`` are optional per-lane lists (``None`` entries
    disable the feature for that lane; ``deadline_ats`` holds absolute
    ``time.perf_counter()`` timestamps).

    A machine that ran can be loaded again with :meth:`refresh`: B new
    same-structure problems, bound closures and fused loops kept, and
    the next run bitwise the one a fresh accelerator makes (see
    ``docs/BATCH.md``).
    """

    def __init__(self, problems, customization, settings, *,
                 compiled, algorithm: str = "admm",
                 pcg_eps: float = 1e-7, max_pcg_iter: int = 500,
                 warm_starts=None, injectors=None, deadline_ats=None):
        problems = list(problems)
        if not problems:
            raise ValueError("batch needs at least one problem")
        batch = len(problems)
        self.batch = batch
        self.algorithm = algorithm
        lane_type = accelerator_class(algorithm)
        self.settings = settings = \
            get_algorithm(algorithm).coerce_settings(settings)
        self.customization = customization
        self.compiled = compiled
        self.injectors, warm_starts, deadline_ats = self._lane_lists(
            injectors, warm_starts, deadline_ats)

        # One Ruiz plan for the bound structure, reused by every refresh.
        self._ruiz_plan = RuizPlan.for_problem(problems[0])
        scaled = self._equilibrate(problems)
        # Per-lane solo accelerators: the host state of each instance,
        # and the programs and cycle model every lane shares.
        self.lanes = [
            lane_type.bind(problem, customization, settings, compiled,
                           pcg_eps=pcg_eps, max_pcg_iter=max_pcg_iter,
                           backend="interpret", verify=False,
                           scaling=scaling)
            for problem, scaling in zip(problems, scaled[0])]

        self.machine = BatchMachine(customization.c, {
            name: BatchMatrixResource(
                name, self.lanes[0].machine.matrices[name], batch)
            for name in MATRICES}, batch)
        if any(inj is not None for inj in self.injectors):
            self.machine.injectors = self.injectors
        self.executor = BatchExecutor(self.machine)
        self._load(problems, scaled, warm_starts, deadline_ats)

    def _lane_lists(self, *lists) -> list:
        """Per-lane argument lists (``None`` -> all-``None``), checked
        against the width before anything is changed."""
        lists = [list(values or [None] * self.batch) for values in lists]
        if any(len(values) != self.batch for values in lists):
            raise ValueError("per-lane argument lists must match the "
                             "number of problems")
        return lists

    def _equilibrate(self, problems) -> tuple:
        """One lane-stacked Ruiz pass over the bound structure's plan
        (:func:`~repro.qp.ruiz_equilibrate_batch`; a problem of
        another structure raises :class:`~repro.exceptions.
        ShapeError`)."""
        return ruiz_equilibrate_batch(problems, self.settings.scaling,
                                      plan=self._ruiz_plan)

    def refresh(self, problems, warm_starts=None,
                deadline_ats=None) -> None:
        """Install B new same-structure problems on the bound machine.

        One host pass over the lanes, as at construction: a batched
        Ruiz pass over the plan derived at construction (a problem of
        another structure raises :class:`~repro.exceptions.ShapeError`),
        then the lane-stacked step data and download, written in place
        into the value blocks, HBM buffers and scalar registers, so
        every lowered closure and fused C unit stays bound. Arguments
        are checked before anything changes: a rejected refresh leaves
        the machine as it was. The next :meth:`run` is bitwise the run
        a freshly constructed accelerator on ``problems`` makes. The
        per-lane injectors chosen at construction stay armed.
        """
        problems = list(problems)
        if len(problems) != self.batch:
            raise ValueError(
                f"machine has {self.batch} lanes, got {len(problems)} "
                "problems")
        warm_starts, deadline_ats = self._lane_lists(warm_starts,
                                                     deadline_ats)
        self._load(problems, self._equilibrate(problems), warm_starts,
                   deadline_ats)

    def _load(self, problems, scaled, warm_starts, deadline_ats) -> None:
        """Load the batch machine from one lane-stacked host pass and
        clear its accounting — the one load path construction and
        :meth:`refresh` share. ``scaled`` is :meth:`_equilibrate`'s
        output for ``problems``. Arrays are written in place: lowered
        closures and the fused loops' trip tables point at them."""
        scalings, vals, q, l, u = scaled
        lanes, first, plan = self.lanes, self.lanes[0], self._ruiz_plan
        # Warm iterates first: a bad one raises before anything changes.
        warm = [{} if start is None else first._warm_vectors(scaling, *start)
                for scaling, start in zip(scalings, warm_starts)]
        for lane, problem, scaling in zip(lanes, problems, scalings):
            lane.problem, lane.scaling, lane.work = (problem, scaling,
                                                     scaling.problem)
            lane.restarts = lane.step_updates = 0
        vectors, registers = first._device_image(
            q, l, u,
            np.array([np.linalg.norm(scaling.problem.q)
                      for scaling in scalings]),
            first._start_lanes(lanes, plan, vals, l, u))

        machine = self.machine
        a_vals = vals[plan.nnz_p:]
        for name, values in (("P", vals[:plan.nnz_p]), ("A", a_vals),
                             ("At", plan.at_values(a_vals))):
            machine.matrices[name].kernel.val[...] = values
        for name, values in vectors.items():
            machine.write_hbm(name, values)
        for b, lane_vectors in enumerate(warm):
            for name, values in lane_vectors.items():
                machine.write_hbm_lane(name, b, values)
        for name, value in registers.items():
            machine.scalar_buffer(name)[...] = value
        self.deadline_ats = deadline_ats
        machine.stats.reset()
        for trips in machine.lane_loop_iterations.values():
            trips.fill(0)

    # ------------------------------------------------------------------
    def _run(self, program, mask) -> None:
        self.executor.run(program, mask)

    def _expire_deadlines(self, active, missed) -> None:
        if not any(d is not None for d in self.deadline_ats):
            return
        now = time.perf_counter()
        for b, deadline_at in enumerate(self.deadline_ats):
            if deadline_at is not None and active[b] and now > deadline_at:
                active[b] = False
                missed[b] = True

    def _guard_lanes(self, active, faulted) -> None:
        """Freeze lanes whose persistent state went non-finite.

        Batched runs do not roll back (the serving layer re-solves a
        faulted lane through the solo resilient path, which does);
        detection mirrors the solo `_state_corrupted` finiteness
        checks, applied per lane.
        """
        if self.machine.injectors is None:
            return
        machine = self.machine
        worst = machine.scalars.get("worst")
        for b in np.flatnonzero(active):
            bad = worst is not None and not np.isfinite(worst[b])
            if not bad:
                for name in self.lanes[0].state_names:
                    buf = machine.vb.get(name)
                    if buf is not None and not np.all(
                            np.isfinite(buf[:, b])):
                        bad = True
                        break
            if bad:
                active[b] = False
                faulted[b] = True

    # ------------------------------------------------------------------
    def run(self) -> BatchResult:
        """The solo segment loop (:meth:`~repro.hw.accelerator.
        Accelerator.run`) over the active-lane mask."""
        machine = self.machine
        first = self.lanes[0]
        loop_name = first.loop_name
        batch = self.batch
        active = np.ones(batch, dtype=bool)
        converged = np.zeros(batch, dtype=bool)
        missed = np.zeros(batch, dtype=bool)
        faulted = np.zeros(batch, dtype=bool)
        everyone = np.ones(batch, dtype=bool)
        interval = max(first._segment_length(), 1)

        self._run(first._prologue_program, everyone)
        remaining = self.settings.max_iter
        while remaining > 0 and active.any():
            self._expire_deadlines(active, missed)
            if not active.any():
                break
            segment = min(interval, remaining)
            before = machine.stats.loop_iterations.get(loop_name, 0)
            self._run(first._segment_program(segment), active)
            executed = machine.stats.loop_iterations.get(loop_name,
                                                         0) - before
            self._guard_lanes(active, faulted)
            remaining -= executed
            worst = machine.scalars.get("worst")
            if worst is not None:
                with np.errstate(invalid="ignore"):
                    done = active & (worst < 1.0)
                converged |= done
                active &= ~done
            if not active.any():
                break
            if executed < segment:  # defensive: mirrors the solo loop
                break
            if remaining > 0:
                self._segment_boundary(active)
        self._run(first._epilogue_program, everyone)
        return self._collect(converged, missed, faulted)

    def _segment_boundary(self, active) -> None:
        """The solo host step (:meth:`~repro.hw.accelerator.Accelerator.
        _segment_boundary`), applied per lane under the mask.

        Each transfer runs once, masked, for every active lane (the
        wall pays it once); the restart copy and the step-size
        decision are each lane's own.
        """
        machine = self.machine
        hbm = machine.hbm
        first = self.lanes[0]
        lanes = np.flatnonzero(active)
        if first.anchors:
            self._run(first._store_program, active)
            for b in lanes:
                for anchor, iterate in first.anchors:
                    hbm[anchor][:, b] = hbm[iterate][:, b]
                self.lanes[b].restarts += 1
            self._run(first._anchor_program, active)
            for name, value in first.restart_scalars:
                machine.scalar_buffer(name)[active] = value
        changed = False
        for b in lanes:
            lane = self.lanes[b]
            if not lane._rebalance(*(machine.scalar_lane(name, b, 0.0)
                                     for name in RESIDUALS)):
                continue
            vectors, registers = lane._step_data()
            for name, values in vectors.items():
                hbm[name][:, b] = values
            for name, value in registers.items():
                machine.set_scalar_lane(name, b, value)
            changed = True
        if changed and first.step_reload:
            # One masked reload refreshes every active lane; lanes whose
            # step did not change reload bit-identical data (harmless),
            # and the wall pays the transfer once.
            self._run(first._step_program, active)

    # ------------------------------------------------------------------
    def _collect(self, converged, missed, faulted) -> BatchResult:
        machine = self.machine
        arch = self.customization.architecture
        clock = fmax_mhz(arch)
        power = fpga_power_watts(arch)
        no_trips = np.zeros(self.batch, dtype=np.int64)
        lane_trips = {name: machine.lane_loop_iterations.get(name, no_trips)
                      for name in self.compiled.loop_sections}
        results: list = []
        lane_errors: list = []
        for b, lane in enumerate(self.lanes):
            if faulted[b] or missed[b]:
                results.append(None)
                lane_errors.append(LANE_FAULT if faulted[b]
                                   else LANE_DEADLINE)
                continue
            lane_errors.append(None)
            loops = {name: int(trips[b])
                     for name, trips in lane_trips.items()}
            effective = lane._estimate(loops, restarts=lane.restarts,
                                       step_updates=lane.step_updates)
            injector = self.injectors[b]
            events = tuple(injector.events) if injector is not None else ()
            stats = ExecutionStats(
                total_cycles=effective,
                by_class={}, instructions_executed=0,
                loop_iterations=loops)
            results.append(RSQPResult(
                x=lane.scaling.unscale_x(machine.read_hbm_lane("x", b)),
                y=lane.scaling.unscale_y(machine.read_hbm_lane("y", b)),
                z=lane.scaling.unscale_z(machine.read_hbm_lane("z", b)),
                converged=bool(converged[b]),
                admm_iterations=loops[lane.loop_name],
                pcg_iterations=loops.get(PCG_LOOP, 0),
                total_cycles=effective,
                fmax_mhz=clock, power_watts=power,
                stats=stats, fault_events=events,
                algorithm=self.algorithm, restarts=lane.restarts))
        return BatchResult(results, lane_errors,
                           wall_stats=machine.stats.copy(),
                           fmax_mhz=clock, power_watts=power,
                           algorithm=self.algorithm)


def solve_batch_job(problems, artifact, settings: OSQPSettings,
                    warm_starts=None, pcg_eps: float = 1e-7,
                    verify: bool = True, injectors=None,
                    deadline_ats=None) -> BatchResult:
    """Bind one cached artifact to B same-structure problems and run.

    The batched analogue of :func:`repro.serving.pool.solve_job`:
    verification runs once per batch artifact
    (:func:`repro.verify.ensure_batch_verified` — memoized static
    program checks plus lane-compatibility guards), and the algorithm
    is dispatched from the artifact exactly like the solo path.
    """
    problems = list(problems)
    if verify:
        from ..verify import ensure_batch_verified
        ensure_batch_verified(artifact, problems)
    return bind_batch(problems, artifact, settings, pcg_eps,
                      warm_starts=warm_starts, injectors=injectors,
                      deadline_ats=deadline_ats).run()


def bind_batch(problems, artifact, settings: OSQPSettings,
               pcg_eps: float = 1e-7, **lanes) -> BatchAccelerator:
    """Construct the artifact's batched machine around ``problems``;
    ``lanes`` passes ``warm_starts`` / ``injectors`` /
    ``deadline_ats`` through."""
    return BatchAccelerator(
        problems, artifact.customization, settings,
        compiled=artifact.compiled,
        algorithm=getattr(artifact, "algorithm", "admm"),
        pcg_eps=pcg_eps, max_pcg_iter=artifact.max_pcg_iter, **lanes)
