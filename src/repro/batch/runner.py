"""Batched lockstep solves: B same-structure QPs as one vectorized run.

:class:`BatchAccelerator` drives the compiled program of one cached
artifact over a :class:`~repro.hw.batched.BatchMachine`: a single
instruction stream advances B problem instances in lockstep, with
per-instance convergence masking inside the ADMM / PDHG loops
(converged lanes freeze, the loop exits when the mask empties).

Each lane is the host half of one instance
(:meth:`repro.hw.accelerator.Accelerator.lane`): problem, scaling,
step sizes and the algorithm's hooks, and no machine. The batch
machine is loaded by one lane-stacked host pass — one Ruiz pass over
the ``(nnz, B)`` values, the ``A'`` gather, the step data of
:mod:`repro.solver.host` over ``(m, B)`` bounds and the solo download
image over lane-minor arrays — whose functions are elementwise or
accumulate per lane in the solo order. The run is the solo one: the
segment driver (:class:`~repro.hw.driver.SegmentDriver`) at B lanes.
So each lane is its solo run bit for bit.

Cycle accounting: the returned :class:`BatchResult` carries the wall
stats of the B-wide virtual fleet (every lockstep trip charges the
stream once) *and* a per-lane :class:`~repro.hw.accelerator.
RSQPResult` whose ``total_cycles`` are that lane's effective cycles —
the analytic count for its own trip/refresh tallies, equal to what the
lane's solo run measures.

Per-lane injectors corrupt only their lane's rows. A corrupted or
deadline-expired lane freezes (a batch lane has no rollback budget)
and is reported in ``lane_errors`` while the rest keep running; the
serving layer re-solves it through the solo resilient path.
"""

from __future__ import annotations

import numpy as np

from ..hw import accelerator_class
from ..hw.accelerator import card_matrices
from ..hw.batched import BatchExecutor, BatchMachine
from ..hw.driver import LANE_DEADLINE, LANE_FAULT, SegmentDriver
from ..hw.machine import ExecutionStats
from ..qp import RuizPlan, ruiz_equilibrate_batch
from ..solver import OSQPSettings
from ..solver.algorithms import get_algorithm

__all__ = ["BatchResult", "BatchAccelerator", "bind_batch",
           "solve_batch_job", "LANE_FAULT", "LANE_DEADLINE"]


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
        self._ruiz_plan = plan = RuizPlan.for_problem(problems[0])
        scaled = self._equilibrate(problems)
        structure = plan.structure
        lane_type.check_compiled(compiled, customization, structure.n,
                                 structure.m)
        # Each lane is the host half of one instance; the load binds
        # its problem, scaling and step state.
        self.lanes = [lane_type.lane(settings, pcg_eps=pcg_eps)
                      for _ in problems]
        self.machine = BatchMachine(customization.c, card_matrices(
            customization, {"P": structure.P, "A": structure.A,
                            "At": plan.transpose(structure.A.data)},
            batch), batch)
        if any(inj is not None for inj in self.injectors):
            self.machine.injectors = self.injectors
        self.executor = BatchExecutor(self.machine)
        self.driver = SegmentDriver(lane_type, compiled,
                                    customization.architecture,
                                    self.machine, self.executor)
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
            machine.matrices[name].update_values(values)
        for name, values in vectors.items():
            machine.write_hbm(name, values)
        for b, lane_vectors in enumerate(warm):
            for name, values in lane_vectors.items():
                machine.write_hbm_lane(name, b, values)
        for name, value in registers.items():
            machine.set_scalar(name, value)
        self.deadline_ats = deadline_ats
        machine.reset_stats()

    # ------------------------------------------------------------------
    def run(self) -> BatchResult:
        """One lockstep run of every lane: the segment driver at B."""
        return self._collect(self.driver.run(self.lanes, self.deadline_ats))

    def _collect(self, out) -> BatchResult:
        machine, driver = self.machine, self.driver
        no_trips = np.zeros(self.batch, dtype=np.int64)
        lane_trips = {name: machine.lane_loop_iterations.get(name, no_trips)
                      for name in self.compiled.loop_sections}
        results: list = []
        for b, lane in enumerate(self.lanes):
            if out.errors[b] is not None:
                results.append(None)
                continue
            loops = {name: int(trips[b])
                     for name, trips in lane_trips.items()}
            effective = driver.estimate(loops, restarts=lane.restarts,
                                        step_updates=lane.step_updates)
            results.append(driver.result(lane, b, ExecutionStats(
                total_cycles=effective, by_class={},
                instructions_executed=0, loop_iterations=loops),
                out.converged[b]))
        return BatchResult(results, out.errors,
                           wall_stats=machine.stats.copy(),
                           fmax_mhz=driver.fmax_mhz,
                           power_watts=driver.power_watts,
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
