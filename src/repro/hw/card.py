"""The simulated card at any width: one class, one host load.

In the paper's deployment the CPU host does the setup — Ruiz scaling,
the step-size choice and the HBM download — and the card runs the
iteration loop in fixed-length segments with a host step between them.
:class:`BatchAccelerator` is that card for B same-structure instances
in lockstep: it owns the machine, the executor, the segment driver
(:class:`~repro.hw.driver.SegmentDriver`), the compiled-program check
and the one host load that construction and every refresh share. A
solo accelerator (:class:`repro.hw.accelerator.Accelerator`) is lane 0
of this card at width 1 (:meth:`BatchAccelerator.one_lane`), on the
interpreter's :class:`~repro.hw.machine.Machine` — the oracle — or on
a one-lane :class:`~repro.hw.batched.BatchMachine`.

A lane is the host half of one instance (:meth:`repro.hw.accelerator.
Accelerator.lane`). The load is one lane-stacked pass at every width:
Ruiz over the ``(nnz, B)`` values (:func:`repro.qp.
ruiz_equilibrate_batch`), one ``A'`` gather, the algorithm's step data
(:meth:`~repro.hw.accelerator.Accelerator._start_lanes`) and the
download image over lane-minor arrays. Each function is elementwise or
accumulates per lane in the one-lane order, so each lane of a B-wide
load and run is its solo load and run, bit for bit.

:meth:`BatchAccelerator.run` returns a :class:`BatchResult`: the wall
stats of the B-wide virtual fleet (every lockstep trip charges the
stream once) and per lane an :class:`~repro.hw.driver.RSQPResult`
whose ``total_cycles`` are that lane's effective cycles, the analytic
count its solo run measures. A corrupted or deadline-expired batch
lane freezes (it has no rollback budget) and is reported in
``lane_errors`` while the rest keep running.
"""

from __future__ import annotations

import numpy as np

from ..qp import RuizPlan, ruiz_equilibrate_batch
from ..qp.scaling import lane_minor
from ..solver.algorithms import get_algorithm
from ..sparse import CSRMatrix, kernels
from .batched import BatchExecutor, BatchMachine, BatchMatrixResource
from .driver import SegmentDriver
from .machine import ExecutionStats, Machine, MatrixResource

__all__ = ["MATRICES", "BatchResult", "BatchAccelerator"]

#: Streamed matrices every algorithm binds; each owns a CVB bank group.
MATRICES = ("P", "A", "At")


class BatchResult:
    """Per-lane results plus wall accounting of the virtual fleet.

    ``results[b]`` is the lane's :class:`~repro.hw.driver.RSQPResult`
    (effective per-instance cycles), or ``None`` when the lane froze
    early — then ``lane_errors[b]`` says why (``"fault"`` /
    ``"deadline"``).
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

    @property
    def lane_utilization(self) -> float:
        """Sum of per-lane effective cycles over ``B`` times the wall
        cycles: the share of the B-wide stream's lane slots that served
        a live lane (1.0 when every lane runs to the last trip)."""
        return self.lockstep_speedup / max(self.batch, 1)

    def first(self, lanes: int) -> "BatchResult":
        """The result of lanes ``0 .. lanes-1`` with this run's wall
        accounting: a padded group's own lanes when the spare lanes
        copy one of them (a copy is live exactly when its source is, so
        the wall stats are the unpadded run's)."""
        return BatchResult(self.results[:lanes], self.lane_errors[:lanes],
                           wall_stats=self.wall_stats,
                           fmax_mhz=self.fmax_mhz,
                           power_watts=self.power_watts,
                           algorithm=self.algorithm)


class BatchAccelerator:
    """One compiled instruction stream driving B lockstep instances.

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
        from . import accelerator_class  # the registry imports this module
        kind = accelerator_class(algorithm)
        settings = get_algorithm(algorithm).coerce_settings(settings)
        self.batch = len(problems)
        injectors, warm_starts, deadline_ats = self._lane_lists(
            injectors, warm_starts, deadline_ats)
        self._bind([kind.lane(settings, pcg_eps=pcg_eps)
                    for _ in problems],
                   RuizPlan.for_problem(problems[0]), customization,
                   compiled)
        if any(injector is not None for injector in injectors):
            self.machine.injectors = injectors
        self.load(problems, warm_starts=warm_starts)
        self.deadline_ats = deadline_ats

    @classmethod
    def one_lane(cls, lane, problem, customization, compiled, *,
                 backend: str = "compiled", verify: bool = True,
                 scaling=None) -> "BatchAccelerator":
        """The width-1 card of solo accelerator ``lane``, loaded with
        ``problem`` (a precomputed ``scaling`` skips its Ruiz pass);
        ``verify`` checks the program and fused codegen first."""
        card = cls.__new__(cls)
        card._bind([lane], RuizPlan.for_problem(problem) if scaling is None
                   else scaling.plan, customization, compiled,
                   interpret=backend == "interpret", verify=verify)
        if verify:
            # Imported lazily: repro.verify imports this package.
            from ..verify import verify_compiled_program
            verify_compiled_program(compiled).raise_if_failed(
                "accelerator program rejected")
        card.load([problem], scalings=None if scaling is None else [scaling])
        return card

    def _bind(self, lanes: list, plan: RuizPlan, customization, compiled,
              *, interpret: bool = False, verify: bool = True) -> None:
        """Check ``compiled`` against ``plan``'s structure, then build
        the machine, its executor and the driver around ``lanes``."""
        kind = type(lanes[0])
        structure = plan.structure
        self._check_compiled(kind, compiled, customization, structure.n,
                             structure.m)
        self.kind, self.lanes, self.plan = kind, lanes, plan
        self.batch = len(lanes)
        self.algorithm = kind.algorithm
        self.settings = lanes[0].settings
        self.customization, self.compiled = customization, compiled
        # The streamed matrices: each pattern with the customization's
        # SpMV cost and CVB depth, values zero until the load.
        _, at_indices, at_indptr = plan.at_pattern
        patterns = {"P": structure.P, "A": structure.A,
                    "At": CSRMatrix(structure.A.shape[::-1],
                                    np.zeros(structure.A.nnz), at_indices,
                                    at_indptr, check=False)}
        costs = {name: (customization.matrices[name].spmv_cycles,
                        customization.matrices[name].duplication_cycles)
                 for name in MATRICES}
        machine: Machine | BatchMachine
        executor: Machine | BatchExecutor
        if interpret:
            machine = executor = Machine(customization.c, {
                name: MatrixResource(
                    name, CSRMatrix(mat.shape, np.zeros(mat.nnz),
                                    mat.indices, mat.indptr, check=False),
                    *costs[name])
                for name, mat in patterns.items()})
        else:
            machine = BatchMachine(customization.c, {
                name: BatchMatrixResource(name, mat, *costs[name],
                                          self.batch)
                for name, mat in patterns.items()}, self.batch)
            executor = BatchExecutor(machine, verify=verify)
        self.machine, self.executor = machine, executor
        self.driver = SegmentDriver(kind, compiled,
                                    customization.architecture, machine,
                                    executor)

    @staticmethod
    def _check_compiled(kind, compiled, customization, n: int,
                        m: int) -> None:
        """Validate a program against the ``kind`` of accelerator, a
        problem's dimensions and the customization (width and matrix
        costs)."""
        if compiled.algorithm != kind.algorithm:
            raise ValueError(
                f"compiled program implements {compiled.algorithm!r}, "
                f"{kind.__name__} needs a {kind.algorithm!r} program")
        ctx = compiled.context
        if ctx.c != customization.c:
            raise ValueError(
                f"compiled program was costed for C={ctx.c}, "
                f"customization has C={customization.c}")
        if ctx.vector_length("x") != n or ctx.vector_length("y") != m:
            raise ValueError(
                f"compiled program is for n={ctx.vector_length('x')}, "
                f"m={ctx.vector_length('y')}; problem has "
                f"n={n}, m={m}")
        for name in MATRICES:
            costs = customization.matrices[name]
            if (ctx.spmv_cycles(name), ctx.cvb_depth(name)) != (
                    costs.spmv_cycles, costs.duplication_cycles):
                raise ValueError(
                    f"compiled program's {name} SpMV cost or CVB depth "
                    "disagrees with the customization — was it built "
                    "for this structure?")

    def _lane_lists(self, *lists) -> list:
        """Per-lane argument lists (``None`` -> all-``None``), checked
        against the width before anything is changed."""
        lists = [list(values or [None] * self.batch) for values in lists]
        if any(len(values) != self.batch for values in lists):
            raise ValueError("per-lane argument lists must match the "
                             "number of problems")
        return lists

    # ------------------------------------------------------------------
    def refresh(self, problems, warm_starts=None,
                deadline_ats=None) -> None:
        """Install B new same-structure problems through construction's
        :meth:`load`; every lowered closure and fused C unit stays
        bound. Arguments are checked before anything changes, and the
        next :meth:`run` is bitwise a fresh accelerator's on
        ``problems``. The per-lane injectors stay armed."""
        problems = list(problems)
        if len(problems) != self.batch:
            raise ValueError(
                f"machine has {self.batch} lanes, got {len(problems)} "
                "problems")
        warm_starts, deadline_ats = self._lane_lists(warm_starts,
                                                     deadline_ats)
        self.load(problems, warm_starts=warm_starts)
        self.deadline_ats = deadline_ats

    def load(self, problems: list, *, scalings=None, carried=None,
             warm_starts=None) -> None:
        """Load the card from one lane-stacked host pass and clear its
        accounting: construction's and every refresh's load, at any
        width. Ruiz runs over the bound plan (another structure raises
        :class:`~repro.exceptions.ShapeError` before anything changes)
        unless ``scalings`` are given; ``carried`` are per-lane steps
        to adopt (:meth:`~repro.hw.accelerator.Accelerator.
        _start_lanes`). Arrays are written in place: lowered closures
        and the fused loops point at them."""
        lanes, plan = self.lanes, self.plan
        first = lanes[0]
        if scalings is None:
            scalings, vals, q, l, u = ruiz_equilibrate_batch(
                problems, first.settings.scaling, plan=plan)
        else:
            vals, q, l, u = lane_minor([s.problem for s in scalings])
        # Warm iterates first: a bad one raises before anything changes.
        warm = [{} if start is None else first._warm_vectors(scaling, *start)
                for scaling, start in zip(scalings, warm_starts or ())]
        for lane, problem, scaling in zip(lanes, problems, scalings):
            lane.problem, lane.scaling, lane.work = (problem, scaling,
                                                     scaling.problem)
            lane.restarts = lane.step_updates = 0
        # A' gathered once, for the step data and the machine; ||q||
        # per lane in the kernels' order, as a rollback re-writes it.
        at = plan.at_values(vals[plan.nnz_p:])
        vectors, registers = first._device_image(
            q, l, u, np.sqrt(kernels.dot(q, q)),
            first._start_lanes(lanes, plan, vals, at, l, u, carried))

        machine = self.machine
        for name, values in (("P", vals[:plan.nnz_p]),
                             ("A", vals[plan.nnz_p:]), ("At", at)):
            machine.matrices[name].update_values(values)
        for name, values in vectors.items():
            machine.write_hbm(name, values)
        for b, lane_vectors in enumerate(warm):
            for name, values in lane_vectors.items():
                machine.write_hbm_lane(name, b, values)
        for name, value in registers.items():
            machine.set_scalar(name, value)
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
