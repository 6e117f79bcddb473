"""Lockstep execution: one instruction stream, B instances.

RSQP's datapath is fixed per problem *structure*, so B instances that
share one fingerprint can execute the identical compiled program in
lockstep over batched float64 buffers — the batched-SpMV regime. This
module is the machine layer of :mod:`repro.batch` and of every solo
``backend="compiled"`` accelerator, which binds a one-lane machine:
solo is a batch of one.

* :class:`BatchMatrixResource` — B lanes' CSR values as one
  contiguous lane-minor ``(nnz, B)`` value block (the sparsity pattern
  is shared by construction), applied through the lane-minor
  :class:`~repro.sparse.kernels.CSRKernel`, whose per-lane order is
  the solo kernel's on every host.
* :class:`BatchMachine` — HBM/VB/CVB as stable ``(len, B)`` buffers,
  scalar registers as ``(B,)`` arrays, wall-clock
  :class:`~repro.hw.machine.ExecutionStats` plus per-lane loop trip
  counters.
* :class:`BatchExecutor` — the one compiled executor: basic blocks
  become numpy closures with deferred block charging, and a loop whose
  body has bound becomes one lane-masked generated C function,
  emitted at this machine's lane count by the one whole-loop builder
  (:class:`~repro.hw.compiled._LoopBuilder`).

Memory layout: lane-minor
-------------------------
Vectors are ``(len, B)`` — element ``i`` of lane ``b`` at row ``i``,
column ``b`` — so the lane axis is the contiguous one. That buys two
things: the batched C kernels' innermost loops run across lanes over
contiguous memory (auto-vectorizable) while preserving each lane's
solo accumulation order, and a per-lane coefficient register ``(B,)``
broadcasts along the *trailing* axis of a vector ufunc, numpy's fast
path. Scalar registers are plain ``(B,)`` arrays.

Convergence masking
-------------------
Lanes are independent: a lane whose Control fired must keep its exit
state bit-exactly while the remaining lanes iterate on. A fused whole
loop masks its writes: each loop frame carries an active-lane mask,
every generated write, DIV/SQRT trap check and Control test honors the
innermost frame's mask, so a frozen lane's columns simply never change
after it fires (see :class:`~repro.hw.compiled._LoopBuilder`).

The node path — a loop's first run, any run with a per-lane fault
injector armed, and bodies the fused tier does not cover — inverts the
cost instead: masking every numpy write would put it on the slow
``where=`` branch, so *every* closure runs full-width on the fast path
(ufuncs straight into their destination buffers), and when a Control
fires, the exiting lanes' columns of every buffer the innermost loop's
body can write — its static write-set, known at lowering — are
snapshotted. When the loop exits, those columns are restored,
discarding whatever the dead trips wrote. Frozen lanes therefore
compute garbage for a while (cheap — the lanes are part of the same
vectorized op) but never *observe* it: trap checks, fault hooks,
Control comparisons and per-lane trip counters all honor the
active-lane mask, and restore rewinds the state itself. Either way the
entry mask is re-established when a loop ends, so PCG-in-ADMM nesting
behaves exactly like B interleaved solo runs.

The same mechanism covers host-level masking: ``run(program, mask)``
snapshots the lanes *outside* ``mask`` against the whole program's
write-set and restores them at the end, so the segment driver can run
refresh/restart programs "for the active lanes" while frozen lanes
keep their exit state.

Buffers created mid-run (a first-trip binding after a Control already
fired) have no snapshot columns for the frozen lanes; their stale
columns are only reachable through reads the interpreter would
reject as use-before-def, which :mod:`repro.verify` statically
excludes.

One lane
--------
A one-lane machine runs the same nodes in width-1 forms that leave
out what a single live lane cannot need: a Control compares lane 0
and exits (the frame it leaves pops at once, so there is nothing to
snapshot); a loop keeps no mask, frame or snapshot; scalar ops apply
the float kernels of :mod:`repro.hw.compiled` to 0-d views of the
``(1,)`` registers; a vector op's register coefficient is a 0-d view;
and :meth:`BatchExecutor.run` skips mask normalisation, the lane-wise
``np.errstate`` and the run frame while the lane is live. The numpy
SpMV/DOT twins take the 1-D view of one lane
(:mod:`repro.sparse.kernels`). The bits are the lane form's.

Cycle accounting
----------------
The wall stats model the B-wide "virtual fleet": every lockstep trip
charges each instruction its full cost once (the hardware issues the
stream once, whatever the lane mask), so ``stats.total_cycles`` is the
fleet's wall time and wall loop trips are the max over lanes.
Per-lane *effective* cycles are analytic — each lane's own trip counts
through :meth:`~repro.hw.compiler.CompiledProgram.estimate_cycles` —
and equal what that lane's solo run would have measured.

Bit-exactness contract
----------------------
Elementwise IEEE-754 float64 ops are order-free per element, so a
``(len, B)`` ufunc is bitwise identical per lane to the solo ``(len,)``
ufunc; the closure fold table is
:func:`~repro.hw.compiled.vector_fold`'s; DOT and SpMV route
through batched C kernels whose per-lane accumulation order is the
solo kernels' own (see :mod:`repro.hw.cjit`); scalar MAX replicates
Python ``max(a, b)`` (returns ``b`` only when ``b > a``,
NaN-asymmetric) via ``where(b > a, b, a)``. DIV/SQRT traps fire only
for *active* lanes — a frozen lane's stale operands can never fault a
running batch.
"""

from __future__ import annotations

import os

import numpy as np

from ..exceptions import ShapeError, SimulationError, VerificationError
from ..sparse import kernels
from ..sparse.kernels import CSRKernel
from . import cjit
from .compiled import _SCALAR_KERNELS, _LoopBuilder, literal_operand
from .isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Loop, Program,
                  ScalarOp, ScalarOpKind, SpMV, VecDup, VectorOp,
                  VectorOpKind)
from .machine import ExecutionStats, _LoopExit

__all__ = ["BatchMatrixResource", "BatchMachine", "BatchExecutor",
           "static_write_set"]


class BatchMatrixResource:
    """B matrices of one sparsity structure, batched SpMV.

    ``solo`` is a :class:`~repro.hw.machine.MatrixResource` of the
    structure: its pattern, schedule cost and CVB depth are every
    lane's (same-fingerprint problems share the pattern by
    construction — Ruiz scaling only rescales values — and
    :class:`repro.batch.BatchAccelerator` checks its lanes before
    loading any). The ``batch`` lanes' values live lane-minor,
    ``(nnz, B)``, in ``kernel.val`` (zeros until the host writes them,
    in place with :meth:`update_values`, so every closure bound to the
    kernel stays valid): a lane-minor
    :class:`~repro.sparse.kernels.CSRKernel` whose lane ``b`` is
    bit-identical to a solo SpMV on lane ``b``'s data.
    """

    def __init__(self, name: str, solo, batch: int):
        self.name = name
        self.spmv_cycles = solo.spmv_cycles
        self.cvb_depth = solo.cvb_depth
        matrix = solo.matrix
        self.shape = tuple(int(s) for s in matrix.shape)
        self.kernel = CSRKernel(self.shape,
                                np.zeros((matrix.indices.size, batch)),
                                matrix.indices, matrix.indptr)

    def update_values(self, data) -> None:
        """Install every lane's values, lane-minor ``(nnz, B)`` — or one
        lane's ``(nnz,)`` on a one-lane machine — strictly in place."""
        val = self.kernel.val
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1 and val.shape[1] == 1:
            data = data[:, None]
        if data.shape != val.shape:
            raise ShapeError(
                f"matrix {self.name!r}: got values of shape {data.shape} "
                f"for a pattern of shape {val.shape}")
        val[...] = data


class BatchMachine:
    """State container for B lockstep instances of one structure.

    Mirrors the :class:`~repro.hw.machine.Machine` interface the cycle
    model reads (``c`` / ``vector_length`` / ``spmv_cycles`` /
    ``cvb_depth``) while holding every vector as a lane-minor
    ``(len, B)`` buffer. Execution goes through :class:`BatchExecutor`
    only — the per-instruction interpreter stays single-instance. A
    solo accelerator's compiled machine is one lane: it reaches it
    through the interpreter's host accessors (:meth:`write_hbm` with a
    1-D vector, :meth:`read_hbm`, :meth:`set_scalar`, :meth:`scalar`,
    :attr:`injector`, :meth:`reset_stats`); reads address lane 0.
    """

    def __init__(self, c: int, matrices: dict, batch: int):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.c = int(c)
        self.batch = int(batch)
        self.matrices: dict[str, BatchMatrixResource] = dict(matrices)
        self.hbm: dict[str, np.ndarray] = {}
        self.vb: dict[str, np.ndarray] = {}
        self.cvb: dict[str, np.ndarray] = {}
        self.scalars: dict[str, np.ndarray] = {}
        self.stats = ExecutionStats()
        #: Per-lane loop trip counts, ``name -> (B,) int64`` (the wall
        #: trips live in ``stats.loop_iterations`` as usual).
        self.lane_loop_iterations: dict[str, np.ndarray] = {}
        #: Per-lane fault injectors (``None`` entries are fault-free
        #: lanes); hooks fire on a lane's column view only while that
        #: lane is active, so per-channel op counts match a solo run.
        self.injectors: list | None = None

    # -- host-side state helpers ----------------------------------------
    def write_hbm(self, name: str, values) -> None:
        """Host write of every lane, lane-minor ``(len, B)`` values — or
        one lane's 1-D vector on a one-lane machine — (CPU -> HBM, not
        charged), in place once the buffer exists: lowered closures and
        the fused loops point at it."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1 and self.batch == 1:
            values = values[:, None]
        buf = self.hbm.get(name)
        if buf is None:
            buf = self.hbm[name] = np.empty(values.shape)
        buf[...] = values

    def write_hbm_lane(self, name: str, lane: int, values) -> None:
        """Host write of one lane's column (CPU -> HBM, not charged)."""
        col = np.asarray(values, dtype=np.float64)
        buf = self.hbm.get(name)
        if buf is None:
            buf = np.zeros((col.size, self.batch))
            self.hbm[name] = buf
        buf[:, lane] = col

    def read_hbm_lane(self, name: str, lane: int) -> np.ndarray:
        return self.hbm[name][:, lane].copy()

    def scalar_buffer(self, name: str) -> np.ndarray:
        buf = self.scalars.get(name)
        if buf is None:
            buf = np.zeros(self.batch)
            self.scalars[name] = buf
        return buf

    def set_scalar_lane(self, name: str, lane: int, value: float) -> None:
        self.scalar_buffer(name)[lane] = float(value)

    def scalar_lane(self, name: str, lane: int, default=None):
        buf = self.scalars.get(name)
        if buf is None:
            return default
        return float(buf[lane])

    def reset_stats(self) -> None:
        """Zero the wall stats and the per-lane trips, in place."""
        self.stats.reset()
        for trips in self.lane_loop_iterations.values():
            trips.fill(0)

    # -- a one-lane machine through the interpreter's host interface ----
    def read_hbm(self, name: str) -> np.ndarray:
        return self.read_hbm_lane(name, 0)

    def set_scalar(self, name: str, value: float) -> None:
        """Set register ``name`` in every lane, in place."""
        self.scalar_buffer(name)[...] = float(value)

    def scalar(self, name: str, default=None):
        """Lane 0 of register ``name`` as a float, or ``default``."""
        return self.scalar_lane(name, 0, default)

    @property
    def injector(self):
        """The one armed injector (lane 0), or None."""
        return self.injectors[0] if self.injectors else None

    @injector.setter
    def injector(self, injector) -> None:
        self.injectors = None if injector is None else [injector]

    # -- cycle-model context (per-lane lengths, like a solo machine) ----
    def vector_length(self, name: str) -> int:
        for space in (self.vb, self.hbm, self.cvb):
            if name in space:
                return int(space[name].shape[0])
        raise SimulationError(f"unknown vector {name!r}")

    def spmv_cycles(self, matrix: str) -> int:
        return self.matrices[matrix].spmv_cycles

    def cvb_depth(self, matrix: str) -> int:
        return self.matrices[matrix].cvb_depth


# ---------------------------------------------------------------------------
# write-set analysis (which buffers a block of instructions can mutate)

def _collect_writes(items, writes: set) -> None:
    """Accumulate ``(space, name)`` destinations of a block, recursing
    into nested loops. ``space`` keys the BatchMachine state dicts."""
    for instr in items:
        if isinstance(instr, ScalarOp):
            writes.add(("scalars", instr.dst))
        elif isinstance(instr, VectorOp):
            if instr.op is VectorOpKind.DOT:
                writes.add(("scalars", instr.dst))
            else:
                writes.add(("vb", instr.dst))
        elif isinstance(instr, DataTransfer):
            writes.add(("vb" if instr.direction == "load" else "hbm",
                        instr.name))
        elif isinstance(instr, VecDup):
            writes.add(("cvb", instr.cvb))
        elif isinstance(instr, SpMV):
            writes.add(("vb", instr.dst))
        elif isinstance(instr, Loop):
            _collect_writes(instr.body, writes)
        elif isinstance(instr, Control):
            pass
        else:
            raise SimulationError(f"unknown instruction {instr!r}")


def static_write_set(items) -> set:
    """The ``(space, name)`` write-set of a block of instructions.

    This is the set snapshot-restore freezes against; the codegen
    verifier (:mod:`repro.verify.codegen`) proves it a superset of the
    effect IR's actual writes for every fused unit inside the block.
    """
    writes: set = set()
    _collect_writes(items, writes)
    return writes


# ---------------------------------------------------------------------------
# lowered nodes

class _Segment:
    """A straight-line basic block, lazily lowered on first execution.

    The first execution charges and runs instruction by instruction
    (identical observable behaviour to the interpreter, including where
    an error leaves the stats); every later execution runs the fused
    closures and *defers* the block's pre-aggregated cycle cost: a
    pending execution counter accrues and the executor applies the
    total with one ``charge_block`` per run (stats are only observed
    between runs, never mid-program). In lockstep the block charges its
    full cost per execution whatever the lane mask, since the sequencer
    issues every instruction once per trip for however many lanes
    remain.
    """

    __slots__ = ("_executor", "_instructions", "_stats", "_fns",
                 "_cycles", "_by_class", "_count", "pending")

    def __init__(self, executor: "BatchExecutor", instructions: list):
        self._executor = executor
        self._instructions = instructions
        self._stats = executor.machine.stats
        self._fns = None
        self.pending = 0

    def run(self) -> None:
        fns = self._fns
        if fns is None:
            self._bind()
            return
        for fn in fns:
            fn()
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1

    def flush(self) -> None:
        count = self.pending
        if count:
            self.pending = 0
            if count == 1:
                self._stats.charge_block(self._cycles, self._by_class,
                                         self._count)
            else:
                self._stats.charge_block(
                    count * self._cycles,
                    {k: count * v for k, v in self._by_class.items()},
                    count * self._count)

    def _bind(self) -> None:
        executor = self._executor
        machine = executor.machine
        stats = self._stats
        fns: list = []
        total = 0
        by_class: dict = {}
        for instr in self._instructions:
            kind = type(instr).__name__
            cycles = instr.cycles(machine)
            stats.charge(kind, cycles)
            fn = executor._lower_instruction(instr)
            fn()
            fns.append(fn)
            total += cycles
            by_class[kind] = by_class.get(kind, 0) + cycles
        self._count = len(fns)
        self._fns = fns
        self._cycles = total
        self._by_class = by_class


class _ControlNode:
    """A Control test, evaluated per lane; exits lanes individually.

    Lanes whose ``value < threshold`` are frozen: their columns of the
    innermost frame's write-set are snapshotted and they leave the
    current mask, so the remaining trips cannot *observably* touch
    them (their state is rewound at loop exit — the lockstep analogue
    of the interpreter's ``_LoopExit`` skipping the rest of the body).
    When no active lane remains the node aborts the trip; the frame
    then pops at once, so the firing lanes need no snapshot. On one
    lane that is every firing: the width-1 form compares lane 0 and
    exits.
    """

    __slots__ = ("_executor", "_stats", "_value", "_threshold", "pending",
                 "run")

    def __init__(self, executor: "BatchExecutor", instr: Control):
        self._executor = executor
        self._stats = executor.machine.stats
        self._value = executor._scalar_reader(instr.reg)
        self._threshold = executor._scalar_reader(instr.threshold_reg)
        self.pending = 0
        self.run = self._run_one if executor.batch == 1 else self._run_lanes

    def _run_one(self) -> None:
        # A Control only runs inside a trip, where the one lane is live.
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1
        if self._value() < self._threshold():
            raise _LoopExit()

    def _run_lanes(self) -> None:
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1
        executor = self._executor
        fired = (self._value() < self._threshold()) & executor._mask
        if not fired.any():
            return
        remaining = executor._mask & ~fired
        if not remaining.any():
            raise _LoopExit()
        executor._freeze_lanes(fired)
        executor._set_mask(remaining)

    def flush(self) -> None:
        count = self.pending
        if count:
            self.pending = 0
            self._stats.charge_block(count, {"Control": count}, count)


class _LoopNode:
    """A Loop owning a snapshot frame and a per-frame lane mask.

    The frame starts from the mask at loop entry; lanes that exit via
    Control are snapshotted against this loop's write-set and leave
    the mask for all later trips. On pop the snapshots are restored
    and the entry mask is re-established, so an outer body continues
    with its own lanes and the exited lanes' state is exactly their
    at-fire state (inner-loop exits never leak outward). Wall trips
    count every trip with at least one active lane; per-lane trips
    count the lanes active at each trip's start (the exit trip counts,
    as in the interpreter). One live lane needs none of that
    bookkeeping: its trips are the wall trips.

    The body's lowered nodes are shared via the executor cache, while
    ``max_iter``/``name`` are read from this node's own Loop object
    (the accelerator re-wraps the same body list in fresh Loop objects
    per segment length). Once the body's segments have bound, the
    whole loop is lowered into one generated C function (see
    :class:`~repro.hw.compiled._LoopBuilder`), bypassed while a fault
    injector is armed; an unsupported body stays on this node path.
    """

    __slots__ = ("_executor", "_loop", "_nodes", "_stats", "_fused")

    def __init__(self, executor: "BatchExecutor", loop: Loop):
        self._executor = executor
        self._loop = loop
        self._nodes = executor._lower_block(loop.body)
        self._stats = executor.machine.stats
        self._fused = None

    def run(self) -> None:
        executor = self._executor
        loop = self._loop
        if executor.jit and executor.machine.injectors is None:
            fused = self._fused
            if fused is None:
                fused = executor._fuse(loop.body, self._nodes)
                if fused is not None:
                    self._fused = fused
            if fused:
                fused.run(loop)
                return
        machine = executor.machine
        lane_counts = machine.lane_loop_iterations.get(loop.name)
        if lane_counts is None:
            lane_counts = np.zeros(machine.batch, dtype=np.int64)
            machine.lane_loop_iterations[loop.name] = lane_counts
        entry = executor._mask
        nodes = self._nodes
        iterations = 0
        if executor.batch == 1 and entry[0]:
            for _ in range(loop.max_iter):
                iterations += 1
                try:
                    for node in nodes:
                        node.run()
                except _LoopExit:
                    break
            lane_counts[0] += iterations
        else:
            iterations = self._run_lanes(entry, lane_counts)
        counts = self._stats.loop_iterations
        counts[loop.name] = counts.get(loop.name, 0) + iterations

    def _run_lanes(self, entry: np.ndarray, lane_counts: np.ndarray) -> int:
        executor = self._executor
        nodes = self._nodes
        frame = entry
        iterations = 0
        executor._push_frame(executor._write_set(self._loop.body))
        try:
            for _ in range(self._loop.max_iter):
                if not frame.any():
                    break
                executor._set_mask(frame)
                if frame is entry:
                    lane_counts += frame
                else:
                    lane_counts[frame] += 1
                iterations += 1
                try:
                    for node in nodes:
                        node.run()
                    frame = executor._mask
                except _LoopExit:
                    break
        finally:
            executor._pop_frame()
            executor._set_mask(entry)
        return iterations


def _bound(nodes: list) -> bool:
    """True when every segment in ``nodes`` (recursively) has bound."""
    for node in nodes:
        if isinstance(node, _Segment):
            if node._fns is None:
                return False
        elif isinstance(node, _LoopNode) and not _bound(node._nodes):
            return False
    return True


# ---------------------------------------------------------------------------

class BatchExecutor:
    """Run programs against a :class:`BatchMachine` under a lane mask.

    The one compiled executor: a solo accelerator runs on a one-lane
    machine, a batch on B lanes. Blocks lower into :class:`_Segment`,
    Control and Loop nodes, cached by the identity of the instruction
    *list* — the compiler's section lists are long-lived, which is
    exactly what makes per-solve reuse pay; a strong reference to the
    keyed list is kept so ``id()`` reuse after garbage collection can
    never alias two different programs. Closures bind stable
    destination buffers at first execution, charge by deferred block
    totals and always execute full-width; lane freezing is
    snapshot-at-Control-fire and restore-at-loop-exit (see the module
    docstring). A loop whose body has bound becomes one generated C
    function (:meth:`_fuse`).

    Fault hooks bind the armed injectors when a block lowers, so each
    ``machine.injectors`` list gets its own lowering: a resident
    machine re-armed between runs fires hooks exactly as a freshly
    built one. The fault-free lowering is kept for reuse.
    """

    def __init__(self, machine: BatchMachine, jit: bool | None = None,
                 verify: bool | None = None):
        self.machine = machine
        #: Lane count; the whole-loop builder and the width-1 node
        #: forms specialize one lane.
        self.batch = machine.batch
        self._blocks: dict = {}
        self._clean_blocks = self._blocks
        self._lowered_for = None
        self._writes: dict = {}
        self._loop_fused: dict = {}
        self._dirty: list = []
        if jit is None:
            self.jit = cjit.available()
        else:
            self.jit = bool(jit) and cjit.available()
        # Static codegen verification of every fused unit before its
        # first execution (memoized per effect-IR digest; see
        # repro.verify.codegen). REPRO_VERIFY_CODEGEN=0 is a global
        # kill switch that overrides any caller.
        if verify is None:
            verify = True
        self.verify = (bool(verify) and
                       os.environ.get("REPRO_VERIFY_CODEGEN", "1") != "0")
        #: Stack of (write_set, saved_columns) snapshot frames; the
        #: write set is the enclosing loop's (or the whole program's).
        self._frames: list = []
        self._live = np.ones(machine.batch, dtype=bool)
        self._set_mask(self._live)

    # -- mask and snapshot frames ---------------------------------------
    def _set_mask(self, mask: np.ndarray) -> None:
        self._mask = mask

    def _push_frame(self, writes: tuple) -> None:
        self._frames.append((writes, []))

    def _freeze_lanes(self, fired: np.ndarray) -> None:
        """Snapshot the fired lanes' columns of the innermost frame's
        write-set; restored when that frame pops. Buffers the frame's
        body has not yet created are skipped (their columns stay on
        the statically-unreachable use-before-def path)."""
        if not self._frames:
            return
        writes, saved = self._frames[-1]
        idx = np.flatnonzero(fired)
        machine = self.machine
        spaces = {"hbm": machine.hbm, "vb": machine.vb,
                  "cvb": machine.cvb, "scalars": machine.scalars}
        for space, name in writes:
            buf = spaces[space].get(name)
            if buf is not None:
                saved.append((buf, idx, buf[..., idx].copy()))

    def _pop_frame(self) -> None:
        _writes, saved = self._frames.pop()
        for buf, idx, cols in saved:
            buf[..., idx] = cols

    # -- execution -------------------------------------------------------
    def run(self, program: Program,
            mask: np.ndarray | None = None) -> ExecutionStats:
        """Execute ``program`` over the lanes selected by ``mask``
        (None: every lane); returns the machine's stats object.

        Lanes outside ``mask`` are frozen for the whole run: their
        columns of the program's write-set are snapshotted up front
        and restored at the end, so a host driver can run
        refresh/restart programs for the active subset only. One live
        lane skips the frame, the lane-wise error state and the mask
        bookkeeping: nothing can freeze it mid-run.
        """
        injectors = self.machine.injectors
        if injectors is not self._lowered_for:
            self._lowered_for = injectors
            self._blocks = self._clean_blocks if injectors is None else {}
        if mask is not None:
            mask = np.ascontiguousarray(mask, dtype=bool)
            if mask.shape != (self.batch,):
                raise ValueError(
                    f"mask must have shape ({self.batch},), "
                    f"got {mask.shape}")
        items = program.instructions
        if self.batch == 1 and (mask is None or mask[0]):
            self._set_mask(self._live)
            try:
                for node in self._lower_block(items):
                    node.run()
            finally:
                self._flush()
            return self.machine.stats
        if mask is None:
            mask = self._live
        self._push_frame(self._write_set(items))
        try:
            self._set_mask(mask)
            frozen = ~mask
            if frozen.any():
                self._freeze_lanes(frozen)
            # One errstate for the whole run: closures execute frozen
            # lanes' columns too (their stale values may be out of
            # domain); the active-lane trap checks keep the
            # interpreter's error semantics, the suppressed warnings
            # would only concern columns that restore rewinds anyway.
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                for node in self._lower_block(items):
                    node.run()
        finally:
            self._pop_frame()
            self._flush()
        return self.machine.stats

    def _flush(self) -> None:
        """Apply deferred block charges; stats are exact between runs."""
        dirty = self._dirty
        if dirty:
            for node in dirty:
                node.flush()
            dirty.clear()

    def _lower_block(self, items: list) -> list:
        key = id(items)
        cached = self._blocks.get(key)
        if cached is not None and cached[0] is items:
            return cached[1]
        nodes: list = []
        current: list = []
        for item in items:
            if isinstance(item, (Loop, Control)):
                if current:
                    nodes.append(_Segment(self, current))
                    current = []
                nodes.append(_LoopNode(self, item) if isinstance(item, Loop)
                             else _ControlNode(self, item))
            else:
                current.append(item)
        if current:
            nodes.append(_Segment(self, current))
        self._blocks[key] = (items, nodes)
        return nodes

    def _write_set(self, items: list) -> tuple:
        """:func:`static_write_set` of ``items``, sorted, cached by list
        identity (a strong reference kept, as in :meth:`_lower_block`)."""
        key = id(items)
        cached = self._writes.get(key)
        if cached is not None and cached[0] is items:
            return cached[1]
        writes = tuple(sorted(static_write_set(items)))
        self._writes[key] = (items, writes)
        return writes

    def _fuse(self, body: list, nodes: list):
        """Whole-loop fusion for ``body`` (cached by list identity).

        Returns the fused unit, ``False`` when the body is permanently
        unfusable (unsupported instruction, nested zero-trip loop,
        compile failure — the node path stays), or ``None`` when the
        body's segments have not all bound yet (the caller retries on a
        later run; only genuine build verdicts are cached).
        """
        key = id(body)
        cached = self._loop_fused.get(key)
        if cached is not None and cached[0] is body:
            return cached[1]
        if not _bound(nodes):
            return None
        try:
            builder = _LoopBuilder(self)
            builder.emit_body_ir(body)
            if self.verify:
                from ..verify.codegen import ensure_codegen_verified
                ensure_codegen_verified(builder.effect_ir(), body,
                                        self.machine)
            fused = builder._finish_loop()
        except VerificationError:
            raise
        except Exception:
            fused = None
        if fused is None:
            fused = False
        self._loop_fused[key] = (body, fused)
        return fused

    # -- operand binding -------------------------------------------------
    def _resident(self, name: str) -> np.ndarray:
        machine = self.machine
        if name in machine.vb:
            return machine.vb[name]
        if name in machine.cvb:
            return machine.cvb[name]
        raise SimulationError(f"vector {name!r} not resident on chip")

    def _dst_buffer(self, space: dict, name: str, length: int) -> np.ndarray:
        """The stable in-place ``(length, B)`` destination of ``name``."""
        batch = self.machine.batch
        buf = space.get(name)
        if (isinstance(buf, np.ndarray) and buf.dtype == np.float64
                and buf.shape == (length, batch)):
            return buf
        buf = np.zeros((length, batch))
        space[name] = buf
        return buf

    def _scalar_operand(self, ref):
        """Prebound operand for segment-time binding: the stable
        ``(B,)`` register array, or a float literal. A segment
        instruction lowers at its *first execution*, so a register a
        correct program defines earlier already exists — a missing one
        is the interpreter's use-before-def error."""
        lit = literal_operand(ref)
        if lit is not None:
            return lit
        buf = self.machine.scalars.get(ref)
        if buf is None:
            raise SimulationError(f"unknown scalar register {ref!r}")
        return buf

    def _coefficient(self, ref):
        """A vector op's scalar coefficient: the ``(B,)`` register,
        which broadcasts along the trailing lane axis, a float literal,
        or on one lane the register's 0-d view, which a ufunc takes at
        its scalar speed."""
        operand = self._scalar_operand(ref)
        if self.batch == 1 and isinstance(operand, np.ndarray):
            return operand.reshape(())
        return operand

    def _scalar_reader(self, ref):
        """Deferred reader of a scalar register or literal: ``(B,)``
        values, or one lane's float.

        Control nodes are constructed at block-lowering time, before
        any instruction ran, so their operand registers may not exist
        yet — hence resolution at every read."""
        if isinstance(ref, str):
            scalars = self.machine.scalars
            one = self.batch == 1

            def get():
                try:
                    buf = scalars[ref]
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {ref!r}") from None
                return buf.item() if one else buf
            return get
        value = (float(ref) if self.batch == 1
                 else np.full(self.batch, float(ref)))
        return lambda: value

    # -- per-instruction lowering ---------------------------------------
    def _lower_instruction(self, instr):
        if isinstance(instr, ScalarOp):
            return self._lower_scalar(instr)
        if isinstance(instr, VectorOp):
            return self._lower_vector(instr)
        if isinstance(instr, DataTransfer):
            return self._lower_transfer(instr)
        if isinstance(instr, VecDup):
            return self._lower_vecdup(instr)
        if isinstance(instr, SpMV):
            return self._lower_spmv(instr)
        raise SimulationError(f"unknown instruction {instr!r}")

    def _hooked(self, fn, hook_name: str, site: str, buf: np.ndarray):
        """Per-lane fault hooks: fire on a lane's column view only
        while that lane is active, so op counting matches its solo
        run (writes through the view mutate the lane's column)."""
        injectors = self.machine.injectors
        if not injectors:
            return fn
        # The stable buffer's column views, taken once.
        hooks = [(lane, getattr(injector, hook_name), buf[:, lane])
                 for lane, injector in enumerate(injectors)
                 if injector is not None]
        if not hooks:
            return fn
        if len(hooks) == 1:  # a solo machine's injector, say
            ((lane, hook, column),) = hooks

            def hooked():
                fn()
                if self._mask[lane]:
                    hook(site, column)
            return hooked

        def hooked():
            fn()
            mask = self._mask
            for lane, hook, column in hooks:
                if mask[lane]:
                    hook(site, column)
        return hooked

    # -- scalar ops ------------------------------------------------------
    def _lower_scalar(self, instr: ScalarOp):
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        # Resolve sources BEFORE creating dst: `op d, undefined, s`
        # must fail like the interpreter even when d is new.
        a = self._scalar_operand(instr.src1)
        b = (self._scalar_operand(instr.src2)
             if instr.src2 is not None else None)
        dst = self.machine.scalar_buffer(instr.dst)
        if self.batch == 1 and (isinstance(a, np.ndarray)
                                or isinstance(b, np.ndarray)):
            return self._scalar_one(instr.op, a, b, dst)
        return self._scalar_lanes(instr.op, a, b, dst)

    def _scalar_one(self, op: ScalarOpKind, a, b, dst):
        """One lane: the float kernel on the register values (a
        one-lane ufunc costs several times the float arithmetic). A
        trap of a frozen lane — possible only in a run whose mask
        excludes it — defers to the lane form, so the lane traps
        exactly when the lane form would."""
        kernel = _SCALAR_KERNELS[op]
        # 0-d views of the registers (or the literals); a unary
        # kernel ignores its second operand.
        a0 = np.asarray(a).reshape(())
        b0 = a0 if b is None else np.asarray(b).reshape(())
        d0 = dst.reshape(())

        def fn():
            try:
                d0[()] = kernel(float(a0), float(b0))
            except SimulationError:
                if self._mask[0]:
                    raise
                self._scalar_lanes(op, a, b, dst)()
        return fn

    def _scalar_lanes(self, op: ScalarOpKind, a, b, dst):
        a_lit = a if isinstance(a, float) else None
        b_lit = b if isinstance(b, float) else None
        both_lit = a_lit is not None and (b is None or b_lit is not None)

        if op is ScalarOpKind.MAX:
            def fn():
                # Python max(a, b) returns b only when b > a (NaN-
                # asymmetric), which np.maximum would not replicate.
                np.copyto(dst, np.where(np.greater(b, a), b, a))
            return fn
        if op is ScalarOpKind.MOV:
            if a_lit is not None:
                return lambda: dst.fill(a_lit)
            return lambda: np.copyto(dst, a)
        if op is ScalarOpKind.SQRT:
            if a_lit is not None:
                if a_lit < 0.0:
                    def fn():
                        raise SimulationError("sqrt of a negative scalar")
                    return fn
                value = float(np.sqrt(a_lit))
                return lambda: dst.fill(value)

            def fn():
                # Fast pre-filter: only when some lane (frozen lanes
                # included) is negative, pay the masked check. A NaN
                # minimum fails the >= 0 test and falls through too.
                if not bool(a.min() >= 0.0):
                    if bool(((a < 0.0) & self._mask).any()):
                        raise SimulationError("sqrt of a negative scalar")
                np.sqrt(a, out=dst)
            return fn
        if op is ScalarOpKind.DIV:
            if b_lit is not None:
                if b_lit == 0.0:
                    def fn():
                        raise SimulationError("scalar division by zero")
                    return fn
                if a_lit is not None:
                    value = a_lit / b_lit
                    return lambda: dst.fill(value)

                def fn():
                    np.divide(a, b_lit, out=dst)
                return fn

            def fn():
                # all() is True iff no lane holds 0.0 (NaN is truthy),
                # so the common case skips the masked trap check.
                if not b.all():
                    if bool(((b == 0.0) & self._mask).any()):
                        raise SimulationError("scalar division by zero")
                np.divide(a, b, out=dst)
            return fn
        ufunc = {ScalarOpKind.ADD: np.add,
                 ScalarOpKind.SUB: np.subtract,
                 ScalarOpKind.MUL: np.multiply}.get(op)
        if ufunc is None:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown scalar op {op}")
        if both_lit:
            value = float(ufunc(a_lit, b_lit))
            return lambda: dst.fill(value)

        def fn():
            ufunc(a, b, out=dst)
        return fn

    # -- vector ops ------------------------------------------------------
    def _lower_vector(self, instr: VectorOp):
        machine = self.machine
        kind = instr.op
        srcs = instr.srcs
        if kind is VectorOpKind.DOT:
            return self._lower_dot(instr)
        a = self._resident(srcs[0])
        length = a.shape[0]
        if kind is VectorOpKind.COPY:
            dst = self._dst_buffer(machine.vb, instr.dst, length)

            def fn():
                dst[...] = a
            return fn
        if kind is VectorOpKind.CLIP:
            lo = self._resident(srcs[1])
            hi = self._resident(srcs[2])
            dst = self._dst_buffer(machine.vb, instr.dst, length)

            def fn():
                np.clip(a, lo, hi, out=dst)
            return fn
        b = self._resident(srcs[1])
        dst = self._dst_buffer(machine.vb, instr.dst, length)
        if kind is VectorOpKind.EWMUL:
            def fn():
                np.multiply(a, b, out=dst)
            return fn
        if kind is VectorOpKind.SCALE_ADD:
            al = literal_operand(instr.alpha)
            if al == 1.0:
                def fn():
                    np.add(a, b, out=dst)
                return fn
            if al == -1.0:
                def fn():
                    np.subtract(a, b, out=dst)
                return fn
            # A (B,) register broadcasts along the trailing lane axis:
            # lane b's column scales by alpha[b], exactly the solo
            # alpha * vector per lane.
            alpha = self._coefficient(instr.alpha)
            t = np.empty_like(b)

            def fn():
                np.multiply(b, alpha, out=t)
                np.add(a, t, out=dst)
            return fn
        if kind is VectorOpKind.AXPBY:
            return self._lower_axpby(instr, a, b, dst)
        raise SimulationError(f"unknown vector op {kind}")

    def _lower_axpby(self, instr: VectorOp, a, b, dst):
        # The fold table of repro.hw.compiled.vector_fold: +-1.0
        # coefficients fold their multiply away (exact IEEE
        # identities), everything else evaluates alpha*a + beta*b.
        al = literal_operand(instr.alpha)
        be = literal_operand(instr.beta)
        if al == 1.0 and be == 1.0:
            def fn():
                np.add(a, b, out=dst)
            return fn
        if al == 1.0 and be == -1.0:
            def fn():
                np.subtract(a, b, out=dst)
            return fn
        if al == 1.0:
            beta = self._coefficient(instr.beta)
            t2 = np.empty_like(b)

            def fn():
                np.multiply(b, beta, out=t2)
                np.add(a, t2, out=dst)
            return fn
        if be == 1.0:
            alpha = self._coefficient(instr.alpha)
            t1 = np.empty_like(a)

            def fn():
                np.multiply(a, alpha, out=t1)
                np.add(t1, b, out=dst)
            return fn
        if be == -1.0:
            alpha = self._coefficient(instr.alpha)
            t1 = np.empty_like(a)

            def fn():
                np.multiply(a, alpha, out=t1)
                np.subtract(t1, b, out=dst)
            return fn
        if al == -1.0:
            beta = self._coefficient(instr.beta)
            t2 = np.empty_like(b)

            def fn():
                np.multiply(b, beta, out=t2)
                np.subtract(t2, a, out=dst)
            return fn
        alpha = self._coefficient(instr.alpha)
        beta = self._coefficient(instr.beta)
        t1 = np.empty_like(a)
        t2 = np.empty_like(b)

        def fn():
            np.multiply(a, alpha, out=t1)
            np.multiply(b, beta, out=t2)
            np.add(t1, t2, out=dst)
        return fn

    def _lower_dot(self, instr: VectorOp):
        machine = self.machine
        a = self._resident(instr.srcs[0])
        b = self._resident(instr.srcs[1])
        dst = machine.scalar_buffer(instr.dst)
        # Per lane the solo k_dot order; writes the (B,) register.
        return kernels.bind_dot(a, b, dst)

    # -- transfers / CVB / SpMV -----------------------------------------
    def _lower_transfer(self, instr: DataTransfer):
        machine = self.machine
        name = instr.name
        if instr.direction == "load":
            src = machine.hbm.get(name)
            if src is None:
                raise SimulationError(f"HBM vector {name!r} missing")
            dst = self._dst_buffer(machine.vb, name, int(src.shape[0]))

            def fn():
                dst[...] = src
            return self._hooked(fn, "on_load", name, dst)
        if instr.direction == "store":
            vec = self._resident(name)
            dst = self._dst_buffer(machine.hbm, name, int(vec.shape[0]))

            def fn():
                dst[...] = vec
            return fn
        raise SimulationError(f"bad transfer direction {instr.direction!r}")

    def _lower_vecdup(self, instr: VecDup):
        machine = self.machine
        src = self._resident(instr.src)
        dst = self._dst_buffer(machine.cvb, instr.cvb, int(src.shape[0]))

        def fn():
            dst[...] = src
        return self._hooked(fn, "on_cvb", instr.cvb, dst)

    def _lower_spmv(self, instr: SpMV):
        machine = self.machine
        resource = machine.matrices[instr.matrix]
        src = machine.cvb.get(instr.src)
        if src is None:
            raise SimulationError(f"SpMV source {instr.src!r} not in CVB")
        rows, cols = resource.shape
        if src.shape[0] != cols:
            raise ShapeError(
                f"matvec: expected vector of length {cols}, "
                f"got length {src.shape[0]}")
        dst = self._dst_buffer(machine.vb, instr.dst, rows)
        # Lane b is bit-identical to a solo SpMV on lane b's data.
        fn = resource.kernel.bind(src, dst)
        return self._hooked(fn, "on_spmv", instr.dst, dst)
