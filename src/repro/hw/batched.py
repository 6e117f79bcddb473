"""Batched lockstep execution: one instruction stream, B instances.

RSQP's datapath is fixed per problem *structure*, so B instances that
share one fingerprint can execute the identical compiled program in
lockstep over batched float64 buffers — the batched-SpMV regime. This
module is the machine layer of :mod:`repro.batch`:

* :class:`BatchMatrixResource` — B lanes' CSR values as one
  contiguous lane-minor ``(nnz, B)`` value block (the sparsity pattern
  is shared by construction), applied through the lane-minor
  :class:`~repro.sparse.kernels.CSRKernel`, whose per-lane order is
  the solo kernel's on every host.
* :class:`BatchMachine` — HBM/VB/CVB as stable ``(len, B)`` buffers,
  scalar registers as ``(B,)`` arrays, wall-clock
  :class:`~repro.hw.machine.ExecutionStats` plus per-lane loop trip
  counters.
* :class:`BatchExecutor` — the batched lowering of
  :class:`~repro.hw.compiled.CompiledExecutor`, on the same node-path
  scaffold: basic blocks become numpy closures with deferred block
  charging, and a loop whose body has bound becomes one lane-masked
  generated C function, emitted at this machine's lane count by the
  one whole-loop builder (:class:`~repro.hw.compiled._LoopBuilder`),
  whose B=1 case is also a solo machine's fused loop.

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
columns are only reachable through reads the solo machine would
reject as use-before-def, which :mod:`repro.verify` statically
excludes.

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
ufunc; the closure fold table mirrors
:meth:`CompiledExecutor._lower_vector` exactly; DOT and SpMV route
through batched C kernels whose per-lane accumulation order is the
solo kernels' own (see :mod:`repro.hw.cjit`); scalar MAX replicates
Python ``max(a, b)`` (returns ``b`` only when ``b > a``,
NaN-asymmetric) via ``where(b > a, b, a)``. DIV/SQRT traps fire only
for *active* lanes — a frozen lane's stale operands can never fault a
running batch.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError, SimulationError
from ..sparse import kernels
from ..sparse.kernels import CSRKernel
from .compiled import _FusedLoop, _NodeExecutor, fuse_loop, literal_operand
from .isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Loop, Program,
                  ScalarOp, ScalarOpKind, SpMV, VecDup, VectorOp,
                  VectorOpKind)
from .machine import ExecutionStats

__all__ = ["BatchMatrixResource", "BatchMachine", "BatchExecutor",
           "static_write_set"]


class _BatchLoopExit(Exception):
    """Internal: raised when a Control empties the innermost frame."""


class BatchMatrixResource:
    """B matrices of one sparsity structure, batched SpMV.

    ``solo`` is a :class:`~repro.hw.machine.MatrixResource` of the
    structure: its pattern, schedule cost and CVB depth are every
    lane's (same-fingerprint problems share the pattern by
    construction — Ruiz scaling only rescales values — and
    :class:`repro.batch.BatchAccelerator` checks its lanes before
    loading any). The ``batch`` lanes' values live lane-minor,
    ``(nnz, B)``, in ``kernel.val`` (zeros until the host writes them,
    in place, so every closure bound to the kernel stays valid): a
    lane-minor :class:`~repro.sparse.kernels.CSRKernel` whose lane
    ``b`` is bit-identical to a solo SpMV on lane ``b``'s data.
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


class BatchMachine:
    """State container for B lockstep instances of one structure.

    Mirrors the :class:`~repro.hw.machine.Machine` interface the cycle
    model reads (``c`` / ``vector_length`` / ``spmv_cycles`` /
    ``cvb_depth``) while holding every vector as a lane-minor
    ``(len, B)`` buffer. Execution goes through :class:`BatchExecutor`
    only — the per-instruction interpreter stays single-instance.
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
        """Host write of every lane, lane-minor ``(len, B)`` values (CPU
        -> HBM, not charged), in place once the buffer exists: lowered
        closures and the fused loops point at it."""
        values = np.asarray(values, dtype=np.float64)
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
# lowered nodes (lockstep analogues of repro.hw.compiled's node classes;
# segments are the shared repro.hw.compiled._Segment)

class _ControlNode:
    """A Control test, evaluated per lane; exits lanes individually.

    Lanes whose ``value < threshold`` are frozen: their columns of the
    innermost frame's write-set are snapshotted and they leave the
    current mask, so the remaining trips cannot *observably* touch
    them (their state is rewound at loop exit — the lockstep analogue
    of the solo ``_LoopExit`` skipping the rest of the body). Only
    when no active lane remains does the node abort the trip.
    """

    __slots__ = ("_executor", "_stats", "_value", "_threshold", "pending")

    def __init__(self, executor: "BatchExecutor", instr: Control):
        self._executor = executor
        self._stats = executor.machine.stats
        self._value = executor._scalar_reader(instr.reg)
        self._threshold = executor._scalar_reader(instr.threshold_reg)
        self.pending = 0

    def run(self) -> None:
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1
        executor = self._executor
        fired = self._value() < self._threshold()
        if isinstance(fired, np.ndarray):
            fired = fired & executor._mask
            if not fired.any():
                return
        elif fired:  # both operands literal: every active lane exits
            fired = executor._mask.copy()
        else:
            return
        executor._freeze_lanes(fired)
        remaining = executor._mask & ~fired
        executor._set_mask(remaining)
        if not remaining.any():
            raise _BatchLoopExit()

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
    as in the solo machine).

    As in the solo executor, once the body's segments have bound the
    whole loop is lowered into one lane-masked C function (see
    :class:`~repro.hw.compiled._LoopBuilder`), bypassed while any
    per-lane injector is armed; an unsupported body stays on this node
    path.
    """

    __slots__ = ("_executor", "_loop", "_nodes", "_stats", "_writes",
                 "_fused")

    def __init__(self, executor: "BatchExecutor", loop: Loop):
        self._executor = executor
        self._loop = loop
        self._nodes = executor._lower_block(loop.body)
        self._stats = executor.machine.stats
        writes: set = set()
        _collect_writes(loop.body, writes)
        self._writes = tuple(sorted(writes))
        self._fused = None

    def run(self) -> None:
        executor = self._executor
        loop = self._loop
        if executor.jit and executor.machine.injectors is None:
            fused = self._fused
            if fused is None:
                fused = fuse_loop(executor, loop.body, self._nodes)
                if fused is not None:
                    self._fused = fused
            if fused and fused.run(loop):
                return
        nodes = self._nodes
        machine = executor.machine
        lane_counts = machine.lane_loop_iterations.get(loop.name)
        if lane_counts is None:
            lane_counts = np.zeros(machine.batch, dtype=np.int64)
            machine.lane_loop_iterations[loop.name] = lane_counts
        entry = executor._mask
        frame = entry
        iterations = 0
        executor._push_frame(self._writes)
        try:
            for _ in range(loop.max_iter):
                if not frame.any():
                    break
                executor._set_mask(frame)
                if frame is entry:
                    lane_counts += frame
                else:
                    lane_counts[frame] += 1
                try:
                    for node in nodes:
                        node.run()
                    iterations += 1
                    frame = executor._mask
                except _BatchLoopExit:
                    iterations += 1
                    frame = executor._mask
                    break
        finally:
            executor._pop_frame()
            executor._set_mask(entry)
        counts = self._stats.loop_iterations
        counts[loop.name] = counts.get(loop.name, 0) + iterations


# ---------------------------------------------------------------------------
# Batched whole-loop fusion: the one whole-loop emitter
# (repro.hw.compiled._LoopBuilder) at this machine's lane count, with
# masked writes instead of snapshot/restore. The per-element expressions
# are exactly the ones the numpy closures evaluate (see the fold tables
# above) and the DOT/SpMV bodies are the engine library's batched
# kernels, so a fused loop produces the same bits as the node path, and
# hence as B solo runs.

class _FusedBatchLoop(_FusedLoop):
    """Batch fused loop: the host stages only the lane mask.

    Registers are the machine's stable ``(B,)`` buffers, read and
    written in place, so there is no scalar prefill or write-back.
    Row 0 of ``M`` is loaded with the executor's mask at entry; both
    loop-iteration tables are updated exactly like the node path's.
    """

    __slots__ = ("_lanes",)

    def __init__(self, run, args, builder, ct, it, m, lt, hold):
        super().__init__(run, args, builder, ct, it, m, lt, hold)
        self._lanes = builder.machine.lane_loop_iterations

    def run(self, loop: Loop) -> bool:
        np.copyto(self._m[0], self._executor._mask)
        rc = self._call(loop)
        it = self._it
        lt = self._lt
        lanes = self._lanes
        for slot, name in ((0, loop.name),) + self._loops:
            if slot and not it[slot]:
                continue  # nested loop never entered: no key, as solo
            counts = lanes.get(name)
            if counts is None:
                counts = np.zeros(lt.shape[1], dtype=np.int64)
                lanes[name] = counts
            counts += lt[slot]
        self._raise_trap(rc)
        return True


# ---------------------------------------------------------------------------

class BatchExecutor(_NodeExecutor):
    """Run programs against a :class:`BatchMachine` under a lane mask.

    The structure mirrors :class:`~repro.hw.compiled.CompiledExecutor`
    (stable destination buffers, closures bound at first execution,
    deferred block charging, blocks cached by instruction-list
    identity). Closures always execute full-width with operands
    prebound at lowering time (every buffer is stable by
    construction); lane freezing is implemented by
    snapshot-at-Control-fire and restore-at-loop-exit (see the module
    docstring).
    """

    _CONTROL_NODE = _ControlNode
    _LOOP_NODE = _LoopNode
    _FUSED_LOOP = _FusedBatchLoop

    def __init__(self, machine: BatchMachine, jit: bool | None = None,
                 verify: bool | None = None):
        super().__init__(machine, jit, verify)
        self.batch = machine.batch
        #: Stack of (write_set, saved_columns) snapshot frames; the
        #: write set is the enclosing loop's (or the whole program's).
        self._frames: list = []
        self._set_mask(np.ones(machine.batch, dtype=bool))

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
    def run(self, program: Program, mask: np.ndarray) -> ExecutionStats:
        """Execute ``program`` over the lanes selected by ``mask``.

        Lanes outside ``mask`` are frozen for the whole run: their
        columns of the program's write-set are snapshotted up front
        and restored at the end, so a host driver can run
        refresh/restart programs for the active subset only.
        """
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.shape != (self.machine.batch,):
            raise ValueError(
                f"mask must have shape ({self.machine.batch},), "
                f"got {mask.shape}")
        writes: set = set()
        _collect_writes(program.instructions, writes)
        self._push_frame(tuple(sorted(writes)))
        try:
            self._set_mask(mask)
            frozen = ~mask
            if frozen.any():
                self._freeze_lanes(frozen)
            # One errstate for the whole run: closures execute frozen
            # lanes' columns too (their stale values may be out of
            # domain); the active-lane trap checks keep solo error
            # semantics, the suppressed warnings would only concern
            # columns that restore rewinds anyway.
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                for node in self._lower_block(program.instructions):
                    node.run()
        finally:
            self._pop_frame()
            self._flush()
        return self.machine.stats

    # -- operand binding -------------------------------------------------
    def _dst_buffer(self, space: dict, name: str, length: int) -> np.ndarray:
        batch = self.machine.batch
        buf = space.get(name)
        if (isinstance(buf, np.ndarray) and buf.dtype == np.float64
                and buf.shape == (length, batch)):
            return buf
        buf = np.zeros((length, batch))
        space[name] = buf
        return buf

    def _register(self, name: str) -> np.ndarray:
        """Register ``name``'s stable ``(B,)`` buffer."""
        return self.machine.scalar_buffer(name)

    def _scalar_operand(self, ref):
        """Prebound operand for segment-time binding: the stable
        ``(B,)`` register array, or a float literal. A segment
        instruction lowers at its *first execution*, so a register a
        correct program defines earlier already exists — a missing one
        is the same use-before-def the solo executor rejects."""
        lit = literal_operand(ref)
        if lit is not None:
            return lit
        buf = self.machine.scalars.get(ref)
        if buf is None:
            raise SimulationError(f"unknown scalar register {ref!r}")
        return buf

    # -- per-instruction lowering ---------------------------------------
    def _hooked(self, fn, hook_name: str, site: str, buf: np.ndarray):
        """Per-lane fault hooks: fire on a lane's column view only
        while that lane is active, so op counting matches its solo
        run (writes through the view mutate the lane's column)."""
        injectors = self.machine.injectors
        if not injectors:
            return fn
        hooks = [(lane, getattr(injector, hook_name))
                 for lane, injector in enumerate(injectors)
                 if injector is not None]
        if not hooks:
            return fn

        def hooked():
            fn()
            mask = self._mask
            for lane, hook in hooks:
                if mask[lane]:
                    hook(site, buf[:, lane])
        return hooked

    # -- scalar ops ------------------------------------------------------
    def _lower_scalar(self, instr: ScalarOp):
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        machine = self.machine
        op = instr.op
        # Resolve sources BEFORE creating dst: `op d, undefined, s`
        # must fail like the solo executor even when d is new.
        a = self._scalar_operand(instr.src1)
        b = (self._scalar_operand(instr.src2)
             if instr.src2 is not None else None)
        dst = machine.scalar_buffer(instr.dst)
        a_lit = a if isinstance(a, float) else None
        b_lit = b if isinstance(b, float) else None
        both_lit = a_lit is not None and (instr.src2 is None
                                          or b_lit is not None)

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
                np.copyto(dst, a)
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
            alpha = self._scalar_operand(instr.alpha)
            t = np.empty_like(b)

            def fn():
                np.multiply(b, alpha, out=t)
                np.add(a, t, out=dst)
            return fn
        if kind is VectorOpKind.AXPBY:
            return self._lower_axpby(instr, a, b, dst)
        raise SimulationError(f"unknown vector op {kind}")

    def _lower_axpby(self, instr: VectorOp, a, b, dst):
        # Identical fold table to CompiledExecutor._lower_vector:
        # +-1.0 coefficients fold their multiply away (exact IEEE
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
            beta = self._scalar_operand(instr.beta)
            t2 = np.empty_like(b)

            def fn():
                np.multiply(b, beta, out=t2)
                np.add(a, t2, out=dst)
            return fn
        if be == 1.0:
            alpha = self._scalar_operand(instr.alpha)
            t1 = np.empty_like(a)

            def fn():
                np.multiply(a, alpha, out=t1)
                np.add(t1, b, out=dst)
            return fn
        if be == -1.0:
            alpha = self._scalar_operand(instr.alpha)
            t1 = np.empty_like(a)

            def fn():
                np.multiply(a, alpha, out=t1)
                np.subtract(t1, b, out=dst)
            return fn
        if al == -1.0:
            beta = self._scalar_operand(instr.beta)
            t2 = np.empty_like(b)

            def fn():
                np.multiply(b, beta, out=t2)
                np.subtract(t2, a, out=dst)
            return fn
        alpha = self._scalar_operand(instr.alpha)
        beta = self._scalar_operand(instr.beta)
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
                np.copyto(dst, src)
            return self._hooked(fn, "on_load", name, dst)
        if instr.direction == "store":
            vec = self._resident(name)
            dst = self._dst_buffer(machine.hbm, name, int(vec.shape[0]))

            def fn():
                np.copyto(dst, vec)
            return fn
        raise SimulationError(f"bad transfer direction {instr.direction!r}")

    def _lower_vecdup(self, instr: VecDup):
        machine = self.machine
        src = self._resident(instr.src)
        dst = self._dst_buffer(machine.cvb, instr.cvb, int(src.shape[0]))

        def fn():
            np.copyto(dst, src)
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
