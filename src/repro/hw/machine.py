"""Cycle-accurate functional simulator of the RSQP processing architecture.

The machine executes a :class:`~repro.hw.isa.Program` numerically (numpy
holds the buffer contents) while charging every instruction the cycle
cost of §3.1 / Table 1. Because it runs the real numbers, integration
tests can assert that the accelerator converges to the same solution as
the reference software solver while the cycle counter provides the
performance model.

State:

* **HBM** — named vectors (problem data, results) and the streamed
  matrices (with their schedules).
* **VB** — on-chip vector buffers, accessed sequentially at ``C``
  elements/cycle.
* **CVB** — compressed vector buffers, one bank group per streamed
  matrix, holding the vector an SpMV multiplies.
* **Scalar registers** — results of dot products and scalar arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ShapeError, SimulationError
from ..sparse.csr import CSRMatrix
from ..sparse.kernels import dot
from .isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Instruction,
                  Loop, Program, ScalarOp, ScalarOpKind, SpMV, VecDup,
                  VectorOp, VectorOpKind)

__all__ = ["MatrixResource", "Machine", "ExecutionStats", "CYCLE_CLASSES"]


@dataclass
class MatrixResource:
    """A matrix streamed from HBM with its schedule and CVB layout.

    SpMV goes through the matrix's own :class:`~repro.sparse.kernels.
    CSRKernel` (``kernel``): the sequential row order the interpreter,
    the compiled backend, the batch lanes and the host's
    ``CSRMatrix.matvec`` all share, with or without a C compiler.
    Cycle accounting uses the *scheduled* pack count, never the
    kernel's own cost.
    """

    name: str
    matrix: CSRMatrix
    spmv_cycles: int      # scheduled pack count (nnz + Ep) / C
    cvb_depth: int        # compressed duplication depth

    def __post_init__(self):
        self.kernel = self.matrix.kernel()

    def update_values(self, data) -> None:
        """Install new numeric values for the *same* sparsity pattern.

        Strictly in place: the value array keeps its identity (and
        therefore its base address), so the kernel, compiled closures
        and generated-C pointer tables bound to this resource stay
        valid. The caller guarantees the pattern is unchanged — only
        the value array's shape is checked here.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.kernel.val.shape:
            raise ShapeError(
                f"matrix {self.name!r}: got {data.size} values for a "
                f"pattern with {self.kernel.val.size} stored entries")
        self.kernel.val[...] = data

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``matrix @ x`` through the shared kernel."""
        return self.kernel.apply(x)


#: The cycle-accounting classes an execution may charge, keyed by the
#: instruction class name. These are the only keys ``by_class`` may
#: contain after a run of either backend.
CYCLE_CLASSES = ("ScalarOp", "VectorOp", "DataTransfer", "VecDup",
                 "SpMV", "Control")


@dataclass
class ExecutionStats:
    """Cycle accounting of one program run.

    Accounting rules (shared by the interpreter and the compiled
    backend, so their stats are directly comparable):

    * Every executed instruction — including a :class:`~repro.hw.isa.
      Control` exit test, whether or not it fires — charges its cycle
      cost to exactly one of :data:`CYCLE_CLASSES` and increments
      ``instructions_executed``. Control *is* an instruction the
      sequencer issues each loop iteration; its 1-cycle test is real
      work, which is why it counts as executed.
    * :class:`~repro.hw.isa.Loop` is control structure, not an
      instruction: loop bookkeeping charges **no** cycles and does not
      count toward ``instructions_executed``. Its trip counts accrue in
      ``loop_iterations`` (the iteration a Control exits from counts as
      an iteration — its instructions up to the Control did execute).
    """

    total_cycles: int = 0
    by_class: dict = field(default_factory=dict)
    instructions_executed: int = 0
    loop_iterations: dict = field(default_factory=dict)

    def charge(self, kind: str, cycles: int) -> None:
        self.total_cycles += cycles
        self.by_class[kind] = self.by_class.get(kind, 0) + cycles
        self.instructions_executed += 1

    def charge_block(self, cycles: int, by_class: dict,
                     instructions: int) -> None:
        """Charge a pre-aggregated straight-line block in O(classes).

        Used by the compiled backend: the per-instruction costs of a
        basic block are state-independent, so after the block's first
        execution its total is applied with one call instead of one
        :meth:`charge` per instruction.
        """
        self.total_cycles += cycles
        bc = self.by_class
        for kind, kind_cycles in by_class.items():
            bc[kind] = bc.get(kind, 0) + kind_cycles
        self.instructions_executed += instructions

    def copy(self) -> "ExecutionStats":
        """A detached snapshot (a resident machine keeps counting)."""
        return ExecutionStats(self.total_cycles, dict(self.by_class),
                              self.instructions_executed,
                              dict(self.loop_iterations))

    def reset(self) -> None:
        """Zero the accounting in place.

        Object identity is preserved deliberately: the compiled
        backend's lowered nodes capture the stats object at bind time,
        so a persistent session resets the counters between resolves
        without invalidating any bound program.
        """
        self.total_cycles = 0
        self.by_class.clear()
        self.instructions_executed = 0
        self.loop_iterations.clear()


class _LoopExit(Exception):
    """Internal: raised by Control to exit the enclosing loop."""


class Machine:
    """The RSQP accelerator: instruction interpreter + cycle counter."""

    def __init__(self, c: int, matrices: dict):
        self.c = int(c)
        self.matrices: dict[str, MatrixResource] = dict(matrices)
        self.hbm: dict[str, np.ndarray] = {}
        self.vb: dict[str, np.ndarray] = {}
        self.cvb: dict[str, np.ndarray] = {}
        self.scalars: dict[str, float] = {}
        self.stats = ExecutionStats()
        #: Optional :class:`repro.faults.FaultInjector`. Both backends
        #: call its hooks at the same logical points (after SpMV
        #: writes, HBM loads and CVB duplications), so an armed
        #: injector corrupts identically under either backend. It may
        #: be swapped between runs; the compiled backend's one-lane
        #: machine (:class:`repro.hw.batched.BatchMachine`) keeps one
        #: lowering per armed injector.
        self.injector = None

    # -- state helpers ---------------------------------------------------
    def write_hbm(self, name: str, values) -> None:
        """Host-side write (CPU -> HBM), not charged to the accelerator."""
        self.hbm[name] = np.asarray(values, dtype=np.float64).copy()

    def read_hbm(self, name: str) -> np.ndarray:
        return self.hbm[name].copy()

    def set_scalar(self, name: str, value: float) -> None:
        self.scalars[name] = float(value)

    def scalar(self, name: str, default=None):
        """Register ``name`` as a float, or ``default`` when unset."""
        value = self.scalars.get(name)
        return default if value is None else float(value)

    def reset_stats(self) -> None:
        """Zero the accounting in place (see :meth:`ExecutionStats.reset`)."""
        self.stats.reset()

    def vector_length(self, name: str) -> int:
        for space in (self.vb, self.hbm, self.cvb):
            if name in space:
                return int(space[name].size)
        raise SimulationError(f"unknown vector {name!r}")

    def spmv_cycles(self, matrix: str) -> int:
        return self.matrices[matrix].spmv_cycles

    def cvb_depth(self, matrix: str) -> int:
        return self.matrices[matrix].cvb_depth

    def _vector(self, name: str) -> np.ndarray:
        if name in self.vb:
            return self.vb[name]
        if name in self.cvb:
            return self.cvb[name]
        raise SimulationError(f"vector {name!r} not resident on chip")

    def _scalar_or_literal(self, ref) -> float:
        if isinstance(ref, str):
            if ref not in self.scalars:
                raise SimulationError(f"unknown scalar register {ref!r}")
            return self.scalars[ref]
        return float(ref)

    # -- execution -------------------------------------------------------
    def run(self, program: Program) -> ExecutionStats:
        self._execute_block(program.instructions)
        return self.stats

    def _execute_block(self, items) -> None:
        for item in items:
            if isinstance(item, Loop):
                self._execute_loop(item)
            else:
                self._execute_instruction(item)

    def _execute_loop(self, loop: Loop) -> None:
        iterations = 0
        for _ in range(loop.max_iter):
            try:
                self._execute_block(loop.body)
                iterations += 1
            except _LoopExit:
                iterations += 1
                break
        self.stats.loop_iterations[loop.name] = \
            self.stats.loop_iterations.get(loop.name, 0) + iterations

    def _execute_instruction(self, instr: Instruction) -> None:
        cycles = instr.cycles(self)
        self.stats.charge(type(instr).__name__, cycles)
        if isinstance(instr, ScalarOp):
            self._scalar_op(instr)
        elif isinstance(instr, VectorOp):
            self._vector_op(instr)
        elif isinstance(instr, DataTransfer):
            self._data_transfer(instr)
        elif isinstance(instr, VecDup):
            out = self._vector(instr.src).copy()
            self.cvb[instr.cvb] = out
            if self.injector is not None:
                self.injector.on_cvb(instr.cvb, out)
        elif isinstance(instr, SpMV):
            resource = self.matrices[instr.matrix]
            src = self.cvb.get(instr.src)
            if src is None:
                raise SimulationError(
                    f"SpMV source {instr.src!r} not in CVB")
            out = resource.apply(src)
            self.vb[instr.dst] = out
            if self.injector is not None:
                self.injector.on_spmv(instr.dst, out)
        elif isinstance(instr, Control):
            value = self._scalar_or_literal(instr.reg)
            threshold = self._scalar_or_literal(instr.threshold_reg)
            if value < threshold:
                raise _LoopExit()
        else:
            raise SimulationError(f"unknown instruction {instr!r}")

    def _scalar_op(self, instr: ScalarOp) -> None:
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        a = self._scalar_or_literal(instr.src1)
        b = self._scalar_or_literal(instr.src2) \
            if instr.src2 is not None else None
        if instr.op is ScalarOpKind.ADD:
            out = a + b
        elif instr.op is ScalarOpKind.SUB:
            out = a - b
        elif instr.op is ScalarOpKind.MUL:
            out = a * b
        elif instr.op is ScalarOpKind.DIV:
            if b == 0.0:
                raise SimulationError("scalar division by zero")
            out = a / b
        elif instr.op is ScalarOpKind.MAX:
            out = max(a, b)
        elif instr.op is ScalarOpKind.SQRT:
            if a < 0.0:
                raise SimulationError("sqrt of a negative scalar")
            out = float(np.sqrt(a))
        elif instr.op is ScalarOpKind.MOV:
            out = a
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown scalar op {instr.op}")
        self.scalars[instr.dst] = float(out)

    def _vector_op(self, instr: VectorOp) -> None:
        kind = instr.op
        if kind is VectorOpKind.DOT:
            a = self._vector(instr.srcs[0])
            b = self._vector(instr.srcs[1])
            self.scalars[instr.dst] = dot(a, b)
            return
        if kind is VectorOpKind.AXPBY:
            alpha = self._scalar_or_literal(instr.alpha)
            beta = self._scalar_or_literal(instr.beta)
            out = (alpha * self._vector(instr.srcs[0])
                   + beta * self._vector(instr.srcs[1]))
        elif kind is VectorOpKind.SCALE_ADD:
            alpha = self._scalar_or_literal(instr.alpha)
            out = (self._vector(instr.srcs[0])
                   + alpha * self._vector(instr.srcs[1]))
        elif kind is VectorOpKind.EWMUL:
            out = self._vector(instr.srcs[0]) * self._vector(instr.srcs[1])
        elif kind is VectorOpKind.CLIP:
            out = np.clip(self._vector(instr.srcs[0]),
                          self._vector(instr.srcs[1]),
                          self._vector(instr.srcs[2]))
        elif kind is VectorOpKind.COPY:
            out = self._vector(instr.srcs[0]).copy()
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown vector op {kind}")
        self.vb[instr.dst] = out

    def _data_transfer(self, instr: DataTransfer) -> None:
        if instr.direction == "load":
            if instr.name not in self.hbm:
                raise SimulationError(f"HBM vector {instr.name!r} missing")
            out = self.hbm[instr.name].copy()
            self.vb[instr.name] = out
            if self.injector is not None:
                self.injector.on_load(instr.name, out)
        elif instr.direction == "store":
            self.hbm[instr.name] = self._vector(instr.name).copy()
        else:
            raise SimulationError(
                f"bad transfer direction {instr.direction!r}")
