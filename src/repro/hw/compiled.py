"""Compiled execution backend: lower programs to fused numpy closures.

The interpreter in :mod:`repro.hw.machine` pays a per-instruction
Python ``isinstance`` dispatch, dict lookups for every operand, and a
:meth:`~repro.hw.machine.ExecutionStats.charge` call per instruction —
executed thousands of times per QP solve. This module mirrors the
paper's one-time-customization / cheap-per-solve split at the simulator
level: a :class:`CompiledExecutor` lowers each straight-line run of
instructions ("basic block", split at :class:`~repro.hw.isa.Control`
tests and nested :class:`~repro.hw.isa.Loop` nodes) into a list of
fused closures, once, on the block's first execution.

What lowering precomputes:

* **Operand binding** — every vector operand resolves its buffer once;
  closures capture the arrays directly. To make that sound, the
  compiled backend maintains *one stable numpy buffer per VB/CVB name*
  and performs all writes in place (``out=`` ufuncs / ``np.copyto``),
  so a host re-download of e.g. ``rho`` lands in the very array the
  ADMM-body closures already hold. Consequence: vector lengths are
  static per name (the ISA programs we compile always are).
* **Scalar ops** — operands that are literals are constant-folded;
  register operands become direct dict accesses with no
  ``isinstance`` test per execution.
* **Cycle accounting** — per-instruction costs in this ISA are
  state-independent (lengths are static), so a block's total cycles,
  per-class breakdown and instruction count are computed during the
  first (charging) execution and afterwards applied with a single
  :meth:`~repro.hw.machine.ExecutionStats.charge_block` call per block
  execution instead of N ``charge`` calls. Only Control exits are
  evaluated numerically each iteration.
* **Whole-loop fusion** — when a C toolchain is available (see
  :mod:`repro.hw.cjit`), an entire :class:`~repro.hw.isa.Loop` body
  (vector ops, SpMV, scalar arithmetic, Control exit tests, nested
  loops, cycle accounting) compiles into a single generated C function
  entered once per loop execution, so the hot ADMM/PDHG iteration pays
  zero Python dispatch. The generated per-element expressions
  replicate the closure fold table below exactly, SpMV embeds the
  engine library's row-sum body and DOT its sequential ``k_dot`` body,
  so fused, unfused and interpreted execution all produce the same
  bits. Built only after the body's segments have bound (one node-path
  run), bypassed whenever a fault injector is armed, and falls back to
  the node path on any unsupported body — same bits either way. Loop
  sources depend only on the instruction pattern, so the
  hash-addressed disk cache compiles each program shape once, ever.
  Everything outside a fused loop (prologues, epilogues, a loop's
  first run) runs as the closures. The loop walk, the ``CT``/``IT``
  accounting and the call protocol (``_CBuilder``, ``_FusedLoop``) are
  shared with the lane-masked batch variant in :mod:`repro.hw.batched`.

The interpreter remains the differential-testing oracle: on error-free
runs the compiled backend produces bit-identical machine state and
identical :class:`~repro.hw.machine.ExecutionStats`. On *failing* runs
the exception type matches, but partial stats may differ (block costs
are applied after the block's closures run).
"""

from __future__ import annotations

import os

import numpy as np

from ..exceptions import ShapeError, SimulationError, VerificationError
from ..sparse import kernels
from . import cjit
from .effect_ir import BufferRef, EffectIR, EffectStatement
from .isa import (BINARY_SCALAR_OPS, Control, DataTransfer, Loop, Program,
                  ScalarOp, ScalarOpKind, SpMV, VecDup, VectorOp,
                  VectorOpKind)
from .machine import Machine, _LoopExit

__all__ = ["CompiledExecutor", "BACKENDS", "validate_backend",
           "literal_operand"]

#: The two execution backends every runner exposes.
BACKENDS = ("interpret", "compiled")


def validate_backend(backend: str) -> str:
    """Check a backend name, returning it for chaining."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def literal_operand(ref) -> float | None:
    """The float value of a literal operand, or None for a register.

    Shared with the batched lowering (:mod:`repro.hw.batched`), which
    must fold exactly the same ``+-1.0`` coefficient cases to stay
    bit-identical with this backend's closures.
    """
    if ref is None or isinstance(ref, str):
        return None
    return float(ref)


_literal = literal_operand


# ---------------------------------------------------------------------------
# scalar arithmetic kernels (float-in/float-out, shared fold + closure path)

def _s_add(a, b):
    return float(a + b)


def _s_sub(a, b):
    return float(a - b)


def _s_mul(a, b):
    return float(a * b)


def _s_div(a, b):
    if b == 0.0:
        raise SimulationError("scalar division by zero")
    return float(a / b)


def _s_max(a, b):
    return float(max(a, b))


def _s_sqrt(a, b):
    if a < 0.0:
        raise SimulationError("sqrt of a negative scalar")
    return float(np.sqrt(a))


def _s_mov(a, b):
    return float(a)


_SCALAR_KERNELS = {
    ScalarOpKind.ADD: _s_add,
    ScalarOpKind.SUB: _s_sub,
    ScalarOpKind.MUL: _s_mul,
    ScalarOpKind.DIV: _s_div,
    ScalarOpKind.MAX: _s_max,
    ScalarOpKind.SQRT: _s_sqrt,
    ScalarOpKind.MOV: _s_mov,
}


# ---------------------------------------------------------------------------
# lowered program nodes

class _Segment:
    """A straight-line basic block, lazily lowered on first execution.

    The first execution charges and runs instruction by instruction
    (identical observable behaviour to the interpreter, including where
    an error leaves the stats); every later execution runs the fused
    closures and *defers* the block's pre-aggregated cycle cost: a
    pending execution counter accrues and the executor applies the
    total with one ``charge_block`` per :meth:`CompiledExecutor.run`
    (stats are only observed between runs, never mid-program).
    """

    __slots__ = ("_executor", "_instructions", "_stats", "_fns",
                 "_cycles", "_by_class", "_count", "pending")

    def __init__(self, executor: "CompiledExecutor", instructions: list):
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
    """A Control exit test: evaluated every execution, charge deferred."""

    __slots__ = ("_executor", "_stats", "_value", "_threshold", "pending")

    def __init__(self, executor: "CompiledExecutor", instr: Control):
        self._executor = executor
        self._stats = executor.machine.stats
        self._value = executor._scalar_getter(instr.reg)
        self._threshold = executor._scalar_getter(instr.threshold_reg)
        self.pending = 0

    def run(self) -> None:
        if self.pending == 0:
            self._executor._dirty.append(self)
        self.pending += 1
        if self._value() < self._threshold():
            raise _LoopExit()

    def flush(self) -> None:
        count = self.pending
        if count:
            self.pending = 0
            self._stats.charge_block(count, {"Control": count}, count)


class _LoopNode:
    """A Loop wrapper; the body's lowered nodes are shared via the
    executor cache, while ``max_iter``/``name`` are read from this
    node's own Loop object (the accelerator re-wraps the same body
    list in fresh Loop objects per adaptive-rho segment).

    Once the body's segments are all bound (i.e. after the first full
    execution), the executor attempts *whole-loop fusion*: one
    generated C function covering the entire loop — vector ops, SpMV,
    scalar arithmetic, Control tests, nested loops and cycle
    accounting — entered once per :meth:`run`. Fusion is bypassed
    whenever a fault injector is armed (hooks fire on the node path)
    and falls back permanently on any unsupported body."""

    __slots__ = ("_executor", "_loop", "_nodes", "_stats", "_fused")

    def __init__(self, executor: "CompiledExecutor", loop: Loop):
        self._executor = executor
        self._loop = loop
        self._nodes = executor._lower_block(loop.body)
        self._stats = executor.machine.stats
        self._fused = None

    def run(self) -> None:
        executor = self._executor
        if executor.jit and executor.machine.injector is None:
            fused = self._fused
            if fused is None:
                fused = fuse_loop(executor, _LoopBuilder, self._loop.body,
                                  self._nodes)
                if fused is not None:
                    self._fused = fused
            if fused and fused.run(self._loop):
                return
        loop = self._loop
        nodes = self._nodes
        iterations = 0
        for _ in range(loop.max_iter):
            try:
                for node in nodes:
                    node.run()
                iterations += 1
            except _LoopExit:
                iterations += 1
                break
        counts = self._stats.loop_iterations
        counts[loop.name] = counts.get(loop.name, 0) + iterations


def _nodes_bound(nodes: list) -> bool:
    """True when every segment in ``nodes`` (recursively) has bound.

    Duck-typed over the solo and batch node classes: segments carry
    ``_fns`` (None until bound), loops carry their body's ``_nodes``.
    """
    for node in nodes:
        if getattr(node, "_fns", True) is None:
            return False
        inner = getattr(node, "_nodes", None)
        if inner is not None and not _nodes_bound(inner):
            return False
    return True


def fuse_loop(executor, builder_cls, body: list, nodes: list):
    """Whole-loop fusion for ``body`` (cached by list identity in
    ``executor._loop_fused``), shared by the solo and batch executors.

    Returns the fused unit, ``False`` when the body is permanently
    unfusable (unsupported instruction, nested zero-trip loop, compile
    failure — the node path stays), or ``None`` when the body's
    segments have not all bound yet (the caller retries on a later
    run; only genuine build verdicts are cached).
    """
    key = id(body)
    cached = executor._loop_fused.get(key)
    if cached is not None and cached[0] is body:
        return cached[1]
    if not _nodes_bound(nodes):
        return None
    try:
        builder = builder_cls(executor)
        builder.emit_body_ir(body)
        if executor.verify:
            from ..verify.codegen import ensure_codegen_verified
            ensure_codegen_verified(builder.effect_ir(), body,
                                    executor.machine)
        fused = builder._finish_loop()
    except VerificationError:
        raise
    except Exception:
        fused = None
    if fused is None:
        fused = False
    executor._loop_fused[key] = (body, fused)
    return fused


# ---------------------------------------------------------------------------

class CompiledExecutor:
    """Run :class:`~repro.hw.isa.Program` objects against a
    :class:`~repro.hw.machine.Machine` through lowered basic blocks.

    The executor shares the machine's state dicts and stats object, so
    host-side interactions (``write_hbm``, scalar reads, warm starts)
    work unchanged. Lowered blocks are cached by the identity of the
    instruction *list* — the compiler's section lists are long-lived,
    which is exactly what makes per-solve reuse pay; a strong reference
    to the keyed list is kept so ``id()`` reuse after garbage
    collection can never alias two different programs.
    """

    def __init__(self, machine: Machine, jit: bool | None = None,
                 verify: bool | None = None):
        self.machine = machine
        # Fault hooks bind the armed injector when a block lowers, so
        # each injector gets its own lowering (see run). The
        # fault-free one is kept for reuse.
        self._clean_blocks: dict = {}
        self._blocks = self._clean_blocks
        self._lowered_for = None
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

    # -- execution -------------------------------------------------------
    def run(self, program: Program):
        """Execute ``program``; returns the machine's stats object.

        A resident machine may be re-armed with a different injector
        (or none) between runs; that switches to a lowering bound to
        it, so hooks fire exactly as on a freshly built machine.
        """
        injector = self.machine.injector
        if injector is not self._lowered_for:
            self._lowered_for = injector
            self._blocks = self._clean_blocks if injector is None else {}
        try:
            for node in self._lower_block(program.instructions):
                node.run()
        finally:
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
            if isinstance(item, Loop):
                if current:
                    nodes.append(_Segment(self, current))
                    current = []
                nodes.append(_LoopNode(self, item))
            elif isinstance(item, Control):
                if current:
                    nodes.append(_Segment(self, current))
                    current = []
                nodes.append(_ControlNode(self, item))
            else:
                current.append(item)
        if current:
            nodes.append(_Segment(self, current))
        self._blocks[key] = (items, nodes)
        return nodes

    # -- operand binding -------------------------------------------------
    def _resident(self, name: str) -> np.ndarray:
        machine = self.machine
        if name in machine.vb:
            return machine.vb[name]
        if name in machine.cvb:
            return machine.cvb[name]
        raise SimulationError(f"vector {name!r} not resident on chip")

    def _dst_buffer(self, space: dict, name: str, length: int) -> np.ndarray:
        """The stable in-place destination buffer for ``name``."""
        buf = space.get(name)
        if (isinstance(buf, np.ndarray) and buf.dtype == np.float64
                and buf.shape == (length,)):
            return buf
        buf = np.zeros(length)
        space[name] = buf
        return buf

    def _scalar_getter(self, ref):
        """A zero-dispatch reader for a scalar register or literal."""
        if isinstance(ref, str):
            scalars = self.machine.scalars

            def get():
                try:
                    return scalars[ref]
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {ref!r}") from None
            return get
        value = float(ref)
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
        """Wrap a closure with the machine's fault-injection hook.

        Bound at lowering time, in the injector's own lowering (see
        :meth:`run`), so the fault-free path pays nothing.
        """
        injector = self.machine.injector
        if injector is None:
            return fn
        hook = getattr(injector, hook_name)

        def hooked():
            fn()
            hook(site, buf)
        return hooked

    def _lower_scalar(self, instr: ScalarOp):
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        scalars = self.machine.scalars
        dst = instr.dst
        kernel = _SCALAR_KERNELS[instr.op]
        a, b = instr.src1, instr.src2
        a_reg = isinstance(a, str)
        b_reg = isinstance(b, str)
        if not a_reg:
            a = float(a)
        if b is not None and not b_reg:
            b = float(b)

        if not a_reg and not b_reg:
            try:
                value = kernel(a, b)
            except SimulationError:
                value = None  # fold would trap: keep the trapping closure
            if value is not None:
                def fn():
                    scalars[dst] = value
                return fn

            def fn():
                scalars[dst] = kernel(a, b)
            return fn

        if a_reg and b_reg:
            def fn():
                try:
                    scalars[dst] = kernel(scalars[a], scalars[b])
                except KeyError as exc:
                    raise SimulationError(
                        f"unknown scalar register {exc.args[0]!r}") from None
        elif a_reg:
            def fn():
                try:
                    scalars[dst] = kernel(scalars[a], b)
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {a!r}") from None
        else:
            def fn():
                try:
                    scalars[dst] = kernel(a, scalars[b])
                except KeyError:
                    raise SimulationError(
                        f"unknown scalar register {b!r}") from None
        return fn

    def _lower_vector(self, instr: VectorOp):
        machine = self.machine
        kind = instr.op
        srcs = instr.srcs
        if kind is VectorOpKind.DOT:
            kernel = kernels.bind_dot(self._resident(srcs[0]),
                                      self._resident(srcs[1]))
            scalars = machine.scalars
            dst = instr.dst

            def fn():
                scalars[dst] = kernel()
            return fn
        if kind is VectorOpKind.AXPBY:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)
            # alpha/beta of exactly +-1.0 fold away their multiply:
            # x*1.0 == x, (-1.0)*x == -x and u + (-v) == u - v are all
            # exact IEEE identities, so these emit the same bits as the
            # interpreter's alpha*a + beta*b with fewer ufunc calls.
            al, be = _literal(instr.alpha), _literal(instr.beta)
            if al == 1.0 and be == 1.0:
                def fn():
                    np.add(a, b, out=dst)
                return fn
            if al == 1.0 and be == -1.0:
                def fn():
                    np.subtract(a, b, out=dst)
                return fn
            if al == 1.0:
                beta = self._scalar_getter(instr.beta)
                t2 = np.empty_like(b)

                def fn():
                    np.multiply(b, beta(), out=t2)
                    np.add(a, t2, out=dst)
                return fn
            if be == 1.0:
                alpha = self._scalar_getter(instr.alpha)
                t1 = np.empty_like(a)

                def fn():
                    np.multiply(a, alpha(), out=t1)
                    np.add(t1, b, out=dst)
                return fn
            if be == -1.0:
                alpha = self._scalar_getter(instr.alpha)
                t1 = np.empty_like(a)

                def fn():
                    np.multiply(a, alpha(), out=t1)
                    np.subtract(t1, b, out=dst)
                return fn
            if al == -1.0:
                beta = self._scalar_getter(instr.beta)
                t2 = np.empty_like(b)

                def fn():
                    np.multiply(b, beta(), out=t2)
                    np.subtract(t2, a, out=dst)
                return fn
            alpha = self._scalar_getter(instr.alpha)
            beta = self._scalar_getter(instr.beta)
            t1 = np.empty_like(a)
            t2 = np.empty_like(b)

            def fn():
                np.multiply(a, alpha(), out=t1)
                np.multiply(b, beta(), out=t2)
                np.add(t1, t2, out=dst)
            return fn
        if kind is VectorOpKind.SCALE_ADD:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)
            al = _literal(instr.alpha)
            if al == 1.0:
                def fn():
                    np.add(a, b, out=dst)
                return fn
            if al == -1.0:
                def fn():
                    np.subtract(a, b, out=dst)
                return fn
            alpha = self._scalar_getter(instr.alpha)
            t = np.empty_like(b)

            def fn():
                np.multiply(b, alpha(), out=t)
                np.add(a, t, out=dst)
            return fn
        if kind is VectorOpKind.EWMUL:
            a = self._resident(srcs[0])
            b = self._resident(srcs[1])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)

            def fn():
                np.multiply(a, b, out=dst)
            return fn
        if kind is VectorOpKind.CLIP:
            a = self._resident(srcs[0])
            lo = self._resident(srcs[1])
            hi = self._resident(srcs[2])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)

            def fn():
                np.clip(a, lo, hi, out=dst)
            return fn
        if kind is VectorOpKind.COPY:
            a = self._resident(srcs[0])
            dst = self._dst_buffer(machine.vb, instr.dst, a.size)

            def fn():
                np.copyto(dst, a)
            return fn
        raise SimulationError(f"unknown vector op {kind}")

    def _lower_transfer(self, instr: DataTransfer):
        machine = self.machine
        name = instr.name
        if instr.direction == "load":
            hbm = machine.hbm
            if name not in hbm:
                raise SimulationError(f"HBM vector {name!r} missing")
            dst = self._dst_buffer(machine.vb, name, int(hbm[name].size))

            def fn():
                src = hbm.get(name)
                if src is None:
                    raise SimulationError(f"HBM vector {name!r} missing")
                if src.shape != dst.shape:
                    raise SimulationError(
                        "compiled backend requires static vector lengths: "
                        f"HBM vector {name!r} changed from {dst.size} "
                        f"to {src.size} elements")
                np.copyto(dst, src)
            return self._hooked(fn, "on_load", name, dst)
        if instr.direction == "store":
            vec = self._resident(name)
            hbm = machine.hbm

            def fn():
                hbm[name] = vec.copy()
            return fn
        raise SimulationError(f"bad transfer direction {instr.direction!r}")

    def _lower_vecdup(self, instr: VecDup):
        machine = self.machine
        src = self._resident(instr.src)
        dst = self._dst_buffer(machine.cvb, instr.cvb, src.size)

        def fn():
            np.copyto(dst, src)
        return self._hooked(fn, "on_cvb", instr.cvb, dst)

    def _lower_spmv(self, instr: SpMV):
        machine = self.machine
        resource = machine.matrices[instr.matrix]
        src = machine.cvb.get(instr.src)
        if src is None:
            raise SimulationError(f"SpMV source {instr.src!r} not in CVB")
        matrix = resource.matrix
        rows = int(matrix.shape[0])
        if src.shape != (matrix.shape[1],):
            raise ShapeError(
                f"matvec: expected vector of length {matrix.shape[1]}, "
                f"got shape {src.shape}")
        dst = self._dst_buffer(machine.vb, instr.dst, rows)
        fn = resource.kernel.bind(src, dst)
        return self._hooked(fn, "on_spmv", instr.dst, dst)


# ---------------------------------------------------------------------------
# Whole-loop C fusion: one generated C function per (loop body, schedule),
# covering loop control, vector ops, SpMV, scalar arithmetic, Control exit
# tests, nested loops and cycle accounting. The host enters C once per
# Loop node execution — per-iteration Python dispatch drops to zero.

_LOOP_CDEF = """
long loop_run(double **B, long **IA, const long *L, double *S,
              unsigned char *W, long *CT, long *IT, long max_iter);
"""

_MISSING = object()

#: ScalarOp -> (C expression, trap) over the emitted operand tokens
#: ``{a}``/``{b}``, shared by every C builder. A trap is ``(condition,
#: return code)``, checked before the write; the fused unit's host side
#: raises the matching :class:`SimulationError`. Scalar C arithmetic on
#: IEEE doubles reproduces the Python float kernels bit for bit.
SCALAR_C: dict[ScalarOpKind, tuple[str, tuple[str, int] | None]] = {
    ScalarOpKind.ADD: ("{a} + {b}", None),
    ScalarOpKind.SUB: ("{a} - {b}", None),
    ScalarOpKind.MUL: ("{a} * {b}", None),
    ScalarOpKind.DIV: ("{a} / {b}", ("{b} == 0.0", 1)),
    # Python's max(a, b) returns b iff b > a — NaN and signed zeros
    # included — which is exactly this ternary.
    ScalarOpKind.MAX: ("({b} > {a}) ? {b} : {a}", None),
    ScalarOpKind.SQRT: ("sqrt({a})", ("{a} < 0.0", 2)),
    ScalarOpKind.MOV: ("{a}", None),
}

_TRAP_ERRORS = {1: "scalar division by zero", 2: "sqrt of a negative scalar"}


def vector_fold(instr: VectorOp) -> tuple[str, tuple]:
    """The closure fold table of a lane-wise vector op, as C.

    Returns ``(form, scalars)``: ``form`` is the per-element expression
    over the source elements ``{a}``/``{b}`` and the scalar operands
    ``{0}``/``{1}``, which are ``scalars`` in order. Coefficients of
    exactly ``+-1.0`` fold their multiply away, as in
    :meth:`CompiledExecutor._lower_vector`. Shared by the solo and
    batch builders, which substitute their own element tokens.
    """
    kind = instr.op
    if kind is VectorOpKind.COPY:
        return "{a}", ()
    if kind is VectorOpKind.EWMUL:
        return "{a} * {b}", ()
    al = _literal(instr.alpha)
    if kind is VectorOpKind.SCALE_ADD:
        if al == 1.0:
            return "{a} + {b}", ()
        if al == -1.0:
            return "{a} - {b}", ()
        return "{a} + {b} * {0}", (instr.alpha,)
    if kind is VectorOpKind.AXPBY:
        be = _literal(instr.beta)
        if al == 1.0 and be == 1.0:
            return "{a} + {b}", ()
        if al == 1.0 and be == -1.0:
            return "{a} - {b}", ()
        if al == 1.0:
            return "{a} + {b} * {0}", (instr.beta,)
        if be == 1.0:
            return "{a} * {0} + {b}", (instr.alpha,)
        if be == -1.0:
            return "{a} * {0} - {b}", (instr.alpha,)
        if al == -1.0:
            return "{b} * {0} - {a}", (instr.beta,)
        return "{a} * {0} + {b} * {1}", (instr.alpha, instr.beta)
    raise SimulationError(f"vector op not loop-fusable: {kind}")


class _FusedLoop:
    """A compiled whole-loop unit plus its bound operand tables.

    The shared half of the call protocol (:meth:`_call`): zero the
    charge/trip counters, enter C once, then apply cycle accounting
    from the ``CT`` block counters and loop trip counts from ``IT``.
    Subclasses stage the scalar state around that call.

    Accounting matches the node path exactly on error-free runs: each
    ``CT`` slot corresponds to one basic block (or Control test) with
    a precomputed (cycles, by_class, instructions) aggregate, and
    ``IT[0]``/nested slots reproduce the interpreter's
    ``loop_iterations`` updates (nested-loop keys only appear when the
    nested loop was actually entered). A trapped run (division by
    zero, negative sqrt) raises the interpreter's exception type;
    partial stats on failing runs may differ, as documented for the
    compiled backend generally.
    """

    __slots__ = ("_run", "_args", "_stats", "_ct", "_it", "_charges",
                 "_loops", "_hold")

    def __init__(self, run, args: tuple, machine, builder, ct, it, hold):
        self._run = run
        self._args = args
        self._stats = machine.stats
        self._ct = ct
        self._it = it
        self._charges = tuple(builder.charges)
        self._loops = tuple(builder.loops)
        self._hold = hold

    def _call(self, loop: Loop) -> int:
        ct = self._ct
        ct[:] = 0
        it = self._it
        it[:] = 0
        rc = self._run(*self._args, loop.max_iter)
        total = 0
        instrs = 0
        by_class: dict = {}
        for slot, (cycles, bc, count) in enumerate(self._charges):
            n = int(ct[slot])
            if not n:
                continue
            total += n * cycles
            instrs += n * count
            for kind, kind_cycles in bc.items():
                by_class[kind] = by_class.get(kind, 0) + n * kind_cycles
        if instrs:
            self._stats.charge_block(total, by_class, instrs)
        counts = self._stats.loop_iterations
        counts[loop.name] = counts.get(loop.name, 0) + int(it[0])
        for slot, name in self._loops:
            n = int(it[slot])
            if n:
                counts[name] = counts.get(name, 0) + n
        return rc

    @staticmethod
    def _raise_trap(rc: int) -> None:
        if rc in _TRAP_ERRORS:
            raise SimulationError(_TRAP_ERRORS[rc])


class _FusedSoloLoop(_FusedLoop):
    """Solo fused loop: scalars travel through the ``S``/``W`` table.

    Prefill ``S`` from the register file (a missing register means the
    machine is in a state the fused code cannot reproduce — return
    False so the node path, which raises the interpreter's exact
    error, runs instead), zero the write flags, :meth:`_call`, then
    write back every scalar register the C code flagged in ``W``.
    """

    __slots__ = ("_scalars", "_s", "_w", "_prefill", "_writeback")

    def __init__(self, run, args, machine, builder, ct, it, hold,
                 s, w):
        super().__init__(run, args, machine, builder, ct, it, hold)
        self._scalars = machine.scalars
        self._s = s
        self._w = w
        slots = builder._reg_slots
        self._prefill = tuple((name, slots[name])
                              for name in sorted(builder.reg_reads))
        self._writeback = tuple((name, slots[name])
                                for name in sorted(builder.reg_writes))

    def run(self, loop: Loop) -> bool:
        scalars = self._scalars
        s = self._s
        for name, slot in self._prefill:
            value = scalars.get(name, _MISSING)
            if value is _MISSING:
                return False
            s[slot] = value
        self._w[:] = 0
        rc = self._call(loop)
        w = self._w
        for name, slot in self._writeback:
            if w[slot]:
                scalars[name] = float(s[slot])
        self._raise_trap(rc)
        return True


class _CBuilder:
    """The whole-loop lowering shared by the solo and batch builders.

    Buffers, index arrays and loop bounds reach the generated code
    through the ``B``/``IA``/``L`` pointer tables, one slot per
    distinct array (``L``: one slot per use), so the source depends
    only on the instruction pattern: equal patterns hash to the same
    cached module. :meth:`_record` files one
    :class:`~repro.hw.effect_ir.EffectStatement` per emitted statement
    together with the scalar reads and ``L`` slots it consumed.

    :meth:`emit_body_ir` walks a Loop body once: maximal straight-line
    runs become one ``CT`` charge slot each, every Control gets its own
    one-cycle slot, and nested loops get an ``IT`` trip-counter slot in
    pre-order, with their bodies emitted inline. Subclasses supply the
    per-instruction emitters, the per-frame hooks (:meth:`_frame_enter`,
    :meth:`_trip_head`, :meth:`_control_test`), the function source and
    the fused unit's host tables.
    """

    _LOOP_TIER = "loop"
    _LOOP_CDEF = ""
    _LOOP_TAG = "loop"
    #: Compiler-flag sets to try in order (None: cjit's defaults).
    _LOOP_ARGS: tuple = (None,)
    _batch = 1

    def __init__(self, executor):
        self.executor = executor
        self.machine = executor.machine
        self.bufs: list = []
        self._buf_ids: dict = {}
        self.iarrs: list = []
        self._iarr_ids: dict = {}
        self.lens: list = []
        self.code: list = []
        self.charges: list = []       # per CT slot: (cycles, by_class, n)
        self.loops: list = []         # (IT slot, name) for nested loops
        self.loop_meta: list = []     # (IT slot, name, max_iter)
        self._frame = 0               # IT slot of the innermost loop
        # effect-IR recording (consumed by repro.verify.codegen)
        self.effects: list = []
        self._pending_reads: list = []  # ("reg"|"lit", ref, token)
        self._pending_lens: list = []   # (L slot, value)
        self._instr_index = -1
        self._charge_slot: int | None = None

    def effect_ir(self) -> EffectIR:
        return EffectIR(tier=self._LOOP_TIER, batch=self._batch,
                        statements=list(self.effects),
                        lens=tuple(self.lens),
                        charges=tuple(self.charges),
                        loops=tuple(self.loop_meta),
                        source="".join(self.code),
                        **self._scalar_tables())

    # -- effect recording ------------------------------------------------
    def _src_ref(self, name: str, arr: np.ndarray) -> BufferRef:
        space = "vb" if name in self.machine.vb else "cvb"
        return BufferRef(space, name, int(arr.shape[0]))

    def _record(self, op: str, index: str, bound: int, *, dst=None,
                srcs=(), expr: str = "", text: str = "", site=None,
                matrix=None, spmv_shape=None, index_arrays=None,
                nnz: int = 0, sreg_writes=(), lane_bound: int = 0) -> None:
        reads = self._pending_reads
        self._pending_reads = []
        len_slots = tuple(self._pending_lens)
        self._pending_lens = []
        self.effects.append(EffectStatement(
            op=op, index=index, bound=int(bound), dst=dst,
            srcs=tuple(srcs), expr=expr, text=text,
            lane_bound=int(lane_bound),
            sreg_reads=tuple((ref, tok) for kind, ref, tok in reads
                             if kind == "reg"),
            lit_reads=tuple((ref, tok) for kind, ref, tok in reads
                            if kind == "lit"),
            sreg_writes=tuple(sreg_writes), len_slots=len_slots,
            instr_index=self._instr_index, site=site, matrix=matrix,
            spmv_shape=spmv_shape, index_arrays=index_arrays, nnz=nnz,
            charge_slot=self._charge_slot))

    # -- operand tables --------------------------------------------------
    def buf(self, arr: np.ndarray) -> str:
        if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
            raise SimulationError("loop operand must be contiguous f64")
        key = id(arr)
        idx = self._buf_ids.get(key)
        if idx is None:
            idx = len(self.bufs)
            self.bufs.append(arr)
            self._buf_ids[key] = idx
        return f"B[{idx}]"

    def iarr(self, arr: np.ndarray) -> str:
        if arr.dtype != np.int64 or not arr.flags["C_CONTIGUOUS"]:
            raise SimulationError("loop index array must be contiguous i64")
        key = id(arr)
        idx = self._iarr_ids.get(key)
        if idx is None:
            idx = len(self.iarrs)
            self.iarrs.append(arr)
            self._iarr_ids[key] = idx
        return f"IA[{idx}]"

    def length(self, n: int) -> str:
        # one slot per use: keeps the source canonical per pattern even
        # when two operand lengths happen to coincide at runtime
        self.lens.append(int(n))
        slot = len(self.lens) - 1
        self._pending_lens.append((slot, int(n)))
        return f"L[{slot}]"

    def _vector_operands(self, instr: VectorOp) -> list:
        """The source buffers of ``instr``, all of one shape: the
        generated loops never broadcast, while the closure path would
        (via numpy), so refuse what numpy would broadcast and let the
        node path raise or broadcast as it always did."""
        srcs = [self.executor._resident(name) for name in instr.srcs]
        if any(arr.shape != srcs[0].shape for arr in srcs[1:]):
            raise SimulationError("vector operand shapes differ")
        return srcs

    # -- per-builder hooks -----------------------------------------------
    def _scalar_tables(self) -> dict:
        raise NotImplementedError

    def _emit_scalar(self, instr: ScalarOp) -> None:
        raise NotImplementedError

    def _emit_vecdup(self, instr: VecDup) -> None:
        raise NotImplementedError

    def _emit_spmv(self, instr: SpMV) -> None:
        raise NotImplementedError

    def _emit_vector(self, instr: VectorOp) -> None:
        raise NotImplementedError

    def _frame_enter(self, slot: int) -> str:
        """Source opening frame ``slot`` (a nested loop's entry)."""
        raise NotImplementedError

    def _trip_head(self, slot: int) -> str:
        """Source at the top of every trip of frame ``slot``."""
        raise NotImplementedError

    def _control_test(self, instr: Control) -> tuple:
        """``(expr, source)`` of a Control exit test in this frame."""
        raise NotImplementedError

    def _loop_source(self) -> str:
        raise NotImplementedError

    def _fused_unit(self, run, ffi, tables: tuple, ct, it, hold):
        raise NotImplementedError

    # -- emission --------------------------------------------------------
    def emit_body_ir(self, body: list) -> None:
        """Emit the loop body's source and effect IR (no compilation)."""
        self.code.append(
            "    for (long it0 = 0; it0 < max_iter; ++it0) {\n"
            + self._trip_head(0))
        self._emit_body(body)
        self.code.append("    }\n"
                         "    loop_exit_0: ;\n")

    def _emit_body(self, items: list) -> None:
        run: list = []
        for item in items:
            if isinstance(item, (Loop, Control)):
                self._flush_run(run)
                run = []
                if isinstance(item, Control):
                    self._emit_control(item)
                else:
                    self._emit_loop(item)
            else:
                run.append(item)
        self._flush_run(run)

    def _flush_run(self, run: list) -> None:
        if not run:
            return
        machine = self.machine
        slot = len(self.charges)
        cycles = 0
        by_class: dict = {}
        for instr in run:
            kind = type(instr).__name__
            c = instr.cycles(machine)
            cycles += c
            by_class[kind] = by_class.get(kind, 0) + c
        self.charges.append((cycles, by_class, len(run)))
        self.code.append(f"    CT[{slot}]++;\n")
        self._charge_slot = slot
        for instr in run:
            self._instr_index += 1
            if isinstance(instr, ScalarOp):
                self._emit_scalar(instr)
            elif isinstance(instr, VectorOp):
                self._emit_vector(instr)
            elif isinstance(instr, VecDup):
                self._emit_vecdup(instr)
            elif isinstance(instr, SpMV):
                self._emit_spmv(instr)
            else:
                # DataTransfer (host/HBM traffic) and anything unknown
                # stay on the node path.
                raise SimulationError(
                    f"instruction not loop-fusable: {instr!r}")

    def _emit_control(self, instr: Control) -> None:
        slot = len(self.charges)
        self.charges.append((1, {"Control": 1}, 1))
        self._charge_slot = slot
        self._instr_index += 1
        expr, test = self._control_test(instr)
        text = f"    CT[{slot}]++;\n" + test
        self.code.append(text)
        self._record("control", "control", 0, expr=expr, text=text,
                     site=getattr(instr, "site", None))

    def _emit_loop(self, loop: Loop) -> None:
        if loop.max_iter < 1:
            # a zero-trip nested loop must still create its
            # loop_iterations key; the node path handles that.
            raise SimulationError("nested loop with zero trip count")
        it_slot = 1 + len(self.loops)
        self.loops.append((it_slot, loop.name))
        self.loop_meta.append((it_slot, loop.name, int(loop.max_iter)))
        var = f"it{it_slot}"
        self._charge_slot = None
        self._instr_index += 1
        self.code.append(
            "    {\n"
            + self._frame_enter(it_slot) +
            f"    const long n_{var} = {self.length(loop.max_iter)};\n"
            f"    for (long {var} = 0; {var} < n_{var}; ++{var}) {{\n"
            + self._trip_head(it_slot))
        self._record("loop", "loop", loop.max_iter,
                     site=getattr(loop, "site", None))
        parent, self._frame = self._frame, it_slot
        self._emit_body(loop.body)
        self._frame = parent
        self.code.append("    }\n"
                         "    }\n"
                         f"    loop_exit_{it_slot}: ;\n")

    # -- finish ----------------------------------------------------------
    def _finish_loop(self):
        source = self._loop_source()
        module = None
        for args in self._LOOP_ARGS:
            module = cjit.compile_module(self._LOOP_CDEF, source,
                                         tag=self._LOOP_TAG, args=args,
                                         libraries=("m",))
            if module is not None:
                break
        if module is None:
            return None
        ffi = module.ffi

        def table(ctype: str, arrays: list):
            return ffi.new(f"{ctype} *[]",
                           [ffi.cast(f"{ctype} *", arr.ctypes.data)
                            for arr in arrays] or [ffi.NULL])

        ct = np.zeros(max(1, len(self.charges)), dtype=np.int64)
        it = np.zeros(1 + len(self.loops), dtype=np.int64)
        return self._fused_unit(
            module.lib.loop_run, ffi,
            (table("double", self.bufs), table("long", self.iarrs),
             ffi.new("long[]", self.lens or [0])),
            ct, it, (tuple(self.bufs), tuple(self.iarrs)))


class _LoopBuilder(_CBuilder):
    """Generate one C function for an entire Loop body.

    The operand tables (``B``/``IA``/``L``) come with a read-write
    scalar table: every distinct scalar *register* gets one ``S`` slot
    (written in C with its ``W`` flag set; read in C after an in-loop
    write sees the fresh value, exactly like the interpreter's register
    file), and every literal occurrence gets its own ``S`` slot so the
    source stays pattern-canonical. Per-block charge counters (``CT``)
    and per-loop trip counters (``IT``) make the cycle accounting exact
    without any host work inside the loop.

    Bit-exactness: every per-element expression is the closure fold
    table verbatim (:func:`vector_fold`), SpMV/DOT embed the engine
    kernel bodies, CLIP's ternary chain evaluates ``np.clip`` exactly
    (NaN and signed-zero included), and scalar C arithmetic on IEEE
    doubles (`+ - * /`, ``sqrt``, the ``MAX`` ternary) reproduces the
    Python float kernels bit for bit, with ``-ffp-contract=off`` ruling
    out FMA contraction.
    """

    _LOOP_CDEF = _LOOP_CDEF

    def __init__(self, executor: CompiledExecutor):
        super().__init__(executor)
        self.s_entries: list = []     # ("reg", name) | ("lit", value)
        self._reg_slots: dict = {}
        self.reg_reads: set = set()
        self.reg_writes: set = set()

    # -- scalar table ----------------------------------------------------
    def _reg_slot(self, name: str) -> int:
        slot = self._reg_slots.get(name)
        if slot is None:
            slot = len(self.s_entries)
            self.s_entries.append(("reg", name))
            self._reg_slots[name] = slot
        return slot

    def scalar(self, ref) -> str:
        if isinstance(ref, str):
            self.reg_reads.add(ref)
            token = f"S[{self._reg_slot(ref)}]"
            self._pending_reads.append(("reg", ref, token))
            return token
        slot = len(self.s_entries)
        self.s_entries.append(("lit", float(ref)))
        token = f"S[{slot}]"
        self._pending_reads.append(("lit", float(ref), token))
        return token

    def _scalar_tables(self) -> dict:
        return {"s_entries": tuple(self.s_entries),
                "reg_reads": frozenset(self.reg_reads),
                "reg_writes": frozenset(self.reg_writes)}

    # -- frame hooks -----------------------------------------------------
    def _frame_enter(self, slot: int) -> str:
        return ""

    def _trip_head(self, slot: int) -> str:
        return f"    IT[{slot}]++;\n"

    def _control_test(self, instr: Control) -> tuple:
        value = self.scalar(instr.reg)
        threshold = self.scalar(instr.threshold_reg)
        expr = f"{value} < {threshold}"
        return expr, f"    if ({expr}) goto loop_exit_{self._frame};\n"

    # -- emission --------------------------------------------------------
    def _emit_scalar(self, instr: ScalarOp) -> None:
        if instr.op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError(
                f"binary scalar op {instr.op.value!r} has no src2 "
                f"operand (dst={instr.dst!r})")
        a = self.scalar(instr.src1)
        b = self.scalar(instr.src2) if instr.src2 is not None else None
        template, trap = SCALAR_C[instr.op]
        expr = template.format(a=a, b=b)
        guard = ""
        if trap is not None:
            cond, rc = trap
            guard = f"    if ({cond.format(a=a, b=b)}) return {rc};\n"
        dst = self._reg_slot(instr.dst)
        self.reg_writes.add(instr.dst)
        text = guard + f"    S[{dst}] = {expr}; W[{dst}] = 1;\n"
        self.code.append(text)
        self._record(f"scalar:{instr.op.value}", "scalar", 0, expr=expr,
                     text=text,
                     sreg_writes=((instr.dst, f"S[{dst}]"),),
                     site=getattr(instr, "site", None))

    def _elementwise(self, n: int, decls: list, expr: str) -> None:
        body = "".join(f"        {line}\n" for line in decls)
        self.code.append(
            "    {\n"
            f"        const long n = {self.length(n)};\n"
            + body +
            "        for (long i = 0; i < n; ++i)\n"
            f"            {expr};\n"
            "    }\n")

    def _emit_vecdup(self, instr: VecDup) -> None:
        src = self.executor._resident(instr.src)
        dst = self.executor._dst_buffer(self.machine.cvb, instr.cvb,
                                        src.size)
        self._elementwise(src.size, [
            f"const double *a = {self.buf(src)};",
            f"double *d = {self.buf(dst)};",
        ], "d[i] = a[i]")
        self._record("vecdup", "elementwise", src.size,
                     dst=BufferRef("cvb", instr.cvb, dst.shape[0]),
                     srcs=(self._src_ref(instr.src, src),),
                     expr="d[i] = a[i]",
                     site=getattr(instr, "site", None))

    def _emit_vector(self, instr: VectorOp) -> None:
        executor = self.executor
        kind = instr.op
        site = getattr(instr, "site", None)
        srcs = self._vector_operands(instr)
        refs = tuple(self._src_ref(name, arr)
                     for name, arr in zip(instr.srcs, srcs))
        a = srcs[0]
        if kind is VectorOpKind.DOT:
            slot = self._reg_slot(instr.dst)
            self.reg_writes.add(instr.dst)
            body = "".join("    " + line + "\n" if line.strip() else line
                           for line in cjit.DOT_BODY.splitlines())
            block = (
                "    {\n"
                f"        const double *a = {self.buf(a)};\n"
                f"        const double *b = {self.buf(srcs[1])};\n"
                f"        const long n = {self.length(a.size)};\n"
                + body +
                f"        S[{slot}] = acc;\n"
                f"        W[{slot}] = 1;\n"
                "    }\n")
            self.code.append(block)
            self._record("dot", "reduce", a.size, srcs=refs, text=block,
                         sreg_writes=((instr.dst, f"S[{slot}]"),),
                         site=site)
            return
        dst = executor._dst_buffer(self.machine.vb, instr.dst, a.size)
        dst_ref = BufferRef("vb", instr.dst, dst.shape[0])
        if kind is VectorOpKind.CLIP:
            lo, hi = srcs[1], srcs[2]
            # max-then-min with NaN passthrough: evaluates np.clip
            # exactly (verified over all special-value triples).
            block = (
                "    {\n"
                f"        const double *a = {self.buf(a)};\n"
                f"        const double *lo = {self.buf(lo)};\n"
                f"        const double *hi = {self.buf(hi)};\n"
                f"        double *d = {self.buf(dst)};\n"
                f"        const long n = {self.length(a.size)};\n"
                "        for (long i = 0; i < n; ++i) {\n"
                "            const double av = a[i];\n"
                "            const double t = isnan(av) ? av"
                " : (av > lo[i] ? av : lo[i]);\n"
                "            d[i] = isnan(t) ? t : (t < hi[i] ? t : hi[i]);\n"
                "        }\n"
                "    }\n")
            self.code.append(block)
            self._record("clip", "elementwise", a.size, dst=dst_ref,
                         srcs=refs, text=block, site=site)
            return
        form, scalars = vector_fold(instr)
        decls = [f"const double *{name} = {self.buf(arr)};"
                 for name, arr in zip("ab", srcs)]
        decls.append(f"double *d = {self.buf(dst)};")
        tokens = [f"s{k}" for k in range(len(scalars))]
        decls += [f"const double {tok} = {self.scalar(ref)};"
                  for tok, ref in zip(tokens, scalars)]
        expr = "d[i] = " + form.format(*tokens, a="a[i]", b="b[i]")
        self._elementwise(a.size, decls, expr)
        self._record(kind.value, "elementwise", a.size, dst=dst_ref,
                     srcs=refs, expr=expr, site=site)

    def _emit_spmv(self, instr: SpMV) -> None:
        machine = self.machine
        resource = machine.matrices[instr.matrix]
        src = machine.cvb.get(instr.src)
        if src is None:
            raise SimulationError(f"SpMV source {instr.src!r} not in CVB")
        rows = int(resource.matrix.shape[0])
        dst = self.executor._dst_buffer(machine.vb, instr.dst, rows)
        kernel = resource.kernel
        val, col, ip = kernel.val, kernel.col, kernel.ip
        body = "".join("    " + line + "\n" if line.strip() else line
                       for line in cjit.CSR_MATVEC_BODY.splitlines())
        block = (
            "    {\n"
            f"        const double *val = {self.buf(val)};\n"
            f"        const long *col = {self.iarr(col)};\n"
            f"        const long *ip = {self.iarr(ip)};\n"
            f"        const double *x = {self.buf(src)};\n"
            f"        double *y = {self.buf(dst)};\n"
            f"        const long nrows = {self.length(rows)};\n"
            + body +
            "    }\n")
        self.code.append(block)
        shape = (rows, int(resource.matrix.shape[1]))
        self._record(
            "spmv", "gather", rows,
            dst=BufferRef("vb", instr.dst, dst.shape[0]),
            srcs=(BufferRef("matrix", instr.matrix, int(val.shape[0])),
                  BufferRef("cvb", instr.src, int(src.shape[0]))),
            text=block, site=getattr(instr, "site", None),
            matrix=instr.matrix, spmv_shape=shape,
            index_arrays=(col, ip), nnz=int(val.shape[0]))

    # -- finish ----------------------------------------------------------
    def _loop_source(self) -> str:
        return (
            "#include <math.h>\n"
            "\n"
            "long loop_run(double **B, long **IA, const long *L, double *S,\n"
            "              unsigned char *W, long *CT, long *IT,\n"
            "              long max_iter)\n"
            "{\n"
            "    (void)B; (void)IA; (void)L; (void)W;\n"
            + "".join(self.code) +
            "    return 0;\n"
            "}\n")

    def _fused_unit(self, run, ffi, tables: tuple, ct, it, hold):
        n_s = max(1, len(self.s_entries))
        s_np = np.zeros(n_s)
        for slot, (kind, value) in enumerate(self.s_entries):
            if kind == "lit":
                s_np[slot] = value
        w_np = np.zeros(n_s, dtype=np.uint8)
        args = tables + (ffi.cast("double *", s_np.ctypes.data),
                         ffi.cast("unsigned char *", w_np.ctypes.data),
                         ffi.cast("long *", ct.ctypes.data),
                         ffi.cast("long *", it.ctypes.data))
        return _FusedSoloLoop(run, args, self.machine, self, ct, it, hold,
                              s_np, w_np)
