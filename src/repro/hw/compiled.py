"""Compiled execution backend: the shared lowering tables and the one
whole-loop C emitter.

The interpreter in :mod:`repro.hw.machine` pays a per-instruction
Python ``isinstance`` dispatch, dict lookups for every operand, and a
:meth:`~repro.hw.machine.ExecutionStats.charge` call per instruction —
executed thousands of times per QP solve. The compiled backend mirrors
the paper's one-time-customization / cheap-per-solve split at the
simulator level. Its one executor,
:class:`~repro.hw.batched.BatchExecutor`, runs every compiled program
on a lane-minor :class:`~repro.hw.batched.BatchMachine`: B lockstep
instances for a batch, and one lane for a solo accelerator — solo is a
batch of one. It lowers each straight-line run of instructions (a
"basic block", split at :class:`~repro.hw.isa.Control` tests and nested
:class:`~repro.hw.isa.Loop` nodes) into fused numpy closures over
stable in-place buffers, once, on the block's first execution, and
charges a block's pre-aggregated cycle cost with one
:meth:`~repro.hw.machine.ExecutionStats.charge_block` call.

This module holds what that lowering and the generated C share:

* the backend names (:data:`BACKENDS`);
* the scalar float kernels (``_s_*``), the C forms of the scalar ops
  (:data:`SCALAR_C`) and the vector fold table (:func:`vector_fold`):
  coefficients of exactly ``+-1.0`` fold their multiply away, an exact
  IEEE identity, so every form emits the interpreter's bits;
* **whole-loop fusion** — when a C toolchain is available (see
  :mod:`repro.hw.cjit`), an entire :class:`~repro.hw.isa.Loop` body
  (vector ops, SpMV, scalar arithmetic, Control exit tests, nested
  loops, cycle accounting) compiles into a single generated C function
  entered once per loop execution, so the hot ADMM/PDHG iteration pays
  zero Python dispatch. One builder (:class:`_LoopBuilder`) emits every
  fused loop over lane-minor ``(len, B)`` buffers at the machine's lane
  count; the B=1 unit is a solo solve's loop. The generated
  per-element expressions replicate the closure fold table exactly and
  SpMV/DOT keep the engine kernels' sequential order, so fused,
  unfused and interpreted execution all produce the same bits. A unit
  is built only after the body's segments have bound (one node-path
  run), bypassed whenever a fault injector is armed, and the node path
  stays on any unsupported body — same bits either way. Loop sources
  depend only on the instruction pattern and the lane count, so the
  hash-addressed disk cache compiles each program shape once, ever.

The interpreter remains the differential-testing oracle: on error-free
runs the compiled backend produces bit-identical machine state and
identical :class:`~repro.hw.machine.ExecutionStats`. On *failing* runs
the exception type matches, but partial stats may differ (block costs
are applied after the block's closures run).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SimulationError
from . import cjit
from .effect_ir import BufferRef, EffectIR, EffectStatement
from .isa import (BINARY_SCALAR_OPS, Control, Loop, ScalarOp, ScalarOpKind,
                  SpMV, VecDup, VectorOp, VectorOpKind)

__all__ = ["BACKENDS", "validate_backend", "literal_operand"]

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

    The closures (:mod:`repro.hw.batched`) and the generated C
    (:func:`vector_fold`) fold exactly the same ``+-1.0`` coefficient
    cases.
    """
    if ref is None or isinstance(ref, str):
        return None
    return float(ref)


# ---------------------------------------------------------------------------
# scalar arithmetic kernels (float-in/float-out, for one-lane closures)

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
# Whole-loop C fusion: one generated C function per (loop body, lane
# count), covering loop control, vector ops, SpMV, scalar arithmetic,
# Control exit tests, nested loops and cycle accounting over lane-minor
# (len, B) buffers. The host enters C once per Loop node execution —
# per-iteration Python dispatch drops to zero. A solo loop is the B=1
# unit.

_LOOP_CDEF = """
long loop_run(double **B, long **IA, const long *L, const double *S,
              long *M, long *CT, long *IT, long *LT, long max_iter);
"""

#: ScalarOp -> (C expression, trap) over the emitted operand tokens
#: ``{a}``/``{b}``. A trap is ``(condition, return code)``, checked
#: before the write; the fused unit's host side raises the matching
#: :class:`SimulationError`. Scalar C arithmetic on IEEE doubles
#: reproduces the Python float kernels bit for bit.
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
    exactly ``+-1.0`` fold their multiply away, as the closures of
    :meth:`~repro.hw.batched.BatchExecutor._lower_vector` do.
    """
    kind = instr.op
    if kind is VectorOpKind.COPY:
        return "{a}", ()
    if kind is VectorOpKind.EWMUL:
        return "{a} * {b}", ()
    al = literal_operand(instr.alpha)
    if kind is VectorOpKind.SCALE_ADD:
        if al == 1.0:
            return "{a} + {b}", ()
        if al == -1.0:
            return "{a} - {b}", ()
        return "{a} + {b} * {0}", (instr.alpha,)
    if kind is VectorOpKind.AXPBY:
        be = literal_operand(instr.beta)
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

    :meth:`run` loads row 0 of ``M`` with the executor's lane mask,
    zeroes the charge, trip and per-lane trip counters, enters C once,
    then applies cycle accounting from the ``CT`` block counters, wall
    loop trips from ``IT`` and per-lane trips from ``LT``. ``M`` row
    ``k`` is frame ``k``'s active-lane mask and ``LT`` row ``k`` counts
    frame ``k``'s per-lane trips. Registers are the machine's stable
    ``(B,)`` buffers, read and written in place, so there is no scalar
    staging around the call.

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

    __slots__ = ("_run", "_args", "_executor", "_stats", "_lanes", "_ct",
                 "_it", "_m", "_lt", "_charges", "_loops", "_hold")

    def __init__(self, run, args: tuple, builder, ct, it, m, lt, hold):
        self._run = run
        self._args = args
        self._executor = builder.executor
        self._stats = builder.machine.stats
        self._lanes = builder.machine.lane_loop_iterations
        self._ct = ct
        self._it = it
        self._m = m
        self._lt = lt
        self._charges = tuple(builder.charges)
        self._loops = tuple(builder.loops)
        self._hold = hold

    def run(self, loop: Loop) -> None:
        ct, it, lt = self._ct, self._it, self._lt
        self._m[0] = self._executor._mask
        ct[:] = 0
        it[:] = 0
        lt[:] = 0
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
        lanes = self._lanes
        for slot, name in ((0, loop.name),) + self._loops:
            n = int(it[slot])
            if slot and not n:
                continue  # nested loop never entered: no key
            counts[name] = counts.get(name, 0) + n
            trips = lanes.get(name)
            if trips is None:
                trips = lanes[name] = np.zeros(lt.shape[1], dtype=np.int64)
            trips += lt[slot]
        if rc in _TRAP_ERRORS:
            raise SimulationError(_TRAP_ERRORS[rc])


class _LoopBuilder:
    """Generate one lane-minor C function for an entire Loop body.

    The one whole-loop emitter, for a machine of B lanes; B=1 is a solo
    solve. Buffers, index arrays and loop bounds reach the generated
    code through the ``B``/``IA``/``L`` pointer tables, one slot per
    distinct array (``L``: one slot per use), so the source depends
    only on the instruction pattern and the lane count: equal patterns
    hash to the same cached module. Scalar registers are the machine's
    stable ``(B,)`` buffers
    (:meth:`~repro.hw.batched.BatchMachine.scalar_buffer`), travel
    through ``B`` like any other operand, and every per-element
    expression gains an inner lane loop over the contiguous trailing
    axis. Only float *literals* go through the ``S`` constant table.
    :meth:`_record` files one
    :class:`~repro.hw.effect_ir.EffectStatement` per emitted statement
    together with the scalar reads and ``L`` slots it consumed.

    :meth:`emit_body_ir` walks a Loop body once: maximal straight-line
    runs become one ``CT`` charge slot each, every Control gets its own
    one-cycle slot, and nested loops get an ``IT`` trip-counter slot in
    pre-order, with their bodies emitted inline.

    Frame ``k`` (the loop with ``IT`` slot ``k``; 0 is the fused loop
    itself) keeps its active lanes in ``m{k}``. For B >= 2 every
    emitted write is guarded by the innermost frame's mask, so a frozen
    lane's columns never change after its Control fired — the
    snapshot/restore the node path needs has nothing to undo. A Control
    clears its firing lanes in its frame and jumps to the frame's exit
    label once none is left; a nested loop starts from a copy of its
    parent's mask, so the parent's mask is intact when it ends. Each
    trip adds its active lanes to ``lt{k}`` and charges the wall
    ``CT``/``IT`` slots once; it leaves the frame when no lane is
    active. DIV/SQRT check their trap on active lanes only.

    For B = 1 the lane count ``bt`` is the literal ``1`` and the write
    and trap guards are left out: a statement only ever runs while the
    single lane is live, because each trip head leaves an empty frame,
    a Control that clears the lane jumps to its frame's exit, and a
    nested frame starts as a copy of a live parent.

    Bit-exactness: every per-element expression is the closure fold
    table verbatim (:func:`vector_fold`), SpMV/DOT keep each lane's
    accumulation in the engine kernels' sequential order, CLIP's
    ternary chain evaluates ``np.clip`` exactly (NaN and signed-zero
    included), and scalar C arithmetic on IEEE doubles (`+ - * /`,
    ``sqrt``, the ``MAX`` ternary) reproduces the Python float kernels
    bit for bit, with ``-ffp-contract=off`` ruling out FMA contraction.
    """

    def __init__(self, executor):
        self.executor = executor
        self.machine = executor.machine
        self.bufs: list = []
        self._buf_ids: dict = {}
        self.iarrs: list = []
        self._iarr_ids: dict = {}
        self.lens: list = []
        self.consts: list = []
        self.code: list = []
        self.charges: list = []       # per CT slot: (cycles, by_class, n)
        self.loops: list = []         # (IT slot, name) for nested loops
        self.loop_meta: list = []     # (IT slot, name, max_iter)
        self._frame = 0               # IT slot of the innermost loop
        self._sregs = 0
        self._batch = executor.batch
        # effect-IR recording (consumed by repro.verify.codegen)
        self.effects: list = []
        self._pending_reads: list = []  # ("reg"|"lit", ref, token)
        self._pending_lens: list = []   # (L slot, value)
        self._instr_index = -1
        self._charge_slot: int | None = None
        if self._batch > 1:
            # L[0] is the function-level lane count ``bt`` the mask and
            # trip-counter loops run over.
            self.length(self._batch)
            self._pending_lens.clear()

    def effect_ir(self) -> EffectIR:
        return EffectIR(tier="loop", batch=self._batch,
                        statements=list(self.effects),
                        lens=tuple(self.lens), consts=tuple(self.consts),
                        charges=tuple(self.charges),
                        loops=tuple(self.loop_meta),
                        source=self._loop_source())

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

    def _lanes(self) -> str:
        """The lane count of a block's ``bt``: the literal ``1`` for
        one lane, else an ``L`` slot."""
        return "1" if self._batch == 1 else self.length(self._batch)

    def const(self, value: float) -> str:
        self.consts.append(float(value))
        token = f"S[{len(self.consts) - 1}]"
        self._pending_reads.append(("lit", float(value), token))
        return token

    def sreg(self, ref) -> tuple:
        """A scalar operand: ``(decls, token)``.

        A register resolves to its stable ``(B,)`` buffer (token indexes
        the lane ``[j]``); a literal resolves to an ``S`` constant.
        """
        operand = self.executor._scalar_operand(ref)
        if isinstance(operand, float):
            return [], self.const(operand)
        name = f"s{self._sregs}"
        self._sregs += 1
        token = f"{name}[j]"
        self._pending_reads.append(("reg", ref, token))
        return [f"const double *{name} = {self.buf(operand)};"], token

    def _vector_operands(self, instr: VectorOp) -> list:
        """The source buffers of ``instr``, all of one shape: the
        generated loops never broadcast, while the closure path would
        (via numpy), so refuse what numpy would broadcast and let the
        node path raise or broadcast as it always did."""
        srcs = [self.executor._resident(name) for name in instr.srcs]
        if any(arr.shape != srcs[0].shape for arr in srcs[1:]):
            raise SimulationError("vector operand shapes differ")
        return srcs

    # -- frame hooks -----------------------------------------------------
    def _masked(self, stmt: str) -> str:
        """``stmt`` (lane index ``j``) guarded by the frame's mask; a
        single lane is live whenever a statement runs."""
        if self._batch == 1:
            return stmt
        return f"if (m{self._frame}[j]) {stmt}"

    def _frame_enter(self, slot: int) -> str:
        return ("    for (long j = 0; j < bt; ++j)\n"
                f"        m{slot}[j] = m{self._frame}[j];\n")

    def _trip_head(self, slot: int) -> str:
        return ("    {\n"
                "        long live = 0;\n"
                "        for (long j = 0; j < bt; ++j) {\n"
                f"            live |= m{slot}[j];\n"
                f"            lt{slot}[j] += m{slot}[j];\n"
                "        }\n"
                f"        if (!live) goto loop_exit_{slot};\n"
                "    }\n"
                f"    IT[{slot}]++;\n")

    def _control_test(self, instr: Control) -> tuple:
        decls_v, value = self.sreg(instr.reg)
        decls_t, threshold = self.sreg(instr.threshold_reg)
        expr = f"{value} < {threshold}"
        m = f"m{self._frame}"
        return expr, (
            "    {\n"
            + "".join(f"        {line}\n" for line in decls_v + decls_t) +
            "        long live = 0;\n"
            "        for (long j = 0; j < bt; ++j) {\n"
            f"            if ({m}[j] && {expr}) {m}[j] = 0;\n"
            f"            live |= {m}[j];\n"
            "        }\n"
            f"        if (!live) goto loop_exit_{self._frame};\n"
            "    }\n")

    # -- loop walk -------------------------------------------------------
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
        text = ("    {\n"
                + self._frame_enter(it_slot) +
                f"    const long n_{var} = {self.length(loop.max_iter)};\n"
                f"    for (long {var} = 0; {var} < n_{var}; ++{var}) {{\n"
                + self._trip_head(it_slot))
        self.code.append(text)
        self._record("loop", "loop", loop.max_iter, text=text,
                     site=getattr(loop, "site", None))
        parent, self._frame = self._frame, it_slot
        self._emit_body(loop.body)
        self._frame = parent
        self.code.append("    }\n"
                         "    }\n"
                         f"    loop_exit_{it_slot}: ;\n")

    # -- per-instruction emitters -----------------------------------------
    def _flat(self, total: int, decls: list, expr: str) -> None:
        """One loop over all ``len * batch`` contiguous elements, row by
        row with the lane index ``j`` for the mask."""
        body = "".join(f"        {line}\n" for line in decls)
        self.code.append(
            "    {\n"
            f"        const long t = {self.length(total)};\n"
            + body +
            "        for (long i0 = 0; i0 < t; i0 += bt)\n"
            "            for (long j = 0; j < bt; ++j) {\n"
            "                const long i = i0 + j;\n"
            f"                {self._masked(expr)};\n"
            "            }\n"
            "    }\n")

    def _laned(self, n: int, decls: list, expr: str) -> None:
        """Row loop with an inner lane loop (lane-varying coefficients);
        ``expr`` indexes the row pointers ``ai``/``bi``/``di`` by ``[j]``."""
        body = "".join(f"        {line}\n" for line in decls)
        self.code.append(
            "    {\n"
            f"        const long n = {self.length(n)};\n"
            f"        const long bt = {self._lanes()};\n"
            + body +
            "        for (long i = 0; i < n; ++i) {\n"
            "            const double *ai = a + i * bt;\n"
            "            const double *bi = b + i * bt;\n"
            "            double *di = d + i * bt;\n"
            "            for (long j = 0; j < bt; ++j)\n"
            f"                {self._masked(expr)};\n"
            "        }\n"
            "    }\n")

    def _emit_vecdup(self, instr: VecDup) -> None:
        src = self.executor._resident(instr.src)
        dst = self.executor._dst_buffer(
            self.machine.cvb, instr.cvb, int(src.shape[0]))
        total = int(src.shape[0]) * self._batch
        self._flat(total, [
            f"const double *a = {self.buf(src)};",
            f"double *d = {self.buf(dst)};",
        ], "d[i] = a[i]")
        self._record(
            "vecdup", "flat", total,
            dst=BufferRef("cvb", instr.cvb, int(dst.shape[0])),
            srcs=(self._src_ref(instr.src, src),),
            expr="d[i] = a[i]", text=self.code[-1],
            site=getattr(instr, "site", None))

    def _emit_scalar(self, instr: ScalarOp) -> None:
        op = instr.op
        if op in BINARY_SCALAR_OPS and instr.src2 is None:
            raise SimulationError("binary scalar op missing src2")
        template, trap = SCALAR_C[op]
        decls, a = self.sreg(instr.src1)
        b = None
        if instr.src2 is not None:
            decls_b, b = self.sreg(instr.src2)
            decls = decls + decls_b
        dst = self.machine.scalar_buffer(instr.dst)
        decls.append(f"double *d = {self.buf(dst)};")
        # MAX is Python's max(a, b): b only when b > a (NaN-asymmetric),
        # the same as the closure's where(b > a, b, a).
        expr = "d[j] = " + template.format(a=a, b=b)
        guard = ""
        if trap is not None:
            # Traps fire for active lanes only, before any lane writes.
            cond, rc = trap
            guard = ("        for (long j = 0; j < bt; ++j)\n"
                     f"            if ({self._live_and(cond.format(a=a, b=b))}"
                     f") return {rc};\n")
        self.code.append(
            "    {\n"
            f"        const long bt = {self._lanes()};\n"
            + "".join(f"        {line}\n" for line in decls) + guard +
            "        for (long j = 0; j < bt; ++j)\n"
            f"            {self._masked(expr)};\n"
            "    }\n")
        self._record(f"scalar:{op.value}", "scalar", 0, expr=expr,
                     text=self.code[-1], lane_bound=self._batch,
                     sreg_writes=((instr.dst, "d[j]"),),
                     site=getattr(instr, "site", None))

    def _live_and(self, cond: str) -> str:
        """``cond`` restricted to the frame's active lanes."""
        if self._batch == 1:
            return cond
        return f"m{self._frame}[j] && {cond}"

    def _emit_vector(self, instr: VectorOp) -> None:
        executor = self.executor
        kind = instr.op
        site = getattr(instr, "site", None)
        srcs = self._vector_operands(instr)
        refs = tuple(self._src_ref(name, arr)
                     for name, arr in zip(instr.srcs, srcs))
        a = srcs[0]
        n = int(a.shape[0])
        total = n * self._batch
        if kind is VectorOpKind.DOT:
            dst = self.machine.scalar_buffer(instr.dst)
            self.code.append(
                "    {\n"
                f"        const double *a = {self.buf(a)};\n"
                f"        const double *b = {self.buf(srcs[1])};\n"
                f"        double * restrict o = {self.buf(dst)};\n"
                f"        const long n = {self.length(n)};\n"
                f"        const long bt = {self._lanes()};\n"
                "        double acc[bt];\n"
                "        for (long j = 0; j < bt; ++j)\n"
                "            acc[j] = 0.0;\n"
                "        for (long i = 0; i < n; ++i) {\n"
                "            const double *ai = a + i * bt;\n"
                "            const double *bi = b + i * bt;\n"
                "            for (long j = 0; j < bt; ++j)\n"
                "                acc[j] += ai[j] * bi[j];\n"
                "        }\n"
                "        for (long j = 0; j < bt; ++j)\n"
                f"            {self._masked('o[j] = acc[j]')};\n"
                "    }\n")
            self._record("dot", "reduce", n, srcs=refs,
                         text=self.code[-1], lane_bound=self._batch,
                         sreg_writes=((instr.dst, "o"),), site=site)
            return
        dst = executor._dst_buffer(self.machine.vb, instr.dst, n)
        dst_ref = BufferRef("vb", instr.dst, int(dst.shape[0]))
        if kind is VectorOpKind.CLIP:
            # max-then-min with NaN passthrough: evaluates np.clip
            # exactly (verified over all special-value triples).
            expr = ("{ const double av = a[i]; "
                    "const double c = isnan(av) ? av : "
                    "(av > lo[i] ? av : lo[i]); "
                    "d[i] = isnan(c) ? c : (c < hi[i] ? c : hi[i]); }")
            self._flat(total, [
                f"const double *{name} = {self.buf(arr)};"
                for name, arr in zip(("a", "lo", "hi"), srcs)
            ] + [f"double *d = {self.buf(dst)};"], expr)
            self._record("clip", "flat", total, dst=dst_ref, srcs=refs,
                         expr=expr, text=self.code[-1], site=site)
            return
        form, scalars = vector_fold(instr)
        decls = [f"const double *{name} = {self.buf(arr)};"
                 for name, arr in zip("ab", srcs)]
        decls.append(f"double *d = {self.buf(dst)};")
        if not scalars:
            expr = "d[i] = " + form.format(a="a[i]", b="b[i]")
            self._flat(total, decls, expr)
            self._record(kind.value, "flat", total, dst=dst_ref,
                         srcs=refs, expr=expr, text=self.code[-1],
                         site=site)
            return
        # A (B,) register indexes its lane [j]; a literal is an S
        # constant, lane-invariant.
        tokens = []
        for ref in scalars:
            more, token = self.sreg(ref)
            decls += more
            tokens.append(token)
        expr = "di[j] = " + form.format(*tokens, a="ai[j]", b="bi[j]")
        self._laned(n, decls, expr)
        self._record(kind.value, "laned", n, dst=dst_ref, srcs=refs,
                     expr=expr, text=self.code[-1],
                     lane_bound=self._batch, site=site)

    def _emit_spmv(self, instr: SpMV) -> None:
        machine = self.machine
        resource = machine.matrices[instr.matrix]
        src = machine.cvb.get(instr.src)
        if src is None:
            raise SimulationError(f"SpMV source {instr.src!r} not in CVB")
        kernel = resource.kernel
        rows = int(kernel.shape[0])
        dst = self.executor._dst_buffer(machine.vb, instr.dst, rows)
        val, col, ip = kernel.val, kernel.col, kernel.ip
        # The engine library's k_csr_matvec_batch body: per lane the
        # k-loop accumulates in exactly the solo row-sum order.
        self.code.append(
            "    {\n"
            f"        const double * restrict v = {self.buf(val)};\n"
            f"        const long *col = {self.iarr(col)};\n"
            f"        const long *ip = {self.iarr(ip)};\n"
            f"        const double * restrict xx = {self.buf(src)};\n"
            f"        double * restrict yy = {self.buf(dst)};\n"
            f"        const long nrows = {self.length(rows)};\n"
            f"        const long bt = {self._lanes()};\n"
            "        double acc[bt];\n"
            "        for (long r = 0; r < nrows; ++r) {\n"
            "            double * restrict yr = yy + r * bt;\n"
            "            for (long j = 0; j < bt; ++j)\n"
            "                acc[j] = 0.0;\n"
            "            for (long k = ip[r]; k < ip[r + 1]; ++k) {\n"
            "                const double * restrict vk = v + k * bt;\n"
            "                const double * restrict xk = xx + col[k] * bt;\n"
            "                for (long j = 0; j < bt; ++j)\n"
            "                    acc[j] += vk[j] * xk[j];\n"
            "            }\n"
            "            for (long j = 0; j < bt; ++j)\n"
            f"                {self._masked('yr[j] = acc[j]')};\n"
            "        }\n"
            "    }\n")
        self._record(
            "spmv", "gather", rows,
            dst=BufferRef("vb", instr.dst, int(dst.shape[0])),
            srcs=(BufferRef("matrix", instr.matrix, int(val.shape[0])),
                  BufferRef("cvb", instr.src, int(src.shape[0]))),
            text=self.code[-1], site=getattr(instr, "site", None),
            matrix=instr.matrix, spmv_shape=tuple(kernel.shape),
            index_arrays=(col, ip), nnz=int(val.shape[0]),
            lane_bound=self._batch)

    # -- finish ----------------------------------------------------------
    def _loop_source(self) -> str:
        frames = "".join(f"    long *m{k} = M + {k} * bt;\n"
                         f"    long *lt{k} = LT + {k} * bt;\n"
                         for k in range(1 + len(self.loops)))
        return (
            "#include <math.h>\n"
            "\n"
            "long loop_run(double **B, long **IA, const long *L,\n"
            "              const double *S, long *M, long *CT,\n"
            "              long *IT, long *LT, long max_iter)\n"
            "{\n"
            "    (void)B; (void)IA; (void)S;\n"
            f"    const long bt = {'1' if self._batch == 1 else 'L[0]'};\n"
            + frames + "".join(self.code) +
            "    return 0;\n"
            "}\n")

    def _finish_loop(self):
        module = cjit.compile_module(_LOOP_CDEF, self._loop_source(),
                                     tag="loop", libraries=("m",))
        if module is None:
            return None
        ffi = module.ffi

        def table(ctype: str, arrays: list):
            return ffi.new(f"{ctype} *[]",
                           [ffi.cast(f"{ctype} *", arr.ctypes.data)
                            for arr in arrays] or [ffi.NULL])

        def ptr(arr: np.ndarray):
            return ffi.cast("long *", arr.ctypes.data)

        ct = np.zeros(max(1, len(self.charges)), dtype=np.int64)
        it = np.zeros(1 + len(self.loops), dtype=np.int64)
        frames = (1 + len(self.loops), self._batch)
        m = np.zeros(frames, dtype=np.int64)
        lt = np.zeros(frames, dtype=np.int64)
        args = (table("double", self.bufs), table("long", self.iarrs),
                ffi.new("long[]", self.lens or [0]),
                ffi.new("double[]", self.consts or [0.0]),
                ptr(m), ptr(ct), ptr(it), ptr(lt))
        return _FusedLoop(
            module.lib.loop_run, args, self, ct, it, m, lt,
            (tuple(self.bufs), tuple(self.iarrs)))
