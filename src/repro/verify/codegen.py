"""Pass 4: static verification of the generated-C (codegen) tier.

The compiled backends in :mod:`repro.hw.compiled` (solo whole-loop
fusion) and :mod:`repro.hw.batched` (lane-masked batched whole-loop
fusion) generate C source at runtime — two tiers in all. Each builder
emits an :class:`~repro.hw.effect_ir.EffectIR` alongside that source —
a per-statement record of effects — and this pass proves, before a
generated kernel ever runs, four independent properties (plus lane
masking for the batched tier):

**Equivalence** (``codegen-expression-mismatch`` /
``codegen-kernel-body-drift``)
    Every emitted statement is re-derived from its source ISA
    instruction: the per-element expression must match the closure
    fold table verbatim (no reassociation or FMA-shaped rewrites —
    the source-level half of the ``-ffp-contract=off`` bit-exactness
    contract), operand buffers must be the instruction's operands in
    order, and embedded DOT/SpMV/CLIP kernel bodies must match the
    canonical :mod:`repro.hw.cjit` templates after table-token
    normalization.

**Bounds and aliasing** (``codegen-index-out-of-bounds`` /
``codegen-shape-mismatch`` / ``codegen-alias-hazard``)
    Every loop bound is proven to stay within every operand buffer it
    indexes (including the flattened ``len * B`` and row/lane bounds of
    lane-minor batch buffers), CSR gathers are proven in-bounds from
    the actual ``col``/``indptr`` arrays the kernel will walk, and a
    gather may not write a buffer it reads.

**Ordering and scalar-table soundness** (``codegen-order-mismatch`` /
``codegen-scalar-slot-mismatch`` / ``codegen-write-set-miss``)
    Generated statements must execute in exactly the order the solo
    interpreter would execute the instructions; every scalar operand
    must be read through the table slot its register or literal owns;
    and the effect IR's write-set must be covered by the static
    write-set
    (:func:`repro.hw.batched.static_write_set`) that the batch
    snapshot-restore machinery relies on.

**Cycle-accounting consistency** (``codegen-cycle-mismatch``)
    Each tier's ``CT`` charge table must reconcile, slot by
    slot, with the static decomposition
    (:func:`repro.verify.cycles.loop_charge_slots`) of the same loop
    body under the same cost context, and its ``IT`` trip-counter
    table must name the nested loops in emission order.

**Lane masking** (``codegen-lane-mask-missing``)
    In the batched tier every write, DIV/SQRT trap and
    Control exit must be guarded by the active-lane mask of the
    innermost enclosing loop frame (``m{k}``, frame ``k`` being the
    loop with ``IT`` slot ``k``), and a Control must leave through its
    own frame's exit label. That is what keeps a frozen lane's columns
    exactly at their exit state without a snapshot.

Entry points: :func:`ensure_codegen_verified` is the compile-time
guard the builders call (memoized per IR digest);
:func:`verify_codegen` lifts every unit the backends would fuse for a
compiled program *statically* — no C toolchain needed — and verifies
them all; :func:`codegen_report_for_artifact` adapts that to a served
:class:`~repro.serving.arch_cache.ArchArtifact`.
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np

from ..hw import cjit
from ..hw.batched import (BatchExecutor, BatchMachine, BatchMatrixResource,
                          _BatchLoopBuilder, static_write_set)
from ..hw.compiled import CompiledExecutor, _LoopBuilder, literal_operand
from ..hw.effect_ir import EFFECT_IR_VERSION, EffectIR, EffectStatement
from ..hw.isa import (Control, DataTransfer, Loop, ScalarOp, ScalarOpKind,
                      SpMV, VecDup, VectorOp, VectorOpKind)
from ..hw.machine import Machine, MatrixResource
from .cycles import loop_charge_slots
from .diagnostics import Location, VerificationReport
from .program import contract_for_algorithm

__all__ = ["ensure_codegen_verified", "verify_effect_ir",
           "verify_codegen", "codegen_report_for_artifact"]

#: Every generated-C tier this pass proves.
TIERS = ("loop", "batch-loop")

#: Accepted verdicts, memoized per :meth:`EffectIR.digest` — two units
#: with equal digests are verdict-equivalent by construction (the
#: digest covers every field the analyses read). Only successes are
#: cached: a failing unit raises and must keep raising.
_VERIFIED: dict[str, bool] = {}
_VERIFIED_CAP = 4096


# ---------------------------------------------------------------------------
# canonical kernel-body templates (token-normalized)

#: Operand-table tokens (``B[0]``, ``IA[2]``, ``L[1]``, ``S[3]``,
#: ``W[4]``) are slot-numbered per unit; normalize them to a fixed
#: placeholder so one template matches every unit.
_TOKEN_RE = re.compile(r"\b(?:B|IA|L|S|W)\[\d+\]")


def _norm(text: str) -> str:
    return _TOKEN_RE.sub("T", text)


def _embed(body: str) -> str:
    """Indent a cjit kernel body exactly like the builders do."""
    return "".join("    " + line + "\n" if line.strip() else line
                   for line in body.splitlines())


_LOOP_DOT = ("    {\n"
             "        const double *a = T;\n"
             "        const double *b = T;\n"
             "        const long n = T;\n"
             + _embed(cjit.DOT_BODY) +
             "        T = acc;\n"
             "        T = 1;\n"
             "    }\n")

_SOLO_SPMV = ("    {\n"
              "        const double *val = T;\n"
              "        const long *col = T;\n"
              "        const long *ip = T;\n"
              "        const double *x = T;\n"
              "        double *y = T;\n"
              "        const long nrows = T;\n"
              + _embed(cjit.CSR_MATVEC_BODY) +
              "    }\n")

_LOOP_CLIP = ("    {\n"
              "        const double *a = T;\n"
              "        const double *lo = T;\n"
              "        const double *hi = T;\n"
              "        double *d = T;\n"
              "        const long n = T;\n"
              "        for (long i = 0; i < n; ++i) {\n"
              "            const double av = a[i];\n"
              "            const double t = isnan(av) ? av"
              " : (av > lo[i] ? av : lo[i]);\n"
              "            d[i] = isnan(t) ? t : (t < hi[i] ? t : hi[i]);\n"
              "        }\n"
              "    }\n")

# Batched whole-loop kernels accumulate into a local lane vector and
# copy only the frame's active lanes out; ``{m}`` is that frame's mask.
_BATCH_LOOP_DOT = ("    {{\n"
                   "        const double *a = T;\n"
                   "        const double *b = T;\n"
                   "        double * restrict o = T;\n"
                   "        const long n = T;\n"
                   "        const long bt = T;\n"
                   "        double acc[bt];\n"
                   "        for (long j = 0; j < bt; ++j)\n"
                   "            acc[j] = 0.0;\n"
                   "        for (long i = 0; i < n; ++i) {{\n"
                   "            const double *ai = a + i * bt;\n"
                   "            const double *bi = b + i * bt;\n"
                   "            for (long j = 0; j < bt; ++j)\n"
                   "                acc[j] += ai[j] * bi[j];\n"
                   "        }}\n"
                   "        for (long j = 0; j < bt; ++j)\n"
                   "            if ({m}[j]) o[j] = acc[j];\n"
                   "    }}\n")

_BATCH_LOOP_SPMV = ("    {{\n"
                    "        const double * restrict v = T;\n"
                    "        const long *col = T;\n"
                    "        const long *ip = T;\n"
                    "        const double * restrict xx = T;\n"
                    "        double * restrict yy = T;\n"
                    "        const long nrows = T;\n"
                    "        const long bt = T;\n"
                    "        double acc[bt];\n"
                    "        for (long r = 0; r < nrows; ++r) {{\n"
                    "            double * restrict yr = yy + r * bt;\n"
                    "            for (long j = 0; j < bt; ++j)\n"
                    "                acc[j] = 0.0;\n"
                    "            for (long k = ip[r]; k < ip[r + 1]; ++k) {{\n"
                    "                const double * restrict vk = v + k * bt;\n"
                    "                const double * restrict xk"
                    " = xx + col[k] * bt;\n"
                    "                for (long j = 0; j < bt; ++j)\n"
                    "                    acc[j] += vk[j] * xk[j];\n"
                    "            }}\n"
                    "            for (long j = 0; j < bt; ++j)\n"
                    "                if ({m}[j]) yr[j] = acc[j];\n"
                    "        }}\n"
                    "    }}\n")

#: The batched whole-loop CLIP statement (np.clip, NaN passthrough).
_BATCH_LOOP_CLIP = ("{ const double av = a[i]; "
                    "const double c = isnan(av) ? av : "
                    "(av > lo[i] ? av : lo[i]); "
                    "d[i] = isnan(c) ? c : (c < hi[i] ? c : hi[i]); }")

# ---------------------------------------------------------------------------
# expected-form tables (the verifier's independent re-derivation of the
# builder fold tables; a builder change that is not mirrored here is a
# verification failure, which is the point)

def _expected_op(instr: Any) -> str | None:
    if isinstance(instr, VecDup):
        return "vecdup"
    if isinstance(instr, SpMV):
        return "spmv"
    if isinstance(instr, VectorOp):
        return instr.op.value
    if isinstance(instr, ScalarOp):
        return f"scalar:{instr.op.value}"
    if isinstance(instr, Control):
        return "control"
    if isinstance(instr, Loop):
        return "loop"
    return None


def _solo_vector_plan(instr: VectorOp) -> tuple[str, list] | None:
    """``(expr, scalar_operands)`` of the solo elementwise fold table."""
    kind = instr.op
    if kind is VectorOpKind.COPY:
        return "d[i] = a[i]", []
    if kind is VectorOpKind.EWMUL:
        return "d[i] = a[i] * b[i]", []
    if kind is VectorOpKind.SCALE_ADD:
        al = literal_operand(instr.alpha)
        if al == 1.0:
            return "d[i] = a[i] + b[i]", []
        if al == -1.0:
            return "d[i] = a[i] - b[i]", []
        return "d[i] = a[i] + b[i] * s0", [instr.alpha]
    if kind is VectorOpKind.AXPBY:
        al = literal_operand(instr.alpha)
        be = literal_operand(instr.beta)
        if al == 1.0 and be == 1.0:
            return "d[i] = a[i] + b[i]", []
        if al == 1.0 and be == -1.0:
            return "d[i] = a[i] - b[i]", []
        if al == 1.0:
            return "d[i] = a[i] + b[i] * s0", [instr.beta]
        if be == 1.0:
            return "d[i] = a[i] * s0 + b[i]", [instr.alpha]
        if be == -1.0:
            return "d[i] = a[i] * s0 - b[i]", [instr.alpha]
        if al == -1.0:
            return "d[i] = b[i] * s0 - a[i]", [instr.beta]
        return "d[i] = a[i] * s0 + b[i] * s1", [instr.alpha, instr.beta]
    return None


def _batch_vector_plan(instr: VectorOp) -> tuple[str, str, list] | None:
    """``(index_kind, expr_template, scalar_operands)`` of the batched
    fold table; ``{0}``/``{1}`` substitute the emitted scalar tokens."""
    kind = instr.op
    if kind is VectorOpKind.COPY:
        return "flat", "d[i] = a[i]", []
    if kind is VectorOpKind.EWMUL:
        return "flat", "d[i] = a[i] * b[i]", []
    if kind is VectorOpKind.SCALE_ADD:
        al = literal_operand(instr.alpha)
        if al == 1.0:
            return "flat", "d[i] = a[i] + b[i]", []
        if al == -1.0:
            return "flat", "d[i] = a[i] - b[i]", []
        return "laned", "di[j] = ai[j] + bi[j] * {0}", [instr.alpha]
    if kind is VectorOpKind.AXPBY:
        al = literal_operand(instr.alpha)
        be = literal_operand(instr.beta)
        if al == 1.0 and be == 1.0:
            return "flat", "d[i] = a[i] + b[i]", []
        if al == 1.0 and be == -1.0:
            return "flat", "d[i] = a[i] - b[i]", []
        if al == 1.0:
            return "laned", "di[j] = ai[j] + bi[j] * {0}", [instr.beta]
        if be == 1.0:
            return "laned", "di[j] = ai[j] * {0} + bi[j]", [instr.alpha]
        if be == -1.0:
            return "laned", "di[j] = ai[j] * {0} - bi[j]", [instr.alpha]
        if al == -1.0:
            return "laned", "di[j] = bi[j] * {0} - ai[j]", [instr.beta]
        return ("laned", "di[j] = ai[j] * {0} + bi[j] * {1}",
                [instr.alpha, instr.beta])
    return None


def _scalar_trap(op: ScalarOpKind, a: str,
                 b: str | None) -> tuple[str, int] | None:
    """``(condition, return code)`` of a trapping ScalarOp, else None."""
    if op is ScalarOpKind.DIV:
        return f"{b} == 0.0", 1
    if op is ScalarOpKind.SQRT:
        return f"{a} < 0.0", 2
    return None


def _loop_scalar_expr(op: ScalarOpKind, a: str,
                      b: str | None) -> tuple[str, str] | None:
    """Expected C expression of a loop-tier ScalarOp, given the emitted
    operand tokens; returns ``(guard, expr)`` or None."""
    trap = _scalar_trap(op, a, b)
    guard = f"    if ({trap[0]}) return {trap[1]};\n" if trap else ""
    if op is ScalarOpKind.ADD:
        return guard, f"{a} + {b}"
    if op is ScalarOpKind.SUB:
        return guard, f"{a} - {b}"
    if op is ScalarOpKind.MUL:
        return guard, f"{a} * {b}"
    if op is ScalarOpKind.DIV:
        return guard, f"{a} / {b}"
    if op is ScalarOpKind.MAX:
        return guard, f"({b} > {a}) ? {b} : {a}"
    if op is ScalarOpKind.SQRT:
        return guard, f"sqrt({a})"
    if op is ScalarOpKind.MOV:
        return guard, a
    return None


def _batch_scalar_expr(op: ScalarOpKind, a: str,
                       b: str | None) -> str | None:
    """Expected batched ScalarOp statement."""
    if op is ScalarOpKind.DIV:
        return f"d[j] = {a} / {b}"
    if op is ScalarOpKind.SQRT:
        return f"d[j] = sqrt({a})"
    if op is ScalarOpKind.MOV:
        return f"d[j] = {a}"
    if op is ScalarOpKind.MAX:
        return f"d[j] = ({b} > {a}) ? {b} : {a}"
    if op is ScalarOpKind.ADD:
        return f"d[j] = {a} + {b}"
    if op is ScalarOpKind.SUB:
        return f"d[j] = {a} - {b}"
    if op is ScalarOpKind.MUL:
        return f"d[j] = {a} * {b}"
    return None


# ---------------------------------------------------------------------------
# expected emission walk

def _loop_walk(items: list) -> tuple[list, list]:
    """Mirror the whole-loop skeleton's ``_emit_body``: the exact
    statement order, ``CT`` charge-slot assignment and loop frame of a
    fused loop body.

    Returns ``(entries, loop_meta)`` where entries are
    ``(instr_or_marker, charge_slot, frame)`` in emission order (a
    nested ``Loop`` appears as its own entry with slot ``None`` in its
    parent's frame, followed inline by its body in its own frame;
    frame ``k`` is the loop with ``IT`` slot ``k``) and ``loop_meta``
    is the expected ``(IT slot, name, max_iter)`` trip-counter table in
    pre-order.
    """
    entries: list = []
    loop_meta: list = []
    n_charges = 0

    def walk(block: list, frame: int) -> None:
        nonlocal n_charges
        run: list = []

        def flush() -> None:
            nonlocal n_charges
            if not run:
                return
            slot = n_charges
            n_charges += 1
            for ins in run:
                entries.append((ins, slot, frame))
            run.clear()

        for item in block:
            if isinstance(item, Control):
                flush()
                slot = n_charges
                n_charges += 1
                entries.append((item, slot, frame))
            elif isinstance(item, Loop):
                flush()
                loop_meta.append((1 + len(loop_meta), item.name,
                                  int(item.max_iter)))
                entries.append((item, None, frame))
                walk(item.body, len(loop_meta))
            else:
                run.append(item)
        flush()

    walk(items, 0)
    return entries, loop_meta


# ---------------------------------------------------------------------------
# per-unit checker

_SLOT_RE = re.compile(r"^S\[(\d+)\]$")
_BATCH_REG_RE = re.compile(r"^s(\d+)\[j\]$")


class _UnitChecker:
    """Check one EffectIR against its source instructions."""

    def __init__(self, ir: EffectIR, instrs: list, machine: Any,
                 report: VerificationReport):
        self.ir = ir
        self.instrs = list(instrs)
        self.machine = machine
        self.report = report
        # batch tier: running sreg-pointer and S-constant counters.
        self.sreg_count = 0
        self.const_count = 0
        # solo tier: S-slot table (register name -> slot).
        self.reg_slots: dict = {}
        self.batch_tier = ir.tier == "batch-loop"
        # batch tier: the active-lane mask of the statement's frame.
        self.mask = "m0"
        self.frame = 0

    # -- helpers ---------------------------------------------------------
    def _loc(self, stmt: EffectStatement) -> Location:
        return Location(f"codegen[{self.ir.tier}]",
                        f"stmt {stmt.instr_index} ({stmt.op})",
                        stmt.site)

    def _err(self, code: str, stmt: EffectStatement, message: str,
             hint: str = "") -> None:
        self.report.error(code, message, self._loc(stmt), hint)

    # -- entry -----------------------------------------------------------
    def check(self) -> None:
        ir = self.ir
        report = self.report
        if ir.version != EFFECT_IR_VERSION:
            report.error(
                "codegen-shape-mismatch",
                f"effect IR schema version {ir.version!r} does not match "
                f"the verifier's {EFFECT_IR_VERSION!r}",
                Location(f"codegen[{ir.tier}]"))
            return
        if ir.tier not in TIERS:
            report.error(
                "codegen-shape-mismatch",
                f"unknown effect IR tier {ir.tier!r}",
                Location("codegen"))
            return
        entries, loop_meta = _loop_walk(self.instrs)
        if not self.batch_tier:
            self._load_reg_slots()
        elif tuple(ir.lens[:1]) != (ir.batch,):
            # L[0] bounds every mask and per-lane trip-counter loop.
            report.error(
                "codegen-shape-mismatch",
                f"lane count slot L[0] holds {tuple(ir.lens[:1])} on a "
                f"batch-{ir.batch} machine; the mask and trip-counter "
                f"tables hold exactly {ir.batch} lanes per frame",
                Location("codegen[batch-loop]"))
        stmts = list(ir.statements)
        if len(stmts) != len(entries):
            report.error(
                "codegen-order-mismatch",
                f"effect IR records {len(stmts)} statement(s) but the "
                f"instruction walk emits {len(entries)}",
                Location(f"codegen[{ir.tier}]"),
                hint="a builder emitted code without recording it (or "
                     "vice versa)")
            return
        for pos, ((instr, slot, frame), stmt) in enumerate(
                zip(entries, stmts)):
            self.frame = frame
            self.mask = f"m{frame}"
            if stmt.instr_index != pos:
                self._err(
                    "codegen-order-mismatch", stmt,
                    f"statement records walk position "
                    f"{stmt.instr_index} but executes at {pos}; the "
                    f"generated code would reorder effects the solo "
                    f"interpreter sequences")
            if stmt.charge_slot != slot:
                self._err(
                    "codegen-cycle-mismatch", stmt,
                    f"statement charges CT slot {stmt.charge_slot} but "
                    f"the static decomposition assigns slot {slot}")
            self._check_statement(instr, stmt)
            self._check_bounds(stmt)
        self._check_writes()
        self._check_charges(loop_meta)

    def _load_reg_slots(self) -> None:
        for slot, entry in enumerate(self.ir.s_entries):
            kind, value = entry
            if kind != "reg":
                continue
            if value in self.reg_slots:
                self.report.error(
                    "codegen-scalar-slot-mismatch",
                    f"scalar register {value!r} owns two S slots "
                    f"({self.reg_slots[value]} and {slot}); in-loop "
                    f"writes through one would be invisible through "
                    f"the other",
                    Location("codegen[loop]"))
                continue
            self.reg_slots[value] = slot

    # -- scalar-token resolution -----------------------------------------
    def _resolve_operands(self, stmt: EffectStatement,
                          refs: list) -> list:
        """Consume the statement's recorded scalar reads against the
        expected operand list; returns emitted tokens (None entries on
        failure) and flags stale/misbound table slots."""
        sregs = list(stmt.sreg_reads)
        lits = list(stmt.lit_reads)
        tokens: list = []
        for ref in refs:
            lit = literal_operand(ref)
            if lit is None:
                if not sregs:
                    self._err(
                        "codegen-expression-mismatch", stmt,
                        f"scalar register operand {ref!r} was never "
                        f"read by the generated code")
                    tokens.append(None)
                    continue
                reg, token = sregs.pop(0)
                if reg != ref:
                    self._err(
                        "codegen-expression-mismatch", stmt,
                        f"generated code reads scalar register {reg!r} "
                        f"where the instruction names {ref!r}")
                    tokens.append(None)
                    continue
                self._check_reg_token(stmt, reg, token)
                tokens.append(token)
            else:
                if not lits:
                    self._err(
                        "codegen-expression-mismatch", stmt,
                        f"literal operand {lit!r} was never read by "
                        f"the generated code")
                    tokens.append(None)
                    continue
                value, token = lits.pop(0)
                if value != lit:
                    self._err(
                        "codegen-expression-mismatch", stmt,
                        f"generated code binds literal {value!r} where "
                        f"the instruction carries {lit!r}")
                self._check_lit_token(stmt, lit, token)
                tokens.append(token)
        for reg, token in sregs:
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"generated code reads scalar register {reg!r} "
                f"(token {token}) that no instruction operand names")
        for value, token in lits:
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"generated code reads literal {value!r} (token "
                f"{token}) that no instruction operand carries")
        return tokens

    def _check_reg_token(self, stmt: EffectStatement, reg: str,
                         token: str) -> None:
        if not self.batch_tier:
            match = _SLOT_RE.match(token)
            slot = self.reg_slots.get(reg)
            if match is None or slot is None or int(match.group(1)) != slot:
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"register {reg!r} read through token {token} but "
                    f"its S slot is {slot}")
            return
        # batch: registers are (B,) buffers bound as sN pointers.
        match = _BATCH_REG_RE.match(token)
        if match is None or int(match.group(1)) != self.sreg_count:
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"register {reg!r} read through token {token!r} but "
                f"the emitted pointer sequence expects "
                f"s{self.sreg_count}[j]")
        self.sreg_count += 1

    def _check_lit_token(self, stmt: EffectStatement, value: float,
                         token: str) -> None:
        match = _SLOT_RE.match(token)
        if not self.batch_tier:
            entries = self.ir.s_entries
            if (match is None or int(match.group(1)) >= len(entries)
                    or tuple(entries[int(match.group(1))])
                    != ("lit", value)):
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"literal {value!r} read through token {token} but "
                    f"that S slot holds a different entry")
            return
        consts = self.ir.consts
        if (match is None or int(match.group(1)) != self.const_count
                or self.const_count >= len(consts)
                or consts[self.const_count] != value):
            self._err(
                "codegen-scalar-slot-mismatch", stmt,
                f"literal {value!r} read through {token!r} but the S "
                f"constant table holds "
                f"{consts[self.const_count] if self.const_count < len(consts) else '<missing>'!r} "
                f"at slot {self.const_count}")
        self.const_count += 1

    # -- per-statement equivalence ---------------------------------------
    def _check_statement(self, instr: Any, stmt: EffectStatement) -> None:
        expected_op = _expected_op(instr)
        if expected_op is None or stmt.op != expected_op:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"statement claims op {stmt.op!r} but the instruction "
                f"at this position lowers to {expected_op!r}")
            return
        if isinstance(instr, VecDup):
            self._check_vecdup(instr, stmt)
        elif isinstance(instr, SpMV):
            self._check_spmv(instr, stmt)
        elif isinstance(instr, VectorOp):
            if instr.op is VectorOpKind.DOT:
                self._check_dot(instr, stmt)
            elif instr.op is VectorOpKind.CLIP:
                self._check_clip(instr, stmt)
            else:
                self._check_elementwise(instr, stmt)
        elif isinstance(instr, ScalarOp):
            self._check_scalar(instr, stmt)
        elif isinstance(instr, Control):
            self._check_control(instr, stmt)
        elif isinstance(instr, Loop):
            self._check_loop_marker(instr, stmt)

    def _check_dst(self, stmt: EffectStatement, space: str,
                   name: str) -> bool:
        dst = stmt.dst
        if dst is None or dst.space != space or dst.name != name:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"statement writes "
                f"{(dst.space, dst.name) if dst else None} but the "
                f"instruction destination is {(space, name)}")
            return False
        return True

    def _check_srcs(self, stmt: EffectStatement, names: tuple) -> bool:
        got = tuple(ref.name for ref in stmt.srcs)
        if got != tuple(names):
            self._err(
                "codegen-expression-mismatch", stmt,
                f"statement reads buffers {got} but the instruction "
                f"sources are {tuple(names)}")
            return False
        return True

    def _check_index_kind(self, stmt: EffectStatement,
                          expected: str) -> bool:
        if stmt.index != expected:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"statement iterates as {stmt.index!r} but this "
                f"instruction lowers to a {expected!r} loop")
            return False
        return True

    def _check_masked(self, stmt: EffectStatement, *guards: str) -> None:
        """Batch tier: every ``guards`` line must appear verbatim, each
        one gating its effect on the frame's mask."""
        if not self.batch_tier:
            return
        for guard in guards:
            if guard not in stmt.text:
                self._err(
                    "codegen-lane-mask-missing", stmt,
                    f"expected {guard!r} in the generated statement; "
                    f"lanes outside frame {self.frame}'s mask "
                    f"{self.mask} would be touched",
                    hint="every batched whole-loop write, trap and exit "
                         "must test the innermost frame's mask")

    def _check_template(self, stmt: EffectStatement,
                        template: str) -> None:
        if _norm(stmt.text) != template:
            self._err(
                "codegen-kernel-body-drift", stmt,
                "embedded kernel body differs from the canonical "
                "template; the generated loop would not be the "
                "bit-exactness-pinned kernel shape")

    def _check_vecdup(self, instr: VecDup, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt,
                               "flat" if self.batch_tier else "elementwise")
        self._check_dst(stmt, "cvb", instr.cvb)
        self._check_srcs(stmt, (instr.src,))
        self._resolve_operands(stmt, [])
        if stmt.expr != "d[i] = a[i]":
            self._err(
                "codegen-expression-mismatch", stmt,
                f"VecDup must copy verbatim; generated {stmt.expr!r}")
        self._check_masked(stmt, f"if ({self.mask}[j]) d[i] = a[i];")

    def _check_elementwise(self, instr: VectorOp,
                           stmt: EffectStatement) -> None:
        if self.batch_tier:
            plan = _batch_vector_plan(instr)
            if plan is None:
                self._err("codegen-expression-mismatch", stmt,
                          f"vector op {instr.op.value!r} has no batched "
                          f"codegen lowering")
                return
            index_kind, template, scalar_refs = plan
            self._check_index_kind(stmt, index_kind)
            tokens = self._resolve_operands(stmt, scalar_refs)
            if any(t is None for t in tokens):
                return
            expected = template.format(*tokens)
        else:
            plan = _solo_vector_plan(instr)
            if plan is None:
                self._err("codegen-expression-mismatch", stmt,
                          f"vector op {instr.op.value!r} has no solo "
                          f"codegen lowering")
                return
            expected, scalar_refs = plan
            self._check_index_kind(stmt, "elementwise")
            self._resolve_operands(stmt, scalar_refs)
        self._check_dst(stmt, "vb", instr.dst)
        self._check_srcs(stmt, tuple(instr.srcs[:2]))
        if stmt.expr != expected:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"generated expression {stmt.expr!r} differs from the "
                f"ISA fold {expected!r}",
                hint="reassociation/contraction at the source level "
                     "breaks the bit-exactness contract")
        self._check_masked(stmt, f"if ({self.mask}[j]) {expected};")

    def _check_clip(self, instr: VectorOp, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "flat" if self.batch_tier
                               else "elementwise")
        self._check_dst(stmt, "vb", instr.dst)
        self._check_srcs(stmt, tuple(instr.srcs[:3]))
        self._resolve_operands(stmt, [])
        if not self.batch_tier:
            self._check_template(stmt, _LOOP_CLIP)
            return
        if stmt.expr != _BATCH_LOOP_CLIP:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"generated clip {stmt.expr!r} differs from the "
                f"np.clip lowering {_BATCH_LOOP_CLIP!r}")
        self._check_masked(stmt, f"if ({self.mask}[j]) {_BATCH_LOOP_CLIP};")

    def _check_dot(self, instr: VectorOp, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "reduce")
        self._check_srcs(stmt, tuple(instr.srcs[:2]))
        self._resolve_operands(stmt, [])
        writes = tuple(stmt.sreg_writes)
        if not self.batch_tier:
            slot = self.reg_slots.get(instr.dst)
            expected = ((instr.dst, f"S[{slot}]"),)
            if slot is None or writes != expected:
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"DOT writes {writes} but register {instr.dst!r} "
                    f"owns S slot {slot}")
            self._check_template(stmt, _LOOP_DOT)
        else:
            if writes != ((instr.dst, "o"),):
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"batched DOT writes {writes} but must accumulate "
                    f"into the {instr.dst!r} register buffer")
            self._check_masked(stmt, f"if ({self.mask}[j]) o[j] = acc[j];")
            self._check_template(stmt, _BATCH_LOOP_DOT.format(m=self.mask))

    def _check_spmv(self, instr: SpMV, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "gather")
        self._check_dst(stmt, "vb", instr.dst)
        self._check_srcs(stmt, (instr.matrix, instr.src))
        self._resolve_operands(stmt, [])
        if stmt.matrix != instr.matrix:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"statement streams matrix {stmt.matrix!r} but the "
                f"instruction names {instr.matrix!r}")
        if self.batch_tier:
            self._check_masked(stmt, f"if ({self.mask}[j]) yr[j] = acc[j];")
            self._check_template(stmt, _BATCH_LOOP_SPMV.format(m=self.mask))
        else:
            self._check_template(stmt, _SOLO_SPMV)

    def _check_scalar(self, instr: ScalarOp, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "scalar")
        refs = [instr.src1]
        if instr.src2 is not None:
            refs.append(instr.src2)
        tokens = self._resolve_operands(stmt, refs)
        if any(t is None for t in tokens):
            return
        a = tokens[0]
        b = tokens[1] if len(tokens) > 1 else None
        writes = tuple(stmt.sreg_writes)
        if not self.batch_tier:
            plan = _loop_scalar_expr(instr.op, a, b)
            if plan is None:
                self._err("codegen-expression-mismatch", stmt,
                          f"scalar op {instr.op.value!r} has no loop "
                          f"codegen lowering")
                return
            guard, expected = plan
            slot = self.reg_slots.get(instr.dst)
            if slot is None or writes != ((instr.dst, f"S[{slot}]"),):
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"scalar op writes {writes} but register "
                    f"{instr.dst!r} owns S slot {slot}")
            elif stmt.text != (guard + f"    S[{slot}] = {expected}; "
                               f"W[{slot}] = 1;\n"):
                self._err(
                    "codegen-expression-mismatch", stmt,
                    f"emitted scalar statement {stmt.text!r} differs "
                    f"from the expected lowering")
        else:
            expected = _batch_scalar_expr(instr.op, a, b)
            if expected is None:
                self._err("codegen-expression-mismatch", stmt,
                          f"scalar op {instr.op.value!r} has no batched "
                          f"codegen lowering")
                return
            if writes != ((instr.dst, "d[j]"),):
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"batched scalar op writes {writes} but must "
                    f"target the {instr.dst!r} register buffer lanes")
            trap = _scalar_trap(instr.op, a, b)
            self._check_masked(stmt, f"if ({self.mask}[j]) {expected};",
                               *([f"if ({self.mask}[j] && {trap[0]}) "
                                  f"return {trap[1]};"] if trap else []))
        if stmt.expr != expected:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"generated expression {stmt.expr!r} differs from the "
                f"ISA fold {expected!r}")

    def _check_control(self, instr: Control, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "control")
        tokens = self._resolve_operands(stmt,
                                        [instr.reg, instr.threshold_reg])
        if any(t is None for t in tokens):
            return
        expected = f"{tokens[0]} < {tokens[1]}"
        if stmt.expr != expected:
            self._err(
                "codegen-expression-mismatch", stmt,
                f"exit test {stmt.expr!r} differs from the ISA "
                f"condition {expected!r}")
        m = self.mask
        self._check_masked(stmt, f"if ({m}[j] && {expected}) {m}[j] = 0;",
                           f"live |= {m}[j];",
                           f"if (!live) goto loop_exit_{self.frame};")

    def _check_loop_marker(self, instr: Loop, stmt: EffectStatement) -> None:
        self._check_index_kind(stmt, "loop")
        self._resolve_operands(stmt, [])
        if stmt.bound != int(instr.max_iter):
            self._err(
                "codegen-expression-mismatch", stmt,
                f"nested loop marker records {stmt.bound} trips but "
                f"{instr.name!r} bounds max_iter={instr.max_iter}")

    # -- bounds / alias ---------------------------------------------------
    def _bound_refs(self, stmt: EffectStatement) -> list:
        refs = list(stmt.srcs)
        if stmt.dst is not None and stmt.dst.space != "scalars":
            refs.insert(0, stmt.dst)
        return refs

    def _check_bounds(self, stmt: EffectStatement) -> None:
        for slot, value in stmt.len_slots:
            if (not isinstance(slot, int) or slot < 0
                    or slot >= len(self.ir.lens)
                    or self.ir.lens[slot] != value):
                self._err(
                    "codegen-scalar-slot-mismatch", stmt,
                    f"loop bound reads L slot {slot} as {value} but "
                    f"the runtime L table disagrees")
        index = stmt.index
        batch = int(self.ir.batch)
        if index == "elementwise":
            for ref in self._bound_refs(stmt):
                if stmt.bound > ref.length:
                    self._err(
                        "codegen-index-out-of-bounds", stmt,
                        f"loop runs {stmt.bound} iterations over "
                        f"{ref.space}:{ref.name} of length {ref.length}")
                elif stmt.bound != ref.length:
                    self._err(
                        "codegen-shape-mismatch", stmt,
                        f"loop bound {stmt.bound} does not cover "
                        f"{ref.space}:{ref.name} of length {ref.length}")
        elif index == "flat":
            for ref in self._bound_refs(stmt):
                total = ref.length * batch
                if stmt.bound > total:
                    self._err(
                        "codegen-index-out-of-bounds", stmt,
                        f"flat loop touches {stmt.bound} elements of "
                        f"{ref.space}:{ref.name} holding only {total}")
                elif stmt.bound != total:
                    self._err(
                        "codegen-shape-mismatch", stmt,
                        f"flat bound {stmt.bound} does not cover the "
                        f"{total} elements of {ref.space}:{ref.name}")
        elif index == "laned":
            for ref in self._bound_refs(stmt):
                if stmt.bound > ref.length:
                    self._err(
                        "codegen-index-out-of-bounds", stmt,
                        f"row loop runs {stmt.bound} rows over "
                        f"{ref.space}:{ref.name} of {ref.length}")
                elif stmt.bound != ref.length:
                    self._err(
                        "codegen-shape-mismatch", stmt,
                        f"row bound {stmt.bound} does not cover "
                        f"{ref.space}:{ref.name} of {ref.length}")
            if stmt.lane_bound != batch:
                self._err(
                    "codegen-shape-mismatch", stmt,
                    f"lane loop runs {stmt.lane_bound} lanes on a "
                    f"batch-{batch} machine")
        elif index == "reduce":
            for ref in stmt.srcs:
                if stmt.bound > ref.length:
                    self._err(
                        "codegen-index-out-of-bounds", stmt,
                        f"reduction reads {stmt.bound} elements of "
                        f"{ref.space}:{ref.name} holding {ref.length}")
                elif stmt.bound != ref.length:
                    self._err(
                        "codegen-shape-mismatch", stmt,
                        f"reduction bound {stmt.bound} does not cover "
                        f"{ref.space}:{ref.name} of {ref.length}")
            if self.batch_tier and stmt.lane_bound != batch:
                self._err(
                    "codegen-shape-mismatch", stmt,
                    f"batched reduction runs {stmt.lane_bound} lanes "
                    f"on a batch-{batch} machine")
        elif index == "gather":
            self._check_gather_bounds(stmt)
        elif index == "scalar":
            if self.batch_tier and stmt.lane_bound != batch:
                self._err(
                    "codegen-shape-mismatch", stmt,
                    f"scalar lane loop runs {stmt.lane_bound} lanes "
                    f"on a batch-{batch} machine")
        elif index in ("control", "loop"):
            pass
        else:
            self._err("codegen-shape-mismatch", stmt,
                      f"unknown iteration shape {stmt.index!r}")

    def _check_gather_bounds(self, stmt: EffectStatement) -> None:
        if (stmt.spmv_shape is None or stmt.index_arrays is None
                or len(stmt.srcs) != 2 or stmt.dst is None):
            self._err("codegen-shape-mismatch", stmt,
                      "gather statement lacks its CSR shape/index "
                      "record; bounds cannot be proven")
            return
        rows = stmt.bound
        mat, src = stmt.srcs
        col, ip = stmt.index_arrays
        col = np.asarray(col)
        ip = np.asarray(ip)
        if rows != stmt.spmv_shape[0] or stmt.dst.length != rows:
            self._err(
                "codegen-index-out-of-bounds" if stmt.dst.length < rows
                else "codegen-shape-mismatch", stmt,
                f"gather writes {rows} rows into "
                f"{stmt.dst.space}:{stmt.dst.name} of length "
                f"{stmt.dst.length} (matrix shape {stmt.spmv_shape})")
        if ip.shape[0] != rows + 1:
            self._err(
                "codegen-index-out-of-bounds", stmt,
                f"row loop reads ip[0..{rows}] but indptr holds "
                f"{ip.shape[0]} entries")
            return
        if mat.length != stmt.nnz or col.shape[0] != stmt.nnz:
            self._err(
                "codegen-shape-mismatch", stmt,
                f"value/column streams hold {mat.length}/{col.shape[0]} "
                f"entries but the gather claims nnz={stmt.nnz}")
        if (ip.size and (int(ip[0]) != 0 or np.any(np.diff(ip) < 0)
                         or int(ip[-1]) > min(stmt.nnz, col.shape[0]))):
            self._err(
                "codegen-index-out-of-bounds", stmt,
                "indptr is not a monotone [0..nnz] partition; the "
                "k-loop would read outside the value/column streams")
        elif col.size and (int(col.min()) < 0
                           or int(col.max()) >= src.length):
            self._err(
                "codegen-index-out-of-bounds", stmt,
                f"column indices reach {int(col.max())} but the CVB "
                f"source {src.name!r} holds {src.length} elements")
        dst_key = (stmt.dst.space, stmt.dst.name)
        if dst_key in {(ref.space, ref.name) for ref in stmt.srcs}:
            self._err(
                "codegen-alias-hazard", stmt,
                f"gather writes {dst_key} while reading it indirectly; "
                f"row results would feed later rows")
        resource = getattr(self.machine, "matrices", {}).get(stmt.matrix)
        if resource is None:
            self._err(
                "codegen-shape-mismatch", stmt,
                f"machine holds no matrix resource {stmt.matrix!r}")
            return
        shape = resource.kernel.shape
        if shape != tuple(stmt.spmv_shape):
            self._err(
                "codegen-shape-mismatch", stmt,
                f"gather claims matrix shape {stmt.spmv_shape} but the "
                f"machine resource is {shape}")

    # -- write-set soundness ----------------------------------------------
    def _check_writes(self) -> None:
        ir = self.ir
        loc = Location(f"codegen[{ir.tier}]")
        static = static_write_set(self.instrs)
        for space, name in sorted(ir.writes() - static):
            self.report.error(
                "codegen-write-set-miss",
                f"generated code writes {space}:{name} but the static "
                f"write-set omits it; a batch snapshot-restore frame "
                f"would leak that buffer's frozen-lane columns",
                loc)
        if self.batch_tier:
            return
        declared = set(ir.reg_writes)
        recorded = {name for stmt in ir.statements
                    for name, _tok in stmt.sreg_writes}
        for name in sorted(recorded - declared):
            self.report.error(
                "codegen-write-set-miss",
                f"statements write scalar register {name!r} but the "
                f"unit's write-back table omits it; the host register "
                f"file would keep the stale value",
                loc)
        for name in sorted(declared - recorded):
            self.report.error(
                "codegen-write-set-miss",
                f"write-back table names scalar register {name!r} that "
                f"no statement writes; the host would write back an "
                f"undefined S slot",
                loc)

    # -- cycle accounting --------------------------------------------------
    def _check_charges(self, loop_meta: list) -> None:
        ir = self.ir
        loc = Location(f"codegen[{ir.tier}]")
        expected = loop_charge_slots(self.instrs, self.machine)
        got = list(ir.charges)
        if len(got) != len(expected):
            self.report.error(
                "codegen-cycle-mismatch",
                f"charge table holds {len(got)} CT slot(s) but the "
                f"static decomposition yields {len(expected)}",
                loc)
        else:
            for slot, (want, have) in enumerate(zip(expected, got)):
                w_cycles, w_by_class, w_n, _depth = want
                h_cycles, h_by_class, h_n = have
                if (w_cycles != h_cycles or dict(w_by_class) != dict(h_by_class)
                        or w_n != h_n):
                    self.report.error(
                        "codegen-cycle-mismatch",
                        f"CT slot {slot} charges {h_cycles} cycles over "
                        f"{h_n} instruction(s) ({h_by_class}) but the "
                        f"static cost model derives {w_cycles} over "
                        f"{w_n} ({w_by_class})",
                        loc)
        if tuple(ir.loops) != tuple(loop_meta):
            self.report.error(
                "codegen-cycle-mismatch",
                f"IT trip-counter table {tuple(ir.loops)} disagrees "
                f"with the loop nest {tuple(loop_meta)}",
                loc)


# ---------------------------------------------------------------------------
# public verification entry points

def verify_effect_ir(ir: EffectIR, instrs: list,
                     machine: Any) -> VerificationReport:
    """Verify one generated unit's effect IR against its instructions.

    ``instrs`` is the loop body the unit was generated from; ``machine`` is the
    machine (live or statically seeded) whose buffers and cost tables
    the generation consulted.
    """
    report = VerificationReport(subject=f"codegen[{ir.tier}]",
                                passes=["codegen"])
    _UnitChecker(ir, instrs, machine, report).check()
    return report


def ensure_codegen_verified(ir: EffectIR, instrs: list, machine: Any, *,
                            context: str = "") -> None:
    """Compile-time guard: accept or reject one generated unit.

    Called by the builders just before handing source to the C
    compiler. Acceptance is memoized on the IR digest, so repeat
    compilations of the same pattern (the common case — the cjit module
    cache exists for the same reason) verify once per process. Raises
    :class:`~repro.exceptions.VerificationError` on rejection.
    """
    digest = ir.digest()
    if _VERIFIED.get(digest):
        return
    report = verify_effect_ir(ir, instrs, machine)
    report.raise_if_failed(context or f"generated {ir.tier} unit rejected")
    if len(_VERIFIED) >= _VERIFIED_CAP:
        _VERIFIED.clear()
    _VERIFIED[digest] = True


# ---------------------------------------------------------------------------
# static lifting: emit effect IR for every unit the backends would fuse,
# without executing anything and without a C toolchain

def _static_resources(compiled: Any, matrices: dict,
                      batch: int | None = None) -> dict:
    ctx = compiled.context
    resources: dict = {}
    for name, matrix in matrices.items():
        try:
            solo = MatrixResource(name, matrix, ctx.spmv_cycles(name),
                                  ctx.cvb_depth(name))
        except KeyError:
            continue
        resources[name] = (solo if batch is None
                           else BatchMatrixResource(name, solo, batch))
    return resources


def _seed_hbm(machine: Any, compiled: Any, batch: int | None) -> None:
    ctx = compiled.context
    contract = contract_for_algorithm(getattr(compiled, "algorithm",
                                              "admm"))
    for name in sorted(contract.hbm):
        try:
            length = int(ctx.vector_length(name))
        except KeyError:
            continue
        machine.hbm[name] = (np.zeros(length) if batch is None
                             else np.zeros((length, batch)))
    for name in sorted(contract.scalars):
        if batch is None:
            machine.scalars[name] = 0.0
        else:
            machine.scalar_buffer(name)


def _prepare_buffers(machine: Any, items: list,
                     batch: int | None) -> None:
    """Program-order walk creating every buffer the builders resolve.

    Mirrors the executors' lazy ``_dst_buffer`` creation so that by
    lift time every operand is 'resident' exactly as it would be when
    the runtime builder binds — same names, same lengths."""

    def vec(name: str) -> int | None:
        for space in (machine.vb, machine.cvb, machine.hbm):
            if name in space:
                return int(space[name].shape[0])
        return None

    def make(space: dict, name: str, length: int) -> None:
        shape = (length,) if batch is None else (length, batch)
        buf = space.get(name)
        if not (isinstance(buf, np.ndarray) and buf.shape == shape):
            space[name] = np.zeros(shape)

    for item in items:
        if isinstance(item, Loop):
            _prepare_buffers(machine, item.body, batch)
        elif isinstance(item, DataTransfer):
            length = vec(item.name)
            if length is None:
                continue
            if item.direction == "load":
                make(machine.vb, item.name, length)
            else:
                make(machine.hbm, item.name, length)
        elif isinstance(item, ScalarOp):
            if batch is None:
                machine.scalars.setdefault(item.dst, 0.0)
                for ref in (item.src1, item.src2):
                    if isinstance(ref, str):
                        machine.scalars.setdefault(ref, 0.0)
            else:
                machine.scalar_buffer(item.dst)
                for ref in (item.src1, item.src2):
                    if isinstance(ref, str):
                        machine.scalar_buffer(ref)
        elif isinstance(item, VectorOp):
            for ref in (item.alpha, item.beta):
                if isinstance(ref, str):
                    if batch is None:
                        machine.scalars.setdefault(ref, 0.0)
                    else:
                        machine.scalar_buffer(ref)
            if item.op is VectorOpKind.DOT:
                if batch is None:
                    machine.scalars.setdefault(item.dst, 0.0)
                else:
                    machine.scalar_buffer(item.dst)
            else:
                length = vec(item.srcs[0]) if item.srcs else None
                if length is not None:
                    make(machine.vb, item.dst, length)
        elif isinstance(item, VecDup):
            length = vec(item.src)
            if length is not None:
                make(machine.cvb, item.cvb, length)
        elif isinstance(item, SpMV):
            resource = machine.matrices.get(item.matrix)
            if resource is not None:
                make(machine.vb, item.dst, resource.kernel.shape[0])


def _loop_units(executor: Any, builder_cls: Any, items: list,
                units: list, skipped: list) -> None:
    """Lift every Loop in ``items``, nested loops included.

    A loop's first run takes the node path, and a nested loop's node
    fuses on its own before the enclosing loop does, so the runtime can
    build a unit for every loop of the nest: lift them all. A body the
    builder refuses stays on the node path at runtime (``fuse_loop``);
    count it so coverage loss is visible.
    """
    for item in items:
        if not isinstance(item, Loop):
            continue
        builder = builder_cls(executor)
        try:
            builder.emit_body_ir(item.body)
        except Exception:
            skipped[0] += 1
        else:
            units.append((builder.effect_ir(), item.body,
                          executor.machine))
        _loop_units(executor, builder_cls, item.body, units, skipped)


def verify_codegen(compiled: Any, matrices: dict, *,
                   batch: int = 2) -> VerificationReport:
    """Statically lift and verify every generated-C unit of a program.

    ``compiled`` is a :class:`~repro.hw.compiler.CompiledProgram`;
    ``matrices`` maps streamed-matrix names (``P``/``A``/``At``) to
    their :class:`~repro.sparse.csr.CSRMatrix` structures. Every loop
    of the nest is lifted for both tiers (solo whole-loop fusion and
    lane-masked batched whole-loop fusion at the given ``batch``
    width) exactly as the runtime builders would emit it — same
    builders — but against statically seeded machines, so this needs no C toolchain
    and runs identically in a cffi-less environment.
    """
    report = VerificationReport(
        subject=f"codegen:{getattr(compiled, 'algorithm', 'admm')}",
        passes=["codegen"])
    units: list = []
    skipped = [0]

    solo_machine = Machine(compiled.context.c,
                           _static_resources(compiled, matrices))
    _seed_hbm(solo_machine, compiled, None)
    _prepare_buffers(solo_machine, compiled.program.instructions, None)
    solo_exec = CompiledExecutor(solo_machine, jit=False, verify=False)
    _loop_units(solo_exec, _LoopBuilder, compiled.program.instructions,
                units, skipped)

    batch_machine = BatchMachine(
        compiled.context.c,
        _static_resources(compiled, matrices, batch=batch), batch)
    _seed_hbm(batch_machine, compiled, batch)
    _prepare_buffers(batch_machine, compiled.program.instructions, batch)
    batch_exec = BatchExecutor(batch_machine, jit=False, verify=False)
    _loop_units(batch_exec, _BatchLoopBuilder,
                compiled.program.instructions, units, skipped)

    counts = dict.fromkeys(TIERS, 0)
    for ir, instrs, machine in units:
        counts[ir.tier] += 1
        report.extend(verify_effect_ir(ir, instrs, machine))
    report.info(
        "codegen-coverage",
        f"analyzed {len(units)} generated unit(s): "
        f"{counts['loop']} whole-loop, {counts['batch-loop']} batch "
        f"whole-loop (batch={batch}); {skipped[0]} loop(s) stay on "
        f"the node path",
        Location("codegen"))
    return report


def codegen_report_for_artifact(artifact: Any, problem: Any, *,
                                batch: int = 2) -> VerificationReport:
    """Codegen pass for a served artifact bound to one problem's
    structure (the lanes of a batch share it by fingerprint)."""
    matrices = {"P": problem.P, "A": problem.A,
                "At": problem.A.transpose()}
    return verify_codegen(artifact.compiled, matrices, batch=batch)
